
import argparse
import errno
import hashlib
import io
import os
import random
import stat
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import orbitcodes.orbitcode
import orbitcodes.polyring
from orbitcodes import (ExtensionContext, FieldSpec, ParseError, min_distance_brute,
                        parse_code)
from orbitcodes import cli
from orbitcodes.cli import ReportDocument, main, parse_report, render_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_proofs(monkeypatch) -> Counter:
    """Count irreducibility proofs and field extensions from here on."""
    calls = Counter()
    irreducible, extend = orbitcodes.polyring.is_irreducible, FieldSpec.extend

    def counting_irreducible(f):
        calls["is_irreducible"] += 1
        return irreducible(f)

    def counting_extend(field, modulus):
        calls["extend"] += 1
        return extend(field, modulus)

    monkeypatch.setattr(orbitcodes.polyring, "is_irreducible", counting_irreducible)
    monkeypatch.setattr(FieldSpec, "extend", counting_extend)
    return calls


class TestPoly:
    def test_order(self, capsys):
        code, out, _ = run(capsys, "poly", "order", "-q", "2", "x^4+x^3+x^2+x+1")
        assert code == 0 and out.strip() == "5"

    def test_list_degree_two(self, capsys):
        code, out, _ = run(capsys, "poly", "list", "-q", "2", "-n", "2")
        assert code == 0 and out.strip() == "x^2+x+1"

    def test_primitive(self, capsys):
        code, out, _ = run(capsys, "poly", "primitive", "-q", "2", "x^6+x+1")
        assert code == 0 and out.strip() == "true"

    def test_irreducible_false(self, capsys):
        code, out, _ = run(capsys, "poly", "irreducible", "-q", "2", "x^2+1")
        assert code == 0 and out.strip() == "false"

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "poly", "order", "-q", "2", "x^")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("action,text,fragment", [
        ("order", "x^999999999999+1", "exponent 999999999999 is above 25"),
        ("irreducible", "x^400+x+1", "exponent 400 is above 25"),
        ("primitive", "x^1+" + "1" * 5000, "coefficient index 1111"),
    ], ids=["order", "irreducible", "long-coefficient"])
    def test_oversized_polynomial_exits_2_at_once(self, capsys, action, text, fragment):
        started = time.perf_counter()
        code, out, err = run(capsys, "poly", action, "-q", "2", text)
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and fragment in err and "Traceback" not in err

    def test_domain_failure_exits_3(self, capsys):
        code, _, err = run(capsys, "poly", "order", "-q", "2", "x^2+1")
        assert code == 3 and "irreducible" in err

    def test_prime_power_field(self, capsys):
        code, out, _ = run(capsys, "poly", "list", "-q", "4",
                           "--base-modulus", "x^2+x+1", "-n", "2")
        assert code == 0 and len(out.strip().splitlines()) == 6

    def test_list_over_f9_stdout_is_pinned(self, capsys):
        # F_9 = GF(3)[x]/(x^2+1) adds through its block table: the 240
        # irreducible cubics keep their pinned order and text.
        code, out, _ = run(capsys, "poly", "list", "-q", "9",
                           "--base-modulus", "x^2+1", "-n", "3")
        assert code == 0 and out.count("\n") == 240 and len(out) == 4716
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0da6c8b1a81a47f62ebb0fda30ac45ff4bdd165d5cbc44b040fd62c87fbb9721")

    @pytest.mark.parametrize("argv, lines, digest", [
        (("-q", "2", "-n", "13"), 630,
         "10cb6a64b53aab92596f1d62fecb2c55a6a5381f48418b65eb046fedbf0e173c"),
        (("-q", "3", "-n", "8"), 810,
         "5ef8c842e5e0a05f939fdb2f99855ddb832c961683714f11fd7b1c170accd2ac"),
        (("-q", "4", "--base-modulus", "x^2+x+1", "-n", "6"), 670,
         "8968dad854523f2cbd5597240ed05971b1890d239ceae34533b52aa9b91206e9"),
    ], ids=["GF2-n13", "GF3-n8", "F4-n6"])
    def test_list_at_the_cap_edge_is_pinned(self, capsys, argv, lines, digest):
        # The largest degree LIST_CAP allows over each field: Gauss's count
        # of irreducibles, in their pinned order and text.
        code, out, _ = run(capsys, "poly", "list", *argv)
        assert code == 0 and out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_prime_power_without_modulus_exits_2(self, capsys):
        code, _, err = run(capsys, "poly", "list", "-q", "4", "-n", "2")
        assert code == 2 and "base-modulus" in err

    def test_non_prime_power_exits_3(self, capsys):
        code, _, err = run(capsys, "poly", "list", "-q", "6", "-n", "2")
        assert code == 3 and "prime power" in err

    @pytest.mark.parametrize("q,modulus,expected_code,fragment", [
        ("1", None, 3, "too small"),
        ("8", "x^3+x+1", 0, "x^2+x+[3]"),
        ("9", None, 2, "base-modulus"),
        ("2", "x+1", 2, "only applies to prime-power q"),
        ("4", "x^3+x+1", 3, "degree 2"),
        ("2305843009213693951", None, 3, "cap"),  # 2^61 - 1, a prime
    ], ids=["q1", "q8", "q9-no-modulus", "q2-with-modulus", "q4-cubic-modulus",
            "q2^61-1"])
    def test_base_field_resolution(self, capsys, q, modulus, expected_code, fragment):
        flags = ["--base-modulus", modulus] if modulus else []
        code, out, err = run(capsys, "poly", "list", "-q", q, *flags, "-n", "2")
        assert code == expected_code and fragment in out + err


class TestSpread:
    def test_k3_summary(self, capsys, tmp_path):
        out_file = tmp_path / "k3.code"
        code, out, _ = run(capsys, "spread", "-q", "2", "-n", "6", "-k", "3",
                           "-p", "x^6+x+1", "--verify", "--out", str(out_file))
        assert code == 0
        assert "start = 100000;011010;000110" in out
        assert "predicted_cardinality = 9" in out
        assert "predicted_distance = 6" in out
        assert "spread = true" in out
        assert "verified_agrees = true" in out
        _, words = parse_code(out_file.read_text())
        assert len(words) == 9

    def test_verify_proves_irreducibility_once(self, capsys, monkeypatch):
        # Only the field behind the context: the spread start reads
        # primitivity off it.  The orbit needs no order, so none.
        calls = count_proofs(monkeypatch)
        code, _, _ = run(capsys, "spread", "-q", "2", "-p", "x^8+x^4+x^3+x^2+1", "-k", "4",
                         "--verify")
        assert code == 0
        assert calls == {"is_irreducible": 1, "extend": 1}

    def test_verify_and_out_generate_the_orbit_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        generate = cli.generate_orbit

        def counting(u, g):
            calls.append(u)
            return generate(u, g)

        for module in (cli, orbitcodes.orbitcode):
            monkeypatch.setattr(module, "generate_orbit", counting)
        out_file = tmp_path / "k2.code"
        code, out, _ = run(capsys, "spread", "-q", "2", "-k", "2", "-p", "x^6+x+1",
                           "--verify", "--out", str(out_file))
        assert code == 0 and len(calls) == 1
        assert out == ("start = 100000;010111\npredicted_cardinality = 21\n"
                       "predicted_distance = 4\nspread = true\n"
                       "verified_cardinality = 21\nverified_distance = 4\n"
                       f"verified_agrees = true\nexport = {out_file}\n")
        orbit_file = tmp_path / "orbit.code"
        run(capsys, "orbit", "-q", "2", "-p", "x^6+x+1", "--start-rows",
            "100000;010111", "--out", str(orbit_file))
        assert out_file.read_bytes() == orbit_file.read_bytes()

    def test_verify_checks_the_listed_words_with_the_incidence_oracle(self, capsys,
                                                                      monkeypatch):
        # spread --verify lists the orbit once and reads the words as a set
        # with min_distance_brute; it does not walk.
        calls = Counter()
        for name in ("generate_orbit", "min_distance_brute"):
            original = getattr(orbitcodes.orbitcode, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)
            for module in (cli, orbitcodes.orbitcode):
                monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(orbitcodes.orbitcode, "_walk_orbit", None)
        code, out, _ = run(capsys, "spread", "-q", "2", "-k", "2", "-p", "x^6+x+1",
                           "--verify")
        assert code == 0 and calls == {"generate_orbit": 1, "min_distance_brute": 1}
        assert out.endswith("verified_cardinality = 21\nverified_distance = 4\n"
                            "verified_agrees = true\n")

    @pytest.mark.parametrize("q,k,poly,vectors", [
        ("2", "2", "x^20+x^3+1", 2 ** 20 - 1),
        ("3", "6", "x^12+2*x^11+2*x^10+2*x^9+x^7+x^6+x^5+x^4+x^3+2*x^2+2", 3 ** 12 - 1)])
    def test_verify_refuses_an_over_budget_spread_before_its_context(
            self, capsys, monkeypatch, q, k, poly, vectors):
        # The words of a spread hold all q^n - 1 nonzero vectors, above the
        # budget: it is refused before a context or an orbit is built.
        def refuse(*_args):
            raise AssertionError("built a context")
        monkeypatch.setattr(ExtensionContext, "__init__", refuse)
        code, out, err = run(capsys, "spread", "-q", q, "-k", k, "-p", poly, "--verify")
        assert (code, out) == (3, "")
        assert err == (f"error: the oracle would list {vectors} vectors, above its "
                       "budget of 524288\n")

    def test_a_base_field_above_the_text_format_is_refused_before_its_context(
            self, capsys, monkeypatch):
        # The start is printed in the matrix text format, which stops at
        # order 36: q = 37 is refused before a context is built.
        def refuse(*_args):
            raise AssertionError("built a context")
        monkeypatch.setattr(ExtensionContext, "__init__", refuse)
        code, out, err = run(capsys, "spread", "-q", "37", "-p", "x^4+35*x^3+26*x^2+x+19",
                             "-k", "2")
        assert (code, out) == (3, "")
        assert err == "error: matrix text format supports base fields of order <= 36\n"

    def test_k2_summary(self, capsys):
        code, out, _ = run(capsys, "spread", "-q", "2", "-k", "2", "-p", "x^6+x+1")
        assert code == 0
        assert "predicted_cardinality = 21" in out
        assert "predicted_distance = 4" in out
        assert "spread = true" in out

    def test_k_not_dividing_n_exits_3(self, capsys):
        code, _, err = run(capsys, "spread", "-q", "2", "-n", "6", "-k", "4",
                           "-p", "x^6+x+1")
        assert code == 3 and "k | n" in err

    def test_degree_flag_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "spread", "-q", "2", "-n", "4", "-k", "2",
                           "-p", "x^6+x+1")
        assert code == 2 and "does not match" in err

    @pytest.mark.parametrize("argv, message", [
        (["-q", "2", "-k", "2", "-p", "x^6+x^5+x^4+x^3+x^2+x+1"],
         "modulus x^6+x^5+x^4+x^3+x^2+x+1 is reducible"),
        (["-q", "2", "-k", "2", "-p", "x^4+x^3+x^2+x+1"],
         "spread construction requires a primitive polynomial"),
        (["-q", "3", "-k", "1", "-p", "2*x^2+2*x+1"], "modulus must be monic"),
        (["-q", "2", "-k", "4", "-p", "x^6+x+1"],
         "spread construction requires k | n, got k=4, n=6"),
        # k | n comes before the context is built.
        (["-q", "2", "-k", "4", "-p", "x^6+x^5+x^4+x^3+x^2+x+1"],
         "spread construction requires k | n, got k=4, n=6"),
    ], ids=["reducible", "non-primitive", "non-monic", "k-not-dividing-n",
            "k-not-dividing-n-reducible"])
    def test_refusals_exit_3(self, capsys, argv, message):
        code, out, err = run(capsys, "spread", *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_k_not_dividing_n_builds_no_field(self, capsys, monkeypatch):
        # The context of a degree-24 modulus takes seconds; k | n is refused first.
        calls = count_proofs(monkeypatch)
        code, _, _ = run(capsys, "spread", "-q", "2", "-k", "5", "-p", "x^24+x^7+x^2+x+1")
        assert code == 3 and calls == {}


    def test_oversized_start_is_refused_before_the_context(self, capsys, monkeypatch):
        # k = 12 under a primitive degree-24 modulus: the start's 4095 vectors
        # lie on one orbit.  The refusal reads ord(p) alone; the 2^24 context
        # took a quarter of a second and 80 MB before it.
        def refuse(*_args):
            raise AssertionError("built the extension context")
        monkeypatch.setattr(ExtensionContext, "__init__", refuse)
        code, out, err = run(capsys, "spread", "-q", "2", "-k", "12",
                             "-p", "x^24+x^7+x^2+x+1")
        assert (code, out) == (3, "")
        assert err == ("error: the predictor would count 8382465 exponent pairs, "
                       "above its budget of 1048576\n")

    @pytest.mark.parametrize("poly,message", [
        ("x^4+x^3+x^2+x+1", "spread construction requires a primitive polynomial"),
        ("x^4+x+1", "the predictor would count 3 exponent pairs, above its budget of 2"),
    ], ids=["non-primitive", "primitive"])
    def test_a_non_primitive_modulus_is_refused_as_such_past_the_budget(
            self, capsys, monkeypatch, poly, message):
        # Under a budget of 2 pairs both k = 2 starts pass the one-orbit
        # count; only the primitive modulus holds its start on one orbit.
        monkeypatch.setattr(orbitcodes.orbitcode, "PAIR_BUDGET", 2)
        code, out, err = run(capsys, "spread", "-q", "2", "-k", "2", "-p", poly)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("field,poly,k,budget,proofs", [
        (("-q", "2"), "x^6+x+1", "2", None, 1),
        (("-q", "2"), "x^6+x+1", "3", 21, 1),
        (("-q", "2"), "x^12+x^6+x^4+x+1", "6", None, 1),
        (("-q", "4", "--base-modulus", "x^2+x+1"), "x^4+x^2+[2]*x+[3]", "2", None, 2),
    ], ids=["gf2-k2", "gf2-k3-at-the-budget", "gf2-n12-k6", "f4-k2"])
    def test_early_refusal_costs_nothing_within_the_budget(self, capsys, monkeypatch, field,
                                                           poly, k, budget, proofs):
        # A start within the budget makes no _order call: the context's
        # coset walk finds ord(p) itself.  Over F_4 the base field's
        # modulus is proved too, but not ordered.
        if budget is not None:  # the k = 3 spread's 7 vectors make 21 pairs
            monkeypatch.setattr(orbitcodes.orbitcode, "PAIR_BUDGET", budget)
        calls, order = count_proofs(monkeypatch), orbitcodes.polyring._order

        def counting_order(g):
            calls["_order"] += 1
            return order(g)
        monkeypatch.setattr(orbitcodes.polyring, "_order", counting_order)
        code, _, _ = run(capsys, "spread", *field, "-k", k, "-p", poly, "--verify")
        assert code == 0
        assert calls.pop("_order", 0) == 0
        assert calls == {"is_irreducible": proofs, "extend": proofs}


class TestAnalyze:
    def test_verify_proves_irreducibility_once(self, capsys, monkeypatch):
        # Only the field behind the context.
        calls = count_proofs(monkeypatch)
        code, _, _ = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                         "--start-rows", "100000;011010;000110", "--verify")
        assert code == 0
        assert calls == {"is_irreducible": 1, "extend": 1}

    def test_verify_walks_a_code_over_the_oracle_budget(self, capsys):
        # 65535 words of dimension 4: 983025 vectors, above the incidence
        # oracle's budget, but the walk reads 15 of them per shift.
        rows = "1000000000000000;0100000000000000;0010000000000000;0000000100000001"
        started = time.perf_counter()
        code, out, err = run(capsys, "analyze", "-q", "2", "-p", "x^16+x^5+x^3+x^2+1",
                             "--start-rows", rows, "--verify")
        assert time.perf_counter() - started < 2.0
        assert (code, err) == (0, "")
        doc = parse_report(out)
        assert (doc.verified_cardinality, doc.verified_distance) == (65535, 4)
        assert doc.verified_agrees is True

    def test_verify_lists_no_orbit(self, capsys, monkeypatch):
        # The walk verifies: no orbit is listed and no word is spanned.
        calls = Counter()
        for name in ("generate_orbit", "min_distance_brute"):
            def refuse(*_args, _name=name):
                calls[_name] += 1
                raise AssertionError(f"--verify called {_name}")
            for module in (cli, orbitcodes.orbitcode):
                monkeypatch.setattr(module, name, refuse)
        code, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                           "--start-rows", "100000;010111", "--verify")
        assert code == 0 and calls == Counter()
        doc = parse_report(out)
        assert (doc.verified_cardinality, doc.verified_distance) == (21, 4)
        assert doc.verified_agrees is True

    @pytest.mark.parametrize("budget,status", [(147, 0), (146, 3)])
    def test_verify_over_the_walk_budget_exits_3(self, capsys, monkeypatch, budget, status):
        # The start of the 21-word spread, of dimension 2: each shift is
        # charged 3 + 4 reads, so the walk needs 21 * 7 = 147 to close the orbit.
        monkeypatch.setattr(orbitcodes.orbitcode, "WALK_READ_BUDGET", budget)
        code, out, err = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                             "--start-rows", "100000;010111", "--verify")
        assert code == status
        if status:
            assert out == "" and err == ("error: the orbit has more than 20 words: its "
                                         "walk would pass its budget of 146 reads\n")
        else:
            assert "verified_agrees = true" in out

    def test_predictor_over_the_pair_budget_exits_3(self, capsys, monkeypatch):
        # Rows e1..e11 of F_2^12 under a primitive modulus: 2047 vectors on
        # one orbit, 2047 * 2046 / 2 pairs, refused before any is counted.
        counted = []
        monkeypatch.setattr(orbitcodes.orbitcode.DifferenceMultiset, "from_exponents",
                            lambda *args: counted.append(args))
        rows = ";".join("".join("1" if i == j else "0" for j in range(12)) for i in range(11))
        started = time.perf_counter()
        code, out, err = run(capsys, "analyze", "-q", "2", "-p", "x^12+x^6+x^4+x+1",
                             "--start-rows", rows)
        assert time.perf_counter() - started < 0.5
        assert (code, out, counted) == (3, "", [])
        assert err == ("error: the predictor would count 2094081 exponent pairs, above "
                       "its budget of 1048576\n")

    def test_oversized_start_is_refused_before_the_context(self, capsys, monkeypatch):
        # Rows e1..e20 under a primitive degree-24 modulus: 2^20 - 1 vectors
        # on one orbit.  The refusal reads ord(p) alone; the 2^24 context
        # took a quarter of a second and 80 MB before it.
        def refuse(*_args):
            raise AssertionError("built the extension context")
        monkeypatch.setattr(ExtensionContext, "__init__", refuse)
        rows = ";".join("".join("1" if i == j else "0" for j in range(24)) for i in range(20))
        code, out, err = run(capsys, "analyze", "-q", "2", "-p", "x^24+x^7+x^2+x+1",
                             "--start-rows", rows)
        assert (code, out) == (3, "")
        assert err == ("error: the predictor would count 549754241025 exponent pairs, "
                       "above its budget of 1048576\n")

    @pytest.mark.parametrize("poly,n,k,orders", [("x^6+x+1", 6, 3, 0),
                                                 ("x^12+x^6+x^4+x+1", 12, 10, 0),
                                                 ("+".join(f"x^{i}" for i in range(12, 1, -1))
                                                  + "+x+1", 12, 11, 1)],
                             ids=["small", "at-the-budget", "past-one-orbit"])
    def test_early_refusal_costs_nothing_within_the_budget(self, capsys, monkeypatch,
                                                           poly, n, k, orders):
        # Only a start whose q^k - 1 vectors on one orbit would pass the
        # budget reads ord(p) by _order, before the context; the context's
        # coset walk finds ord(p) itself, and no start proves its modulus
        # twice.  The last start's 2047 vectors lie on 315 orbits, so it
        # passes the early bound and is analyzed.
        calls, order = count_proofs(monkeypatch), orbitcodes.polyring._order

        def counting_order(g):
            calls["_order"] += 1
            return order(g)
        monkeypatch.setattr(orbitcodes.polyring, "_order", counting_order)
        rows = ";".join("".join("1" if i == j else "0" for j in range(n)) for i in range(k))
        code, _, _ = run(capsys, "analyze", "-q", "2", "-p", poly, "--start-rows", rows)
        assert code == 0
        assert calls.pop("_order", 0) == orders
        assert calls == {"is_irreducible": 1, "extend": 1}

    def test_nonprimitive_example(self, capsys):
        code, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^4+x^3+x^2+x+1",
                           "--start-rows", "1000;0011", "--verify")
        assert code == 0
        doc = parse_report(out)
        assert doc.mode == "nonprimitive"
        assert doc.membership == (1, 1, 1)
        assert doc.predicted_cardinality == 5
        assert doc.predicted_distance == 4
        assert doc.spread is True
        assert doc.verified_agrees is True
        assert render_report(doc) == out
        assert parse_report(render_report(doc)) == doc

    def test_report_round_trip(self, capsys):
        _, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                        "--start-rows", "100000;011010;000110", "--verify")
        doc = parse_report(out)
        assert isinstance(doc, ReportDocument)
        assert render_report(doc) == out
        assert parse_report(render_report(doc)) == doc
        with pytest.raises(AttributeError):
            doc.predicted_cardinality = 1

    def test_start_file(self, capsys, tmp_path):
        start = tmp_path / "start.mat"
        start.write_text("100000\n011010\n000110\n")
        code, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                           "--start", str(start))
        assert code == 0
        doc = parse_report(out)
        assert doc.predicted_cardinality == 9 and doc.oracle_run is False

    def test_dependent_rows_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                           "--start-rows", "100000;100000")
        assert code == 3 and "dependent" in err

    @pytest.mark.parametrize("command", ["analyze", "orbit"])
    @pytest.mark.parametrize("nrows,ncols,fragment", [
        (400, 400, "start has 400 columns but the polynomial has degree 6"),
        (7, 6, "starting rows are linearly dependent"),
    ], ids=["400x400", "7x6"])
    def test_misshapen_start_exits_3_before_row_reduction(self, capsys, tmp_path, monkeypatch,
                                                          command, nrows, ncols, fragment):
        rng = random.Random(nrows)
        start = tmp_path / "start.mat"
        start.write_text("\n".join("".join(rng.choice("01") for _ in range(ncols))
                                   for _ in range(nrows)) + "\n")
        monkeypatch.setattr(cli, "Subspace", None)  # any row reduction would fail
        started = time.perf_counter()
        code, out, err = run(capsys, command, "-q", "2", "-p", "x^6+x+1",
                             "--start", str(start), "--out", str(tmp_path / "out"))
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == "" and err == f"error: {fragment}\n"
        assert list(tmp_path.iterdir()) == [start]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                           "--start", str(tmp_path / "absent.mat"))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("old,new,message", [
        ("q = 2", "q = two", "'q' has a malformed value"),
        ("orbit_exponents.0 = ", "orbit_exponents.x = ", "'orbit_exponents' has a malformed"),
        ("membership = 1,1,1", "membership = 1,,1", "'membership' has a malformed"),
        ("merged_differences = -", "merged_differences = 3", "'merged_differences' has"),
        ("spread = true", "spread = yes", "expected a boolean, got 'yes'$"),
        ("q = 2\n", "", "missing key 'q'"),
    ], ids=["int", "index", "empty-entry", "pair-without-colon", "bool", "missing"])
    def test_malformed_report_raises_parse_error(self, capsys, old, new, message):
        _, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^4+x^3+x^2+x+1",
                        "--start-rows", "1000;0011")
        assert old in out
        with pytest.raises(ParseError, match=message):
            parse_report(out.replace(old, new, 1))

    def test_report_skips_blank_lines_and_refuses_a_line_without_a_separator(self, capsys):
        _, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^4+x^3+x^2+x+1",
                        "--start-rows", "1000;0011")
        assert parse_report(out.replace("\nq = ", "\n\n  \nq = ", 1)) == parse_report(out)
        with pytest.raises(ParseError, match=r"^report line 3 is not 'key = value'$"):
            parse_report(out.replace("mode = ", "mode: ", 1))

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        report_file = tmp_path / "report.txt"
        _, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^4+x+1",
                        "--start-rows", "1000;0100", "--out", str(report_file))
        assert report_file.read_text() == out
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


class TestOrbitAndDistance:
    def test_orbit_then_distance(self, capsys, tmp_path):
        out_file = tmp_path / "example.code"
        code, out, _ = run(capsys, "orbit", "-q", "2", "-p", "x^4+x^3+x^2+x+1",
                           "--start-rows", "1000;0011", "--out", str(out_file))
        assert code == 0
        assert "cardinality = 5" in out and "generator_order = 5" in out
        code, out, _ = run(capsys, "distance", str(out_file))
        assert code == 0 and out.strip() == "4"

    @pytest.mark.parametrize("field,poly,rows", [
        (("-q", "2"), "x^4+1", "1000;0100"),
        (("-q", "3"), "x^4+2", "1000"),
    ], ids=["gf2-x4+1", "gf3-x4+2"])
    def test_orbit_on_a_reducible_modulus(self, capsys, tmp_path, field, poly, rows):
        # Both moduli are x^4 - 1: the least e with x^4 - 1 | x^e - 1 is 4.
        code, out, _ = run(capsys, "orbit", *field, "-p", poly, "--start-rows", rows,
                           "--out", str(tmp_path / "f"))
        assert code == 0 and "generator_order = 4" in out

    @pytest.mark.parametrize("field,poly,n", [
        (("-q", "2"), "x^25+x^3+1", 25),
        (("-q", "3"), "x^16+x+2", 16),
        (("-q", "4", "--base-modulus", "x^2+x+1"), "x^13+x+[2]", 13),
    ], ids=["gf2", "gf3", "f4"])
    def test_orbit_above_the_cap_exits_3_at_once(self, capsys, tmp_path, field, poly, n):
        # ord(P) of a Q^n > cap group would be walked by up to 2^24 matmuls.
        out_file = tmp_path / "f"
        started = time.perf_counter()
        code, out, err = run(capsys, "orbit", *field, "-p", poly,
                             "--start-rows", "1" + "0" * (n - 1), "--out", str(out_file))
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and "desk-scale cap" in err
        assert list(tmp_path.iterdir()) == []

    def test_distance_of_spread_export(self, capsys, tmp_path):
        out_file = tmp_path / "k3.code"
        run(capsys, "spread", "-q", "2", "-k", "3", "-p", "x^6+x+1",
            "--out", str(out_file))
        code, out, _ = run(capsys, "distance", str(out_file))
        assert code == 0 and out.strip() == "6"
        field, words = parse_code(out_file.read_text())
        assert min_distance_brute(words) == 6

    def test_distance_prime_power_without_modulus_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "gf4.code"
        bad.write_text("4 2 1 1\n10\n")
        code, _, err = run(capsys, "distance", str(bad))
        assert code == 2 and "not prime" in err

    def test_distance_oversized_header_q_exits_3(self, capsys, tmp_path):
        # the desk-scale cap on q is the cap on q^n: one cap, one exit code
        big = tmp_path / "big.code"
        big.write_text("2305843009213693951 2 1 1\n10\n")  # q = 2^61 - 1
        code, _, err = run(capsys, "distance", str(big))
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("n", ["25", "15000", "9" * 4000],
                             ids=["25", "15000", "4000-digits"])
    def test_distance_header_above_the_cap_exits_3_at_once(self, capsys, tmp_path, n):
        # the blocks are malformed: they must not be read at all
        big = tmp_path / "big.code"
        big.write_text(f"2 {n} 1 2\nzz\n\nzz\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "distance", str(big))
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == ""
        assert err == (f"error: header says q = 2 and n = {n}: q^n exceeds the "
                       "desk-scale cap 16777216\n")

    def test_distance_above_the_oracle_budget_exits_3(self, capsys, tmp_path, monkeypatch):
        out_file = tmp_path / "k2.code"
        run(capsys, "spread", "-q", "2", "-k", "2", "-p", "x^6+x+1", "--out", str(out_file))
        monkeypatch.setattr(orbitcodes.orbitcode, "ORACLE_VECTOR_BUDGET", 62)
        code, out, err = run(capsys, "distance", str(out_file))
        assert code == 3 and out == "" and "above its budget of 62" in err

    def test_distance_refuses_an_over_budget_header_before_any_block(
            self, capsys, tmp_path, monkeypatch):
        # the full-length n = 16, k = 4 code: 65535 (2^4 - 1) = 983025 vectors
        big = tmp_path / "k4.code"
        big.write_text("2 16 4 65535\n" + "\n".join(
            "".join("1" if i == j else "0" for j in range(16)) for i in range(4)) + "\n")
        blocks = []
        monkeypatch.setattr(orbitcodes.orbitcode, "_parse_blocks",
                            lambda *args: blocks.append(args))
        code, out, err = run(capsys, "distance", str(big))
        assert code == 3 and out == "" and blocks == []
        assert err == ("error: the oracle would list 983025 vectors, above its "
                       "budget of 524288\n")

    @pytest.mark.parametrize("header", ["-2 999999999 999999999 1", "2 3 999999999 1",
                                        "1 999999999 999999999 1", "2 4 2 " + "9" * 4300])
    def test_distance_refuses_a_bad_header_at_once(self, capsys, tmp_path, header):
        # no power of q is built before the field and k are known to be valid,
        # and no size is multiplied out that has more words than G(k, n)
        bad = tmp_path / "bad.code"
        bad.write_text(header + "\n1\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "distance", str(bad))
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("q", ["-2", "0", "1", "6"])
    @pytest.mark.parametrize("flag", [(), ("--base-modulus", "x^2+x+1")],
                             ids=["header-only", "base-modulus"])
    def test_distance_header_q_that_no_field_has_exits_2(self, capsys, tmp_path, q, flag):
        # No modulus makes a field of such an order: refused as a malformed
        # header, whether a base field is supplied or not.
        bad = tmp_path / "bad.code"
        bad.write_text(f"{q} 3 1 1\n100\n")
        code, out, err = run(capsys, "distance", str(bad), *flag)
        assert (code, out) == (2, "")
        assert err == f"error: header says q = {q}, which is not a prime power\n"

    @pytest.mark.parametrize("flag", [(), ("--base-modulus", "x^2+x+1")],
                             ids=["header-only", "base-modulus"])
    def test_distance_header_n_0_with_q_above_the_cap_exits_2(self, capsys, tmp_path, flag):
        # The prime 16777259 is above the cap, and n = 0 passes the q^n
        # check: k is refused before any field is built, so the base field
        # given or not gives one exit code and one message.
        bad = tmp_path / "bad.code"
        bad.write_text("16777259 0 1 1\n1\n")
        code, out, err = run(capsys, "distance", str(bad), *flag)
        assert (code, out) == (2, "")
        assert err == "error: header says k = 1 and n = 0: k must lie in [1, n]\n"

    @pytest.mark.parametrize("text,message", [
        ("2 3 one 1\n100\n", "header fields must be integers"),
        ("2 3 1 1\n10\n", "codeword block is not 1x3"),
        ("2 3 2 1\n100\n", "codeword block is not 2x3"),
    ], ids=["non-integer-header", "narrow-block", "short-block"])
    def test_distance_refuses_a_malformed_file(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.code"
        bad.write_text(text)
        code, out, err = run(capsys, "distance", str(bad))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("distance", "{file}"),
        ("analyze", "-q", "2", "-p", "x^2+x+1", "--start", "{file}"),
    ], ids=["distance", "analyze-start"])
    def test_non_ascii_file_exits_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 2 1 1\n1\xff\n")
        code, _, err = run(capsys, *(a.format(file=bad) for a in argv))
        assert code == 2 and "error:" in err


class TestOutputFiles:
    COMMANDS = {
        "analyze": ("analyze", "-q", "2", "-p", "x^4+x+1", "--start-rows", "1000;0100"),
        "spread": ("spread", "-q", "2", "-k", "2", "-p", "x^4+x+1", "--verify"),
        "orbit": ("orbit", "-q", "2", "-p", "x^4+x+1", "--start-rows", "1000;0100"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("target", ["missing-dir/out.txt", "existing-dir"])
    def test_failed_write_prints_nothing(self, capsys, tmp_path, command, target):
        (tmp_path / "existing-dir").mkdir()
        code, out, err = run(capsys, *self.COMMANDS[command],
                             "--out", str(tmp_path / target))
        assert code == 2 and out == "" and "error:" in err
        assert f"'{tmp_path / target}'" in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing-dir"]
        assert list((tmp_path / "existing-dir").iterdir()) == []


    ORBIT = COMMANDS["orbit"]

    def _expected(self, capsys, tmp_path):
        code, _, _ = run(capsys, *self.ORBIT, "--out", str(tmp_path / "plain.code"))
        assert code == 0
        return (tmp_path / "plain.code").read_text()

    def test_symlink_target_is_written_through(self, capsys, tmp_path):
        expected = self._expected(capsys, tmp_path)
        (tmp_path / "real.code").write_text("old")
        (tmp_path / "link.code").symlink_to("real.code")
        code, _, _ = run(capsys, *self.ORBIT, "--out", str(tmp_path / "link.code"))
        assert code == 0 and (tmp_path / "link.code").is_symlink()
        assert (tmp_path / "real.code").read_text() == expected

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        target = tmp_path / "private.code"
        target.write_text("old")
        target.chmod(0o600)
        code, _, _ = run(capsys, *self.ORBIT, "--out", str(target))
        assert code == 0 and stat.S_IMODE(target.stat().st_mode) == 0o600
        assert target.read_text() == self._expected(capsys, tmp_path)

    def test_hard_link_is_kept(self, capsys, tmp_path):
        target, twin = tmp_path / "a.code", tmp_path / "b.code"
        target.write_text("old")
        os.link(target, twin)
        code, _, _ = run(capsys, *self.ORBIT, "--out", str(target))
        assert code == 0 and twin.read_text() == self._expected(capsys, tmp_path)
        assert target.stat().st_ino == twin.stat().st_ino

    def test_pipe_target_is_written_in_place(self, capsys, tmp_path):
        # like /dev/null: a target that is not a regular file is opened,
        # never replaced
        expected = self._expected(capsys, tmp_path)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run(capsys, *self.ORBIT, "--out", str(fifo))
            assert code == 0 and f"export = {fifo}" in out
            assert os.read(reader, 1 << 16).decode() == expected
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo", "plain.code"]


class TestClosedPipe:
    def test_closed_stdout_exits_quietly(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orbitcodes.cli", "poly", "list", "-q", "2", "-n", "10"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
                timeout=60)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 0, err
        for marker in ("error:", "Traceback", "Exception ignored"):
            assert marker not in err

    def test_pipe_closed_after_the_command_keeps_its_status(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        dropped = []
        monkeypatch.setitem(cli._HANDLERS, "selfcheck", lambda args: 4)
        monkeypatch.setattr(cli, "_drop_stdout", lambda: dropped.append(True))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["selfcheck"]) == 4 and dropped == [True]


class TestVerificationExitCode:
    def test_disagreeing_report_maps_to_exit_4(self, capsys, monkeypatch):
        # A spread whose oracle disagrees with the predictor still prints its
        # summary, with verified_agrees = false, and exits 4.
        oracle = cli._oracle_report
        monkeypatch.setattr(cli, "_oracle_report", lambda report, code: oracle(
            report, code)._replace(verified_cardinality=7))
        code, out, err = run(capsys, "spread", "-q", "2", "-k", "2", "-p", "x^6+x+1",
                             "--verify")
        assert (code, err) == (4, "")
        assert out == ("start = 100000;010111\npredicted_cardinality = 21\n"
                       "predicted_distance = 4\nspread = true\n"
                       "verified_cardinality = 7\nverified_distance = 4\n"
                       "verified_agrees = false\n")

    def test_disagreeing_walk_maps_analyze_to_exit_4(self, capsys, tmp_path, monkeypatch):
        # The report is still printed and written to --out in full.
        monkeypatch.setattr(orbitcodes.orbitcode, "_walk_orbit", lambda u, p: (21, 2))
        report_file = tmp_path / "report.txt"
        code, out, err = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1", "--start-rows",
                             "100000;010111", "--verify", "--out", str(report_file))
        assert (code, err) == (4, "")
        doc = parse_report(out)
        assert (doc.verified_cardinality, doc.verified_distance) == (21, 2)
        assert doc.predicted_distance == 4 and doc.verified_agrees is False
        assert report_file.read_text() == out


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("ok")]
        assert len(lines) >= 12
        assert "selfcheck:" in out.splitlines()[-1]


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_unknown_command_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0 and out.startswith("orbitcodes ")

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        assert run(capsys, "poly", "order", "-q", "2", "x^4+x+1")[0] == 0
        assert run(capsys, "frobnicate")[0] == 2
        assert built.count("orbitcodes") == 1 and "orbitcodes poly" in built

    def test_import_builds_no_parser(self):
        probe = ("import argparse\n"
                 "built = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "argparse.ArgumentParser.__init__ = "
                 "lambda p, *a, **k: built.append(1) or init(p, *a, **k)\n"
                 "import orbitcodes.cli\n"
                 "print(len(built))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"
