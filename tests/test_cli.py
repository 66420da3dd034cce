
import pytest

from orbitcodes import FieldSpec, ParseError, min_distance_brute, parse_code
from orbitcodes.cli import ReportDocument, main, parse_report, render_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_domain_failure_exits_3(self, capsys):
        code, _, err = run(capsys, "poly", "order", "-q", "2", "x^2+1")
        assert code == 3 and "irreducible" in err

    def test_prime_power_field(self, capsys):
        code, out, _ = run(capsys, "poly", "list", "-q", "4",
                           "--base-modulus", "x^2+x+1", "-n", "2")
        assert code == 0 and len(out.strip().splitlines()) == 6

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


class TestAnalyze:
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

    def test_report_round_trip(self, capsys):
        _, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^6+x+1",
                        "--start-rows", "100000;011010;000110", "--verify")
        doc = parse_report(out)
        assert isinstance(doc, ReportDocument)
        assert render_report(doc) == out
        assert parse_report(render_report(doc)) == doc

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

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        report_file = tmp_path / "report.txt"
        _, out, _ = run(capsys, "analyze", "-q", "2", "-p", "x^4+x+1",
                        "--start-rows", "1000;0100", "--out", str(report_file))
        assert report_file.read_text() == out


class TestOrbitAndDistance:
    def test_orbit_then_distance(self, capsys, tmp_path):
        out_file = tmp_path / "example.code"
        code, out, _ = run(capsys, "orbit", "-q", "2", "-p", "x^4+x^3+x^2+x+1",
                           "--start-rows", "1000;0011", "--out", str(out_file))
        assert code == 0
        assert "cardinality = 5" in out and "generator_order = 5" in out
        code, out, _ = run(capsys, "distance", str(out_file))
        assert code == 0 and out.strip() == "4"

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

    def test_distance_oversized_header_exits_2(self, capsys, tmp_path):
        big = tmp_path / "big.code"
        big.write_text("2305843009213693951 2 1 1\n10\n")  # q = 2^61 - 1
        code, _, err = run(capsys, "distance", str(big))
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize("argv", [
        ("distance", "{file}"),
        ("analyze", "-q", "2", "-p", "x^2+x+1", "--start", "{file}"),
    ], ids=["distance", "analyze-start"])
    def test_non_ascii_file_exits_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 2 1 1\n1\xff\n")
        code, _, err = run(capsys, *(a.format(file=bad) for a in argv))
        assert code == 2 and "error:" in err


class TestVerificationExitCode:
    def test_disagreeing_report_maps_to_exit_4(self, capsys):
        import dataclasses

        from orbitcodes import ExtensionContext, Subspace, parse_matrix, parse_poly, predict_primitive
        from orbitcodes.cli import _print_verification

        f2 = FieldSpec(2)
        poly = parse_poly(f2, "x^6+x+1")
        ctx = ExtensionContext.from_modulus(poly)
        u = Subspace(parse_matrix(f2, "100000"))
        good = predict_primitive(u, ctx, verify=True)
        assert _print_verification(good) == 0
        bad = dataclasses.replace(good, verified_cardinality=7)
        assert _print_verification(bad) == 4
        out = capsys.readouterr().out
        assert "verified_agrees = false" in out


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
