
import errno
import io
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbitcodes.orbitcode
from orbitcodes import FieldSpec, ParseError, min_distance_brute, parse_code
from orbitcodes import cli
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
