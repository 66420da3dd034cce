"""Byte-identity of CLI output against recorded files in tests/golden/.

Each case runs the CLI in process and compares its stdout, and any code
export it writes, byte for byte with the recorded copy.  Only the
``export = <path>`` line is normalized, since the path is a temporary
directory.  The recordings are the reference: a change that alters any
byte of a report, export, distance, polynomial list or selfcheck fails
here.

To record them again, from a commit whose output is known good:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from orbitcodes.cli import main

GOLDEN = Path(__file__).parent / "golden"
F4 = ["-q", "4", "--base-modulus", "x^2+x+1"]

#: (name, field options, modulus, start rows) of the analyze cases; each
#: runs with and without --verify.
ANALYZE = [
    ("gf2-primitive-n6", ["-q", "2"], "x^6+x+1", "100000;011000"),
    ("gf2-nonprimitive-n4", ["-q", "2"], "x^4+x^3+x^2+x+1", "1000;0100"),
    ("gf2-nonprimitive-n6", ["-q", "2"], "x^6+x^4+x^2+x+1", "100000;000100"),
    ("gf2-nonprimitive-n12", ["-q", "2"], "x^12+x^11+x^2+x+1",
     "100000000000;010000000000"),
    ("gf3-n4", ["-q", "3"], "x^4+x+2", "1000;0120"),
    ("f4-x3+2", F4, "x^3+[2]", "100;013"),
    ("f4-x3+2x+1", F4, "x^3+[2]*x+[1]", "100;012"),
    ("gf5-x+1", ["-q", "5"], "x+1", "1"),
    ("gf5-x+3", ["-q", "5"], "x+3", "3"),
]

#: (name, field options, primitive modulus, k) of the spread --verify --out cases.
SPREAD = [
    ("gf2-n6-k2", ["-q", "2"], "x^6+x+1", 2),
    ("gf2-n6-k3", ["-q", "2"], "x^6+x+1", 3),
    ("gf2-n8-k2", ["-q", "2"], "x^8+x^4+x^3+x^2+1", 2),
    ("gf2-n8-k4", ["-q", "2"], "x^8+x^4+x^3+x^2+1", 4),
    ("gf3-n6-k2", ["-q", "3"], "x^6+x+2", 2),
    ("gf3-n6-k3", ["-q", "3"], "x^6+x+2", 3),
    ("f4-n4-k2", F4, "x^4+x^2+[2]*x+[3]", 2),
]

#: (name, field options, modulus, start rows) of the orbit --out cases; the
#: distance command then reads each export back.
ORBIT = [
    ("gf2-n6", ["-q", "2"], "x^6+x+1", "100000;011000"),
    ("gf3-n4", ["-q", "3"], "x^4+x+2", "1000;0120"),
    ("f4-x3+2x+1", F4, "x^3+[2]*x+[1]", "100;012"),
]


def _cases():
    """(case name, argv, export file name or None), in recording order."""
    out = []
    for name, field, poly, rows in ANALYZE:
        argv = ["analyze", *field, "-p", poly, "--start-rows", rows]
        out.append((f"analyze-{name}", argv, None))
        out.append((f"analyze-verify-{name}", argv + ["--verify"], None))
    for name, field, poly, k in SPREAD:
        out.append((f"spread-{name}", ["spread", *field, "-p", poly, "-k", str(k),
                                       "--verify", "--out", "{export}"], f"spread-{name}.code"))
    for name, field, poly, rows in ORBIT:
        out.append((f"orbit-{name}", ["orbit", *field, "-p", poly, "--start-rows", rows,
                                      "--out", "{export}"], f"orbit-{name}.code"))
        base = field[2:]  # --base-modulus, when the field needs one
        out.append((f"distance-{name}", ["distance", "{golden}/orbit-" + name + ".code",
                                         *base], None))
    out.append(("poly-list-f4-n3", ["poly", "list", *F4, "-n", "3"], None))
    out.append(("selfcheck", ["selfcheck"], None))
    return out


CASES = _cases()


def _run(argv, export):
    """Exit status and stdout, with the export path normalized."""
    path = str(export) if export else ""
    argv = [a.replace("{export}", path).replace("{golden}", str(GOLDEN)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    assert err.getvalue() == ""
    return status, out.getvalue().replace(f"export = {path}\n", "export = <path>\n")


@pytest.mark.parametrize("name,argv,export", CASES, ids=[c[0] for c in CASES])
def test_output_is_byte_identical(tmp_path, name, argv, export):
    status, out = _run(argv, tmp_path / export if export else None)
    assert status == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="ascii")
    if export:
        assert ((tmp_path / export).read_text(encoding="ascii")
                == (GOLDEN / export).read_text(encoding="ascii"))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, export in CASES:
        status, out = _run(argv, GOLDEN / export if export else None)
        assert status == 0, name
        (GOLDEN / f"{name}.out").write_text(out, encoding="ascii")
        print(f"recorded {name}", file=sys.stderr)
