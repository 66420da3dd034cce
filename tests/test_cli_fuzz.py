"""Fuzz of the command-line exit-code contract.

Every subcommand runs in process on argv drawn from valid, malformed,
oversized, non-ASCII and wrong-field tokens.  Oversized tokens lie strictly
above a documented cap: DESK_SCALE_CAP on q and on q^n, the exponent
limit of the polynomial syntax, LIST_CAP, the width of the start matrix,
the code-file header, ORACLE_VECTOR_BUDGET, WALK_READ_BUDGET and
PAIR_BUDGET.  Each call must exit with 0, 2, 3 or 4, raise nothing, write
no traceback and finish within CALL_BOUND seconds.

File arguments are "@name" tokens, resolved to files that the module
fixture writes in its own temporary directory; the calls also run with
that directory as working directory.
"""

import io
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcodes import DESK_SCALE_CAP, FieldSpec, Mat, Subspace, parse_poly
from orbitcodes.cli import main
from orbitcodes.orbitcode import format_code

CALL_BOUND = 2.0

#: Junk text.  It has no decimal digits, so every number that reaches the
#: CLI comes from the pools below, whose valid calls all finish well inside
#: CALL_BOUND, and no path separator, so a stray output path stays in the
#: working directory.
JUNK = st.text(st.characters(blacklist_characters="/\\",
                             blacklist_categories=("Cs", "Nd")), max_size=6)


def _identity_rows(n, rows=None):
    return ";".join("".join("1" if i == j else "0" for j in range(n))
                    for i in range(rows or n))


Q = {"valid": ["2", "3", "4"],
     "malformed": ["", "two", "2.0", "-2", "0", "1", "6"],
     "oversized": [str(DESK_SCALE_CAP + 1), "16777259", "9" * 5000],
     "non_ascii": ["²", "２", "٣"],
     "wrong_field": ["9", "8"]}
#: The only base fields these pools can build are GF(2), GF(3) and F_4.
BASE = {"valid": ["x^2+x+1"],
        "malformed": ["", "x^", "2x"],
        "oversized": ["x^26+1", "x^" + "9" * 30],
        "non_ascii": ["x²+x+1", "ξ"],
        "wrong_field": ["x^3+1", "x^2+2", "x+1", "x^2+[2]"]}
POLY = {"valid": ["x^6+x+1", "x^4+x+1", "x^4+x^3+x^2+x+1", "x^4+x+2", "x^3+2*x+1",
                  "x^3+[2]", "x^2+x+[2]", "x^12+x^6+x^4+x+1"],
        "malformed": ["", "x^", "x^2+", "x**2", "2x", "x^-1"],
        "oversized": ["x^25+x^3+1", "x^25+x+2", "x^25+x+[2]", "x^26+1",
                      "x^999999999999+1", "x^1+" + "1" * 5000],
        "non_ascii": ["x²+1", "x^2+x+１", "ξ"],
        "wrong_field": ["x^2+[2]", "x^2+x+[7]", "x^2+5", "x^3+2*x+1"]}
DEGREE = {"valid": ["1", "2", "3", "4"],
          "malformed": ["", "n", "-1", "0", "2.5"],
          "oversized": ["14", "15000", "9" * 5000],
          "non_ascii": ["４", "ⅳ"]}
ROWS = {"valid": ["1000;0011", "100000;010000", "100000;011010;000110", "100;010",
                  "1000;0120"],
        "malformed": ["", ";", "10;1", "1 0", "abc"],
        # Under x^12+x^6+x^4+x+1 the orbit of rows 8 x 12 has 4095 words of
        # 255 (2^8 - 1) vectors, above ORACLE_VECTOR_BUDGET, which the walk
        # verifies; that of rows 10 x 12 has 4095 words of 1023 vectors, a
        # walk charged 4095 * 1027 reads, above WALK_READ_BUDGET.  Rows
        # 11 x 12 put 2047 vectors on one orbit: 2094081 exponent pairs,
        # above PAIR_BUDGET.
        "oversized": [_identity_rows(400), _identity_rows(6, rows=7),
                      _identity_rows(7), _identity_rows(12, rows=8),
                      _identity_rows(12, rows=10), _identity_rows(12, rows=11)],
        "non_ascii": ["1é00", "１000"],
        "wrong_field": ["2000;0100", "z00000", "100000;100000"]}
START_FILES = ["@start4", "@dense400", "@nonascii", "@empty", "@missing", "@dir"]
CODE_FILES = ["@spread", "@f4code", "@header_over_cap", "@over_budget", "@q37",
              "@header_over_budget", "@negative_q", "@huge_size", "@huge_header",
              "@size_mismatch", "@nonascii", "@empty", "@missing", "@dir"]
OUT_FILES = ["@out", "@dir", "@missing_dir_out"]


def tokens(pools):
    """A token of any category, or junk text."""
    return st.one_of(*(st.sampled_from(pool) for pool in pools.values()), JUNK)


def opt(name, values):
    """Absent, or the option followed by a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def flag(name):
    return st.sampled_from([[], [name]])


def argv_of(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


FIELD = (opt("-q", tokens(Q)), opt("--base-modulus", tokens(BASE)))
START = st.one_of(opt("--start-rows", tokens(ROWS)),
                  opt("--start", st.sampled_from(START_FILES)))
COMMANDS = st.one_of(
    argv_of(st.just(["poly"]),
            st.sampled_from([["irreducible"], ["order"], ["primitive"], ["list"], []]),
            *FIELD, opt("-n", tokens(DEGREE)),
            st.one_of(st.just([]), tokens(POLY).map(lambda p: [p]))),
    argv_of(st.just(["spread"]), *FIELD, opt("-p", tokens(POLY)),
            opt("-n", tokens(DEGREE)), opt("-k", tokens(DEGREE)), flag("--verify"),
            opt("--out", st.sampled_from(OUT_FILES))),
    argv_of(st.just(["analyze"]), *FIELD, opt("-p", tokens(POLY)), START,
            flag("--verify"), opt("--out", st.sampled_from(OUT_FILES))),
    argv_of(st.just(["orbit"]), *FIELD, opt("-p", tokens(POLY)), START,
            opt("--out", st.sampled_from(OUT_FILES))),
    argv_of(st.just(["distance"]), st.sampled_from(CODE_FILES).map(lambda f: [f]),
            opt("--base-modulus", tokens(BASE))),
    argv_of(st.just(["selfcheck"]), st.lists(JUNK, max_size=2)),
    st.lists(st.one_of(st.sampled_from(["poly", "spread", "analyze", "orbit",
                                        "distance", "selfcheck", "--verify", "-q",
                                        "-p", "-n", "-k", "--version", "-h"]),
                       *(tokens(pools) for pools in (Q, POLY, DEGREE))),
             max_size=8),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The files that "@name" tokens stand for."""
    root = tmp_path_factory.mktemp("fuzz")
    f2 = FieldSpec(2)
    f4 = f2.extend(parse_poly(f2, "x^2+x+1"))
    rng = random.Random(400)
    texts = {
        "start4": "1000\n0011\n",
        "dense400": "\n".join("".join(rng.choice("01") for _ in range(400))
                              for _ in range(400)) + "\n",
        "empty": "",
        "spread": format_code([Subspace(Mat(f2, [[1, 0, 0, 0], [0, 1, 0, 0]])),
                               Subspace(Mat(f2, [[0, 0, 1, 0], [0, 0, 0, 1]]))]),
        "f4code": format_code([Subspace(Mat(f4, [[1, 0, 0]])),
                               Subspace(Mat(f4, [[0, 1, 2]]))]),
        "header_over_cap": "2 25 1 2\nzz\n\nzz\n",
        # two independent 19 x 20 words list 2 (2^19 - 1) vectors
        "over_budget": format_code([Subspace(Mat(f2, [[int(i == j) for j in range(20)]
                                                      for i in range(19)])),
                                    Subspace(Mat(f2, [[int(i + 1 == j) for j in range(20)]
                                                      for i in range(19)]))]),
        "q37": "37 2 1 2\n10\n\n01\n",
        # 65535 words of 2^4 - 1 vectors promised, above the budget; one block given
        "header_over_budget": "2 16 4 65535\n" + "\n".join(
            "".join("1" if i == j else "0" for j in range(16)) for i in range(4)) + "\n",
        "negative_q": "-2 999999999 999999999 1\n1\n",
        # more words than G(2, 4) holds; size (q^k - 1) has too many digits to print
        "huge_size": "2 4 2 " + "9" * 4300 + "\n1000\n0100\n",
        "huge_header": "2 " + "9" * 5000 + " 1 1\n1\n",
        "size_mismatch": "2 3 1 5\n100\n",
    }
    paths = {}
    for name, text in texts.items():
        (root / name).write_text(text, encoding="ascii")
        paths["@" + name] = str(root / name)
    (root / "nonascii").write_bytes(b"2 2 1 1\n1\xff\n")
    paths.update({"@nonascii": str(root / "nonascii"), "@missing": str(root / "missing"),
                  "@dir": str(root), "@out": str(root / "out"),
                  "@missing_dir_out": str(root / "missing" / "out")})
    return root, paths


@settings(max_examples=150, deadline=None)
@given(argv=COMMANDS)
# One call per documented cap, each strictly above it.
@example(argv=["poly", "order", "-q", str(DESK_SCALE_CAP + 1), "x+1"])
@example(argv=["poly", "order", "-q", "2", "x^26+1"])
@example(argv=["poly", "list", "-q", "2", "-n", "14"])
@example(argv=["poly", "list", "-q", "2", "-n", "15000"])
@example(argv=["poly", "list", "-q", "3", "-n", "15000"])
@example(argv=["analyze", "-q", "2", "-p", "x^25+x^3+1", "--start-rows", "1" + "0" * 24])
@example(argv=["orbit", "-q", "3", "-p", "x^16+x+2", "--start-rows", "1" + "0" * 15,
               "--out", "@out"])
@example(argv=["analyze", "-q", "2", "-p", "x^6+x+1", "--start-rows", _identity_rows(6, 7)])
@example(argv=["analyze", "-q", "2", "-p", "x^6+x+1", "--start", "@dense400"])
@example(argv=["orbit", "-q", "2", "-p", "x^6+x+1", "--start", "@dense400", "--out", "@out"])
@example(argv=["analyze", "-q", "2", "-p", "x^12+x^6+x^4+x+1", "--start-rows",
               _identity_rows(12, rows=8), "--verify"])
@example(argv=["analyze", "-q", "2", "-p", "x^12+x^6+x^4+x+1", "--start-rows",
               _identity_rows(12, rows=10), "--verify"])
@example(argv=["analyze", "-q", "2", "-p", "x^12+x^6+x^4+x+1", "--start-rows",
               _identity_rows(12, rows=11)])
@example(argv=["distance", "@header_over_cap"])
@example(argv=["distance", "@over_budget"])
@example(argv=["distance", "@q37"])
@example(argv=["distance", "@header_over_budget"])
@example(argv=["distance", "@negative_q"])
@example(argv=["distance", "@huge_size"])
# Found by this fuzz: an empty --start-rows once fell through to open(None).
@example(argv=["analyze", "-q", "2", "-p", "x^6+x+1", "--start-rows", ""])
def test_exit_code_contract(workdir, argv):
    root, paths = workdir
    argv = [paths.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        started = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - started
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert elapsed < CALL_BOUND, (argv, elapsed)
    if code in (2, 3):
        assert err.getvalue().startswith(("error: ", "usage: ")), argv
