"""Seeded op lists of the three benchmark workloads.

Op lists are built here, before any timing, from the workload seed alone,
and only their contents reach the library.  Every op is a JSON-ready dict:

* ``{"kind": "cli", "argv": [...], "check": {...}}``: one in-process call
  of ``orbitcodes.cli.main``; ``{workdir}`` in an argument is replaced by
  the worker's scratch directory.
* ``{"kind": "predict", "rows": [[0/1, ...], ...], "check": {...}}``:
  ``Subspace(Mat(rows))`` plus ``analyze(u, ctx)`` under the workload's
  one context, predictor only.

``check`` says what a correct answer looks like; ``checks.py`` applies it.
"""

from __future__ import annotations

import hashlib
import json
import random

import gfref

#: First primitive GF(2) modulus of each degree used here.
PRIMITIVE = {
    6: "x^6+x+1",
    7: "x^7+x+1",
    8: "x^8+x^4+x^3+x^2+1",
    9: "x^9+x^4+1",
    10: "x^10+x^3+1",
    12: "x^12+x^6+x^4+x+1",
    16: "x^16+x^5+x^3+x^2+1",
}
#: Non-primitive degree-12 modulus of order 1365 (three alpha-orbits).
NONPRIMITIVE_12 = "x^12+x^11+x^2+x+1"
F4 = ["-q", "4", "--base-modulus", "x^2+x+1"]

WHY = {
    "verify-ladder": "GF(2) spread --verify up to n = 12 and two full-length "
                     "analyze --verify codes: the oracle and matrix_order path",
    "predict-sweep": "2000 predictor-only analyses under one n = 16 context: "
                     "dlog table set-up and per-op phi/dlog throughput",
    "general-q": "odd characteristic, F_4 towers, non-primitive moduli, "
                 "polynomial lists and code file export/import through the CLI",
}


def random_full_rank(rng: random.Random, k: int, n: int, q: int = 2) -> list[list[int]]:
    """Uniform k x n matrix over GF(q), resampled until its rank is k."""
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if gfref.rank(rows, q) == k:
            return rows


def _rows_arg(rows) -> str:
    return ";".join("".join(str(e) for e in r) for r in rows)


def verify_ladder(rng: random.Random) -> list[dict]:
    ops = []
    for n, k in ((6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5), (12, 6)):
        ops.append({
            "kind": "cli", "label": f"spread q=2 n={n} k={k}",
            "argv": ["spread", "-q", "2", "-n", str(n), "-k", str(k),
                     "-p", PRIMITIVE[n], "--verify"],
            "check": {"type": "spread", "q": 2, "n": n, "k": k, "verify": True}})
    for k in (2, 3):
        rows = random_full_rank(rng, k, 7)
        ops.append({
            "kind": "cli", "label": f"analyze q=2 n=7 k={k}",
            "argv": ["analyze", "-q", "2", "-p", PRIMITIVE[7],
                     "--start-rows", _rows_arg(rows), "--verify"],
            "check": {"type": "analyze_gf2", "poly": PRIMITIVE[7], "rows": rows,
                      "cardinality": 127, "verify": True}})
    return ops


def general_q(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(10):
        k = rng.choice((2, 3, 4))
        rows = random_full_rank(rng, k, 12)
        ops.append({
            "kind": "cli", "label": f"analyze q=2 n=12 k={k} non-primitive",
            "argv": ["analyze", "-q", "2", "-p", NONPRIMITIVE_12,
                     "--start-rows", _rows_arg(rows)],
            "check": {"type": "analyze_gf2", "poly": NONPRIMITIVE_12, "rows": rows,
                      "verify": False}})
    for poly, n, order in (("x^3+[2]*x+[1]", 3, 21), ("x^3+[2]", 3, 9),
                           ("x^5+x^2+[1]", 5, 31)):
        rows = random_full_rank(rng, 2, n, q=4)
        ops.append({
            "kind": "cli", "label": f"analyze q=4 {poly}",
            "argv": ["analyze", *F4, "-p", poly, "--start-rows", _rows_arg(rows),
                     "--verify"],
            "check": {"type": "analyze_verified", "group_order": order}})
    for field, poly, n, k, q in ((F4, "x^4+x^2+[2]*x+[3]", 4, 2, 4),
                                 (["-q", "3"], "x^6+x+2", 6, 2, 3),
                                 (["-q", "3"], "x^6+x+2", 6, 3, 3)):
        ops.append({
            "kind": "cli", "label": f"spread q={q} n={n} k={k}",
            "argv": ["spread", *field, "-p", poly, "-k", str(k), "--verify"],
            "check": {"type": "spread", "q": q, "n": n, "k": k, "verify": True}})
    ops.append({
        "kind": "cli", "label": "poly list q=4 n=4",
        "argv": ["poly", "list", *F4, "-n", "4"],
        "check": {"type": "line_count", "lines": (4 ** 4 - 4 ** 2) // 4}})
    n, k = 8, 4
    rows = gfref.spread_start_rows(n, k, gfref.poly_bits(PRIMITIVE[n]),
                                   rng.randrange(1, 2 ** n - 1))
    cardinality = (2 ** n - 1) // (2 ** k - 1)
    ops.append({
        "kind": "cli", "label": f"orbit q=2 n={n} k={k} moved spread",
        "argv": ["orbit", "-q", "2", "-p", PRIMITIVE[n], "--start-rows",
                 _rows_arg(rows), "--out", "{workdir}/spread.code"],
        "check": {"type": "orbit", "cardinality": cardinality}})
    ops.append({
        "kind": "cli", "label": f"distance q=2 n={n} k={k}",
        "argv": ["distance", "{workdir}/spread.code"],
        "check": {"type": "distance", "distance": 2 * k}})
    ops.append({
        "kind": "cli", "label": "selfcheck", "argv": ["selfcheck"],
        "check": {"type": "selfcheck", "passed": 13}})
    return ops


SWEEP_N = 16
SWEEP_OPS = 2000


def predict_sweep(rng: random.Random) -> list[dict]:
    """Three quarters random full-rank starts with k spread evenly over
    2..5, one quarter subfield spread starts (k = 2, 4) moved by a seeded
    power of alpha.

    Op cost grows about 2.3x per step of k, so latencies form one cluster
    per k.  Fixed shares keep the work mix the same for every seed (the
    seed picks the starts and their order), and splitting the spread starts
    4:1 between k = 2 and k = 4 puts the median op inside the k = 3
    cluster instead of on the gap between k = 3 and k = 4."""
    n = SWEEP_N
    poly = gfref.poly_bits(PRIMITIVE[n])
    spreads = SWEEP_OPS // 4
    kinds = ([("random", k) for k in (2, 3, 4, 5) for _ in range(SWEEP_OPS * 3 // 16)]
             + [("spread", 2)] * (spreads * 4 // 5) + [("spread", 4)] * (spreads // 5))
    rng.shuffle(kinds)
    ops = []
    for kind, k in kinds:
        if kind == "random":
            rows = random_full_rank(rng, k, n)
            check = {"type": "predict_invariants", "k": k, "poly": PRIMITIVE[n]}
        else:
            rows = gfref.spread_start_rows(n, k, poly, rng.randrange(1, 2 ** n - 1))
            check = {"type": "predict_spread", "k": k, "poly": PRIMITIVE[n]}
        ops.append({"kind": "predict", "label": f"{kind} k={k}", "rows": rows,
                    "check": check})
    # A seeded tenth of the ops is also checked against gfref.OrbitReference.
    for i in rng.sample(range(len(ops)), len(ops) // 10):
        ops[i]["check"]["reference"] = True
    return ops


GENERATORS = {
    "verify-ladder": verify_ladder,
    "predict-sweep": predict_sweep,
    "general-q": general_q,
}

#: Modulus of the one context predict-sweep builds in set-up.
SETUP_MODULUS = {"predict-sweep": PRIMITIVE[SWEEP_N]}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rng)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def digest(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
