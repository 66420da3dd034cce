"""Correctness checks of op outputs, applied after timing.

``check_op`` returns None for a correct output and a reason otherwise.  An
op fails on an exception, an unexpected exit code or a wrong answer; the
run counts failures instead of stopping.
"""

from __future__ import annotations

import gfref


def _fields(text: str) -> dict[str, str]:
    """``key = value`` lines of a CLI summary or report document."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _pairs_total(text: str) -> int:
    return 0 if text == "-" else sum(int(p.split(":")[1]) for p in text.split(","))


def _ints(text: str) -> list[int]:
    return [] if text == "-" else [int(v) for v in text.split(",")]


class Checker:
    """Checks outputs; caches one ``gfref.OrbitReference`` per modulus and
    one reference answer per op."""

    def __init__(self):
        self._refs: dict[str, gfref.OrbitReference] = {}
        self._answers: dict[int, tuple] = {}

    def reference(self, op: dict) -> tuple[int, int | None]:
        if op["id"] not in self._answers:
            poly = op["check"]["poly"]
            if poly not in self._refs:
                self._refs[poly] = gfref.OrbitReference(gfref.poly_bits(poly))
            self._answers[op["id"]] = self._refs[poly].params(op["check"].get("rows")
                                                              or op["rows"])
        return self._answers[op["id"]]

    def check_op(self, op: dict, output: dict) -> str | None:
        if "error" in output:
            return output["error"]
        check = op["check"]
        if op["kind"] == "predict":
            return self._check_predict(op, check, output)
        if output["rc"] != 0:
            return f"exit code {output['rc']}: {output['err'].strip()[-300:]}"
        return getattr(self, "_cli_" + check["type"])(op, check, output["out"])

    # -- predictor ops ---------------------------------------------------------

    def _check_predict(self, op, check, out) -> str | None:
        k = check["k"]
        n = gfref.poly_bits(check["poly"]).bit_length() - 1
        group = 2 ** n - 1
        s = 2 ** k - 1
        if out["k"] != k or out["group_order"] != group:
            return f"k/group order {out['k']}/{out['group_order']}, expected {k}/{group}"
        if check["type"] == "predict_spread":
            want = (group // s, 2 * k, True)
            got = (out["cardinality"], out["distance"], out["spread"])
            if got != want:
                return f"spread start gave {got}, expected {want}"
        elif group % out["cardinality"]:
            return f"cardinality {out['cardinality']} does not divide {group}"
        elif out["distance"] != 2 * k - 2 * out["intersection_dim"]:
            return "distance is not 2k - 2 intersection_dim"
        elif out["differences_total"] != s * (s - 1):
            return f"difference multiset total {out['differences_total']} != s(s-1)"
        if check.get("reference"):
            want = self.reference(op)
            got = (out["cardinality"], out["distance"])
            if got != want:
                return f"reference says (cardinality, distance) = {want}, got {got}"
        return None

    # -- CLI ops -----------------------------------------------------------------

    def _cli_spread(self, op, check, text) -> str | None:
        f = _fields(text)
        q, n, k = check["q"], check["n"], check["k"]
        card, dist = str((q ** n - 1) // (q ** k - 1)), str(2 * k)
        want = {"predicted_cardinality": card, "predicted_distance": dist,
                "spread": "true"}
        if check["verify"]:
            want.update(verified_cardinality=card, verified_distance=dist,
                        verified_agrees="true")
        bad = {key: f.get(key) for key, value in want.items() if f.get(key) != value}
        return f"expected {want}, got {bad}" if bad else None

    def _report_invariants(self, f: dict) -> str | None:
        k = int(f["k"])
        card, group = int(f["predicted_cardinality"]), int(f["group_order"])
        membership = _ints(f["membership"])
        if group % card:
            return f"cardinality {card} does not divide group order {group}"
        if f["predicted_distance"] != str(2 * k - 2 * int(f["intersection_dim"])):
            return "distance is not 2k - 2 intersection_dim"
        if sum(membership) != int(f["q"]) ** k - 1:
            return f"membership {membership} does not cover q^k - 1 vectors"
        if _pairs_total(f["merged_differences"]) != sum(m * (m - 1) for m in membership):
            return "difference multiset total is not sum s_i (s_i - 1)"
        return None

    def _cli_analyze_gf2(self, op, check, text) -> str | None:
        f = _fields(text)
        bad = self._report_invariants(f)
        if bad:
            return bad
        got = (int(f["predicted_cardinality"]),
               None if f["predicted_distance"] == "-" else int(f["predicted_distance"]))
        if "cardinality" in check and got[0] != check["cardinality"]:
            return f"cardinality {got[0]}, expected {check['cardinality']}"
        want = self.reference(op)
        if got != want:
            return f"reference says (cardinality, distance) = {want}, got {got}"
        if check["verify"] and f.get("verified_agrees") != "true":
            return f"verified_agrees = {f.get('verified_agrees')}"
        return None

    def _cli_analyze_verified(self, op, check, text) -> str | None:
        f = _fields(text)
        bad = self._report_invariants(f)
        if bad:
            return bad
        if int(f["group_order"]) != check["group_order"]:
            return f"group order {f['group_order']}, expected {check['group_order']}"
        if f.get("verified_agrees") != "true":
            return f"verified_agrees = {f.get('verified_agrees')}"
        return None

    def _cli_line_count(self, op, check, text) -> str | None:
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) != check["lines"]:
            return f"{len(lines)} lines, expected {check['lines']}"
        return None

    def _cli_orbit(self, op, check, text) -> str | None:
        got = _fields(text).get("cardinality")
        if got != str(check["cardinality"]):
            return f"cardinality {got}, expected {check['cardinality']}"
        return None

    def _cli_distance(self, op, check, text) -> str | None:
        if text.strip() != str(check["distance"]):
            return f"distance {text.strip()!r}, expected {check['distance']}"
        return None

    def _cli_selfcheck(self, op, check, text) -> str | None:
        want = f"selfcheck: {check['passed']} passed, 0 failed"
        last = text.strip().splitlines()[-1] if text.strip() else ""
        return None if last == want else f"last line {last!r}, expected {want!r}"
