"""Tests of the benchmark harness itself: op generation, output checks,
the reference arithmetic and the tracer."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gfref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_identical_op_lists():
    for name in workloads.GENERATORS:
        first, again = workloads.make_ops(name, 7), workloads.make_ops(name, 7)
        assert first == again
        assert workloads.digest(first) == workloads.digest(again)
        assert workloads.digest(first) != workloads.digest(workloads.make_ops(name, 8))


def test_generated_starts_have_full_rank():
    for op in workloads.make_ops("predict-sweep", 3):
        assert gfref.rank(op["rows"], 2) == len(op["rows"]) == op["check"]["k"]
    for op in workloads.make_ops("general-q", 3):
        rows = op["check"].get("rows")
        if rows:
            assert gfref.rank(rows, 2) == len(rows)


def test_reference_matches_closed_forms():
    poly = gfref.poly_bits("x^6+x+1")
    ref = gfref.OrbitReference(poly)
    for k in (2, 3):
        for shift in (0, 5, 40):
            rows = gfref.spread_start_rows(6, k, poly, shift)
            assert ref.params(rows) == ((2 ** 6 - 1) // (2 ** k - 1), 2 * k)
    assert gfref.OrbitReference(gfref.poly_bits("x^4+x^3+x^2+x+1")).order == 5


def _spread_op():
    return next(op for op in workloads.make_ops("verify-ladder", 1)
                if op["label"] == "spread q=2 n=6 k=2")


def test_wrong_answer_counts_as_failed_op():
    op = _spread_op()
    good = ("predicted_cardinality = 21\npredicted_distance = 4\nspread = true\n"
            "verified_cardinality = 21\nverified_distance = 4\nverified_agrees = true\n")
    wrong = [{"rc": 0, "out": good.replace("= 21", "= 20", 1), "err": ""},
             {"rc": 4, "out": good, "err": "mismatch"},
             {"error": "DomainError: boom"}]
    passes = ([{"outputs": [{"rc": 0, "out": good, "err": ""}]}]
              + [{"changed": [[0, o]]} for o in wrong] + [{"changed": []}])
    failures = run.check_passes([op], passes)
    assert [f.split(" ")[1] for f in failures] == ["1", "2", "3"]


def test_later_passes_inherit_the_first_verdict_of_an_unchanged_output():
    op = _spread_op()
    wrong = {"rc": 0, "out": "predicted_cardinality = 20\n", "err": ""}
    passes = [{"outputs": [wrong]}, {"changed": []}, {"changed": []}]
    assert [f.split(" ")[1] for f in run.check_passes([op], passes)] == ["0", "1", "2"]


def test_wrong_prediction_fails_against_reference():
    op = next(op for op in workloads.make_ops("predict-sweep", 2)
              if op["check"]["type"] == "predict_invariants" and op["check"].get("reference"))
    k = op["check"]["k"]
    card, dist = gfref.OrbitReference(gfref.poly_bits(op["check"]["poly"])).params(op["rows"])
    out = {"k": k, "group_order": 65535, "cardinality": card, "distance": dist,
           "intersection_dim": k - dist // 2,
           "differences_total": (2 ** k - 1) * (2 ** k - 2), "spread": False}
    wrong = dict(out, distance=dist - 2, intersection_dim=k - dist // 2 + 1)
    assert run.check_passes([op], [{"outputs": [out]}, {"changed": [[0, wrong]]}]) == [
        f"pass 1 op {op['id']} ({op['label']}): reference says (cardinality, distance) "
        f"= {(card, dist)}, got {(card, dist - 2)}"]


def test_self_times_never_exceed_span_totals():
    import orbitcodes.cli
    import orbitcodes.orbitcode

    original = orbitcodes.orbitcode.matrix_order
    spans = tracer.SpanTracer()
    spans.install()
    try:
        assert orbitcodes.orbitcode.matrix_order is not original
        spans.begin_op("spread")
        assert orbitcodes.cli.main(_spread_op()["argv"]) == 0
    finally:
        spans.remove()
    assert orbitcodes.orbitcode.matrix_order is original
    for i in range(len(spans.start)):
        assert 0 <= spans.self_ns[i] <= spans.end[i] - spans.start[i]
    totals = spans.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["orbitcode.min_distance_brute"]["calls"] == 1
    for row in totals.values():
        assert 0 <= row["self_s"] <= row["total_s"]
    root = totals["cli.main"]["total_s"]
    assert abs(sum(row["self_s"] for row in totals.values()) - root) < 1e-6
    assert spans.counts["orbitcode.oracle_pairs"] == 21 * 20 // 2


def test_call_counter_counts_by_tower_level_and_restores():
    from orbitcodes import FieldSpec, parse_poly
    from orbitcodes.gfq import FieldElement

    original = FieldElement.__mul__
    counter = tracer.CallCounter()
    counter.install()
    try:
        f2 = FieldSpec(2)
        f4 = f2.extend(parse_poly(f2, "x^2+x+1"))
        f4.element(2) * f4.element(3)
    finally:
        counter.remove()
    assert FieldElement.__mul__ is original
    assert counter.counts["gfq.mul_calls.l1"] == 1
    assert counter.counts["gfq.mul_calls.l0"] >= 1


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.per_layer_catalogue()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.GENERATORS)


def test_host_scale_states_times_at_the_reference_speed():
    ref = run.HOST_REFERENCE_S
    # The host ran at half speed around the first interval and at reference
    # speed around the second; samples far from an interval are ignored.
    samples = {"at": [0.0, 0.1, 0.2, 0.3, 5.0, 5.1, 5.2, 9.0],
               "took": [2 * ref, 2 * ref, 2 * ref, 2 * ref, ref, ref, ref, 9 * ref]}
    assert run.host_scale(samples, 0.05, 0.25) == 0.5
    assert run.host_scale(samples, 5.05, 5.1) == 1.0
    result = {"setup_s": 0.2, "setup_start": 0.05, "setup_end": 0.25, "peak_rss_mb": 1.0,
              "passes": [{"latencies": [0.2, 0.05], "starts": [0.05, 5.05],
                          "ends": [0.25, 5.1]}]}
    scaled = run.end_to_end_metrics([result], result, samples)
    raw = run.end_to_end_metrics([result], result, None)
    assert scaled["setup_s"][0] == 0.1 and raw["setup_s"][0] == 0.2
    assert abs(scaled["wall_s"][0] - 0.15) < 1e-12 and raw["wall_s"][0] == 0.25
