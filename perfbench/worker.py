"""Runs one workload's op list in this process: one client, one thread,
each op issued when the previous one returns.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job (written by run.py) holds the workload name, the mode, the op
list and the path of the library sources.  Modes:

* ``setup``: import the library and do the workload's one-time
  construction, then stop; only the set-up time is reported.
* ``run``: set up, then repeat the op list until ``seconds`` have passed.
  The peak RSS is read after the first pass, so it covers set-up and the
  whole op list but not the harness's store of later passes.
* ``trace``: set up, run the op list untraced, then again under
  ``tracer.CallCounter`` (so the counts cover the ops only), then set up
  afresh and run it under ``tracer.SpanTracer``, with the construction as a
  pseudo-op ``setup`` so that it is traced too.

Each op's start and end (``perf_counter``) are kept with its latency, so
that run.py can scale it by the host samples hostprobe.py took around it.
Outputs are summarised after each op's clock stops, so checks are never
timed; run.py checks them.  Only the first pass keeps every output; later
passes keep the outputs that differ from it, so what the harness holds does
not grow with the number of passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
from array import array
from time import perf_counter

import tracer as tracing


def _setup(job: dict):
    """The workload's one-time construction, after the import."""
    import orbitcodes
    import orbitcodes.cli  # noqa: F401  (the CLI workloads call into it)

    modulus = job.get("setup_modulus")
    if modulus is None:
        return {"workdir": tempfile.mkdtemp(prefix="work-", dir=job["scratch"])}
    f2 = orbitcodes.FieldSpec(2)
    return {"field": f2,
            "ctx": orbitcodes.ExtensionContext.from_modulus(
                orbitcodes.parse_poly(f2, modulus))}


def _teardown(state: dict) -> None:
    if "workdir" in state:
        shutil.rmtree(state["workdir"], ignore_errors=True)
    state.clear()


def _run_op(state: dict, op: dict):
    """Issue one op; returns its raw result (timed by the caller)."""
    if op["kind"] == "cli":
        from orbitcodes.cli import main

        argv = [a.replace("{workdir}", state["workdir"]) for a in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return rc, out.getvalue(), err.getvalue()
    from orbitcodes import Mat, Subspace, analyze

    u = Subspace(Mat(state["field"], op["rows"]))
    return analyze(u, state["ctx"])


def _summary(op: dict, raw) -> dict:
    if op["kind"] == "cli":
        rc, out, err = raw
        return {"rc": rc, "out": out, "err": err[-2000:]}
    return {"k": raw.k, "group_order": raw.group_order,
            "cardinality": raw.predicted_cardinality,
            "distance": raw.predicted_distance,
            "intersection_dim": raw.intersection_dim,
            "differences_total": raw.differences.total(), "spread": raw.spread}


def _run_pass(state: dict, ops: list[dict], tracer=None, first=None) -> dict:
    """One pass over the op list, with each op's latency and interval.

    Without ``first`` the pass keeps every output; given the outputs of a
    first pass, it keeps ``[index, output]`` of each output that differs."""
    latencies, starts, ends = array("d"), array("d"), array("d")
    outputs, changed = [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op["label"])
        start = perf_counter()
        try:
            raw = _run_op(state, op)
            output = None
        except Exception as exc:  # an op failure is counted, not fatal
            output = {"error": f"{type(exc).__name__}: {exc}"}
        end = perf_counter()
        latencies.append(end - start)
        starts.append(start)
        ends.append(end)
        output = output or _summary(op, raw)
        if first is None:
            outputs.append(output)
        elif output != first[index]:
            changed.append([index, output])
    one = {"latencies": latencies, "starts": starts, "ends": ends}
    if first is None:
        one["outputs"] = outputs
    else:
        one["changed"] = changed
    return one


def _json_pass(one: dict) -> dict:
    return {key: list(value) if isinstance(value, array) else value
            for key, value in one.items()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    start = perf_counter()
    state = _setup(job)
    end = perf_counter()
    result: dict = {"setup_s": end - start, "setup_start": start, "setup_end": end}
    ops = job["ops"]
    try:
        if job["mode"] == "run":
            begin = perf_counter()
            passes = [_run_pass(state, ops)]
            result["peak_rss_mb"] = _peak_rss_mb()
            first = passes[0]["outputs"]
            while perf_counter() - begin < job["seconds"]:
                passes.append(_run_pass(state, ops, first=first))
            result["passes"] = passes
        elif job["mode"] == "trace":
            untraced = _run_pass(state, ops)
            first = untraced["outputs"]
            counter = tracing.CallCounter()
            counter.install()
            try:
                count_pass = _run_pass(state, ops, first=first)
            finally:
                counter.remove()
            _teardown(state)
            spans = tracing.SpanTracer()
            spans.install()
            try:
                spans.begin_op("setup")
                state = _setup(job)
                span_pass = _run_pass(state, ops, spans, first=first)
            finally:
                spans.remove()
            spans.write(job["trace_stem"])
            result.update({
                "passes": [untraced, span_pass, count_pass],
                "span_totals": spans.totals(), "per_op": spans.per_op(),
                "counts": dict(spans.counts) | dict(counter.counts),
                "errors": dict(spans.errors + counter.errors)})
    finally:
        _teardown(state)
    result["passes"] = [_json_pass(one) for one in result.get("passes", [])]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
