"""orbitcodes benchmark: seeded workloads, checked outputs, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list-metrics

Each workload runs in its own worker process (worker.py) as a closed loop:
one client, one thread, each op issued when the previous one returns.  A
probe process (hostprobe.py) samples the host's speed beside it.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run (tracer.py).  Every metric is
printed by name with its unit, the environment and the op-list digest are
recorded in ``.perfbench/results/``, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads
from hostprobe import HOST_REFERENCE_S, HOST_WINDOW_S
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
#: Every worker of one run must end this many seconds after the run starts.
RUN_DEADLINE_S = 170

# name, unit, meaning.  Times are host-scaled: see host_scale().
END_TO_END = [
    ("setup_s", "s", f"import plus one-time construction; median of {SETUP_SAMPLES} "
                     "fresh processes; host-scaled"),
    ("wall_s", "s", "time to finish the op list once; median over passes; host-scaled"),
    ("op_p50_ms", "ms", "median per-op latency, all passes pooled; host-scaled"),
    ("op_p90_ms", "ms", "90th percentile per-op latency, all passes pooled; host-scaled"),
    ("peak_rss_mb", "MB", "max RSS of the worker process through set-up and its "
                          "first pass of the op list"),
]

# Span stems reported as <stem>_calls and <stem>_s (self time).
SPAN_METRICS = [
    "polyring.is_irreducible", "polyring.order_of_polynomial", "polyring.poly_powmod",
    "matspace.rref", "matspace.matmul", "matspace.matrix_order",
    "matspace.subspace_apply", "matspace.subspace_distance", "matspace.subspace_new",
    "fieldmap.context_build", "fieldmap.exponent_profile", "fieldmap.orbit_partition",
    "orbitcode.min_distance_brute", "orbitcode.generate_orbit", "orbitcode.predict",
]
SELF_ONLY = ["polyring.list_irreducibles", "orbitcode.verify_report",
             "orbitcode.build_spread_start", "orbitcode.format_code",
             "orbitcode.parse_code"]
COUNTS = ["gfq.mul_calls.l0", "gfq.mul_calls.l1", "gfq.mul_calls.l2",
          "gfq.addsub_calls", "gfq.bool_calls", "gfq.pow_calls", "gfq.from_index_calls",
          "fieldmap.phi_calls", "fieldmap.dlog_calls",
          "orbitcode.oracle_pairs", "orbitcode.orbit_words", "orbitcode.group_steps"]

# ROADMAP baseline rows (single runs, Python 3.11.7, 2 cores): metric name,
# workload, op label, span, seconds at the re-anchor.
BASELINES = [
    ("baseline.matrix_order_n10_ratio", "verify-ladder", "spread q=2 n=10 k=2",
     "matspace.matrix_order", 0.49),
    ("baseline.matrix_order_n12_ratio", "verify-ladder", "spread q=2 n=12 k=6",
     "matspace.matrix_order", 2.3),
    ("baseline.min_distance_brute_n8_ratio", "verify-ladder", "spread q=2 n=8 k=2",
     "orbitcode.min_distance_brute", 0.49),
    ("baseline.min_distance_brute_n10_ratio", "verify-ladder", "spread q=2 n=10 k=2",
     "orbitcode.min_distance_brute", 7.0),
    ("baseline.context_build_n16_ratio", "predict-sweep", "setup",
     "fieldmap.context_build", 4.6),
]


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    out = []
    for stem in SPAN_METRICS:
        out.append((f"{stem}_calls", "count", "calls of the wrapped function"))
        out.append((f"{stem}_s", "s", "self time: spans minus their child spans"))
    out += [(f"{stem}_s", "s", "self time: spans minus their child spans")
            for stem in SELF_ONLY]
    out += [(name, "count", "calls or work items in one pass of the ops, set-up "
                            "excluded") for name in COUNTS]
    out.append(("orbitcode.orbit_words_per_group_step", "1",
                "orbit codewords / ord(P) steps walked by matrix_order"))
    out += [("cli.main_calls", "count", "in-process CLI calls"),
            ("cli.main_self_s", "s", "argument parsing, rendering and file I/O")]
    out += [(f"{layer}.errors", "count", "exceptions leaving wrapped calls")
            for layer in LAYERS]
    out += [("trace.overhead_ratio", "1", "span pass / untraced pass, host-scaled wall_s"),
            ("failed_ratio", "1", "failed ops / attempted ops, all passes")]
    out += [(name, "1", f"{span} in '{label}' ({workload}) / {base} s at the "
                        "ROADMAP re-anchor; 0 on other workloads")
            for name, workload, label, span, base in BASELINES]
    return out


def host_scale(samples: dict, start: float, end: float) -> float:
    """HOST_REFERENCE_S over the median host sample taken in
    [start - HOST_WINDOW_S, end + HOST_WINDOW_S].

    Multiplying a time by this factor states it at the reference speed
    (hostprobe.py says why); the raw times are printed beside the scaled
    ones and kept in the results file."""
    at, took = samples["at"], samples["took"]
    window = took[bisect.bisect_left(at, start - HOST_WINDOW_S):
                  bisect.bisect_right(at, end + HOST_WINDOW_S)]
    if not window:
        raise RuntimeError("no host speed samples around a timed interval")
    return HOST_REFERENCE_S / statistics.median(window)


def scaled(samples, times, starts, ends):
    """Times of intervals, each scaled by its host_scale(); unscaled if
    samples is None."""
    if samples is None:
        return list(times)
    return [t * host_scale(samples, a, b) for t, a, b in zip(times, starts, ends)]


def pass_latencies(run, samples):
    return [scaled(samples, p["latencies"], p["starts"], p["ends"])
            for p in run["passes"]]


def end_to_end_metrics(setups, run, samples):
    """End-to-end metrics from the set-up workers and the run, host-scaled
    by the probe's samples, or raw if samples is None."""
    passes = pass_latencies(run, samples)
    latencies = [t for p in passes for t in p]
    setup = [scaled(samples, [r["setup_s"]], [r["setup_start"]], [r["setup_end"]])[0]
             for r in setups]
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(sum(p) for p in passes), len(passes)),
        "op_p50_ms": (statistics.median(latencies) * 1000, len(latencies)),
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
                      len(latencies)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit, _ in END_TO_END}


def per_layer_metrics(workload, run, samples, failed, attempted):
    totals, counts, errors = run["span_totals"], run["counts"], run["errors"]
    untraced, span_pass, _ = (sum(p) for p in pass_latencies(run, samples))
    value: dict[str, float] = {}
    for stem in SPAN_METRICS:
        row = totals.get(stem, {})
        value[f"{stem}_calls"] = row.get("calls", 0)
        value[f"{stem}_s"] = row.get("self_s", 0.0)
    for stem in SELF_ONLY:
        value[f"{stem}_s"] = totals.get(stem, {}).get("self_s", 0.0)
    for name in COUNTS:
        value[name] = counts.get(name, 0)
    steps = counts.get("orbitcode.group_steps", 0)
    value["orbitcode.orbit_words_per_group_step"] = (
        counts.get("orbitcode.orbit_words", 0) / steps if steps else 0.0)
    main = totals.get("cli.main", {})
    value["cli.main_calls"] = main.get("calls", 0)
    value["cli.main_self_s"] = main.get("self_s", 0.0)
    for layer in LAYERS:
        value[f"{layer}.errors"] = errors.get(layer, 0)
    value["trace.overhead_ratio"] = span_pass / untraced
    value["failed_ratio"] = failed / attempted
    for name, where, label, span, base in BASELINES:
        row = run["per_op"].get(label, {}).get(span) if where == workload else None
        value[name] = row["total_s"] / base if row else 0.0
    return {name: (value[name], unit, 1) for name, unit, _ in per_layer_catalogue()}


def environment(root: Path, seed: int, digest: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "orbitcodes").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "git_commit": _git_commit(root),
            "source_sha256": source.hexdigest(), "seed": seed, "ops_sha256": digest}


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git; "none" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def spawn(job: dict, scratch: Path, root: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    fd, job_path = tempfile.mkstemp(prefix="job-", suffix=".json", dir=scratch)
    result_path = job_path[:-len(".json")] + ".result.json"
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), job_path,
                               result_path], cwd=root, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        for path in (job_path, result_path):
            if os.path.exists(path):
                os.remove(path)


@contextlib.contextmanager
def host_probe():
    """Runs hostprobe.py for the duration of the block, plus HOST_WINDOW_S
    before and after it; its samples land in the yielded dict."""
    samples: dict = {}
    probe = subprocess.Popen([sys.executable, str(HERE / "hostprobe.py")],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        time.sleep(HOST_WINDOW_S)
        yield samples
        time.sleep(HOST_WINDOW_S)
    finally:
        out, _ = probe.communicate()  # closing its input stops the probe
    samples.update(json.loads(out))


def check_passes(ops, passes):
    """Failure reasons, one per failed op of every pass.

    The first pass holds every output; a later pass holds only the outputs
    that differ from the first, and an unchanged output gets the first
    pass's verdict."""
    checker = checks.Checker()
    first = [checker.check_op(op, output)
             for op, output in zip(ops, passes[0]["outputs"], strict=True)]
    failures = []
    for number, one in enumerate(passes):
        reasons = list(first)
        for index, output in one.get("changed", []):
            reasons[index] = checker.check_op(ops[index], output)
        failures += [f"pass {number} op {op['id']} ({op['label']}): {reason}"
                     for op, reason in zip(ops, reasons) if reason]
    return failures


def print_table(metrics) -> None:
    print(f"{'metric':42} {'value':>16} {'unit':>6} {'samples':>8}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:42} {value:16.6g} {unit:>6} {samples:8d}")


def print_breakdown(per_op) -> None:
    """Per op label: the spans with the most self time."""
    for label, spans in per_op.items():
        top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:4]
        cells = ", ".join(f"{span} {row['calls']}x total {row['total_s']:.4f}s "
                          f"self {row['self_s']:.4f}s" for span, row in top)
        print(f"# op '{label}': {cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and meaning, then exit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        for group, rows in (("end-to-end (--trace 0)", END_TO_END),
                            ("per-layer (--trace 1)", per_layer_catalogue())):
            print(f"# {group}")
            for name, unit, meaning in rows:
                print(f"{name:42} {unit:>6}  {meaning}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    package = root / "src" / "orbitcodes"
    if not (package / "__init__.py").is_file():
        print(f"error: no orbitcodes sources under {package}; run from the "
              "root of a checkout", file=sys.stderr)
        return 1
    compileall.compile_dir(str(package), quiet=1)
    scratch = root / ".perfbench"
    (scratch / "results").mkdir(parents=True, exist_ok=True)

    # Job files and workload directories of this run; a killed worker
    # leaves its own behind, so the whole directory goes at the end.
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        return measure(args, root, scratch, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, scratch: Path, work: Path) -> int:
    """Run the workload, check and print its results."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.make_ops(args.workload, args.seed)
    digest = workloads.digest(ops)
    job = {"workload": args.workload, "ops": ops, "src": str(root / "src"),
           "scratch": str(work), "seconds": args.seconds,
           "setup_modulus": workloads.SETUP_MODULUS.get(args.workload),
           "trace_stem": str(scratch / "results" / f"{tag}.spans")}
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        with host_probe() as samples:
            if args.trace:
                run = spawn(dict(job, mode="trace"), work, root, deadline)
            else:
                setups = [spawn(dict(job, mode="setup"), work, root, deadline)
                          for _ in range(SETUP_SAMPLES - 1)]
                run = spawn(dict(job, mode="run"), work, root, deadline)
                setups.append(run)
    except subprocess.TimeoutExpired:
        # Too slow to measure within the run's time limit: a failed run,
        # reported as such rather than as a crash.
        print(f"# FAILED a worker did not finish within {RUN_DEADLINE_S} s of "
              "the start of the run")
        print(json.dumps({"correct": False, "attempted": len(ops),
                          "failed": len(ops), "metrics": {}}))
        return 0

    failures = check_passes(ops, run["passes"])
    attempted = len(ops) * len(run["passes"])
    if args.trace:
        metrics = per_layer_metrics(args.workload, run, samples, len(failures), attempted)
    else:
        metrics = end_to_end_metrics(setups, run, samples)
        raw = end_to_end_metrics(setups, run, None)
    env = environment(root, args.seed, digest)

    print(f"# workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"# {len(ops)} ops per pass, {len(run['passes'])} passes, "
          f"ops sha256 {digest}")
    print("# env " + json.dumps(env))
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    if args.trace:
        print_breakdown(run["per_op"])
    print_table(metrics)
    if not args.trace:
        # Unscaled times, the cross-check of the host scaling.
        print_table({f"raw.{k}": v for k, v in raw.items()})
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "attempted": attempted, "failed": len(failures), "failures": failures,
              "metrics": {name: {"value": v, "unit": u, "samples": s}
                          for name, (v, u, s) in metrics.items()}}
    if args.trace:
        record["per_op"] = run["per_op"]
    else:
        record["raw_metrics"] = {name: {"value": v, "unit": u, "samples": s}
                                 for name, (v, u, s) in raw.items()}
    with open(scratch / "results" / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": v, "unit": u}
                                  for name, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
