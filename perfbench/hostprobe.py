"""Samples the host's speed from a process of its own.

Usage: python3 perfbench/hostprobe.py

Every HOST_SAMPLE_PERIOD_S it times ``spin()``, a fixed pure-Python loop,
and keeps the time it started (``perf_counter``, which is CLOCK_MONOTONIC on
Linux and so shared by all processes) and the seconds it took.  When its
standard input closes it prints the samples as one JSON object
``{"at": [...], "took": [...]}`` and exits.

run.py starts it before the first worker and stops it after the last, and
scales each timed interval of a worker by the samples taken around it.  The
machine's effective speed drifts by tens of percent within a minute, as
other tenants load the shared cores, and that drift would swamp the changes
the benchmark is meant to show.  The probe runs beside the worker rather
than inside it, so the code under test cannot change what it reads: not by
the cache or allocator state an op leaves, and not by delaying a sample.
It takes about 1% of one core, so it assumes the program under test uses
one core; a program that used every core would slow the probe itself.
"""

from __future__ import annotations

import json
import select
import sys
from array import array
from time import perf_counter

#: Wall-clock period of the samples, and iterations of one sample.
HOST_SAMPLE_PERIOD_S = 0.025
HOST_SAMPLE_ITERATIONS = 4000
#: Time of spin() on a quiet host (Intel Xeon, 2 vCPUs, Python 3.11.7):
#: run.py states times at this speed, from the samples taken within
#: HOST_WINDOW_S of each timed interval.
HOST_REFERENCE_S = 0.0002
HOST_WINDOW_S = 0.25
_SPIN_TABLE = {i: i * 7 % 13 for i in range(256)}


def spin() -> float:
    """Seconds a fixed pure-Python loop of dict and int work takes now."""
    table = _SPIN_TABLE
    acc = 0
    start = perf_counter()
    for i in range(HOST_SAMPLE_ITERATIONS):
        acc += table[i & 255]
    return perf_counter() - start


def main() -> int:
    at, took = array("d"), array("d")
    while not select.select([sys.stdin], [], [], HOST_SAMPLE_PERIOD_S)[0]:
        at.append(perf_counter())
        took.append(spin())
    json.dump({"at": list(at), "took": list(took)}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
