"""Per-layer tracing of orbitcodes from outside the package.

Two instruments, installed one at a time and removed afterwards:

* ``SpanTracer`` wraps public functions and methods of ``polyring``,
  ``matspace``, ``fieldmap``, ``orbitcode`` and ``cli`` and records one span
  per call: name, op id, parent span, start and end (``perf_counter_ns``).
  Spans stay in memory in flat arrays; self time (a span minus its child
  spans) is computed as each span closes.
* ``CallCounter`` counts calls of ``gfq`` element operations and of
  ``ExtensionContext.phi``/``dlog``.  These run millions of times, and a
  span costs more than the operation, so they get counts only.

Each wrapper replaces every binding callers use: the module attribute, the
names other modules imported with ``from ... import``, and class methods.
Both instruments count the exceptions that leave a wrapped call, per layer.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("gfq", "polyring", "matspace", "fieldmap", "orbitcode", "cli")
PACKAGE_MODULES = ("orbitcodes", "orbitcodes.gfq", "orbitcodes.polyring",
                   "orbitcodes.matspace", "orbitcodes.fieldmap",
                   "orbitcodes.orbitcode", "orbitcodes.cli")

# (layer, owner, attribute, span name).  Owner is a module, or
# "module:Class" for a method.  Generators are left out: a span around one
# would end before the work it yields.
SPAN_TARGETS = [
    *[("polyring", "orbitcodes.polyring", f, f"polyring.{f}") for f in (
        "parse_poly", "format_poly", "poly_gcd", "poly_powmod", "is_irreducible",
        "order_of_polynomial", "is_primitive", "companion_matrix",
        "list_irreducibles")],
    ("matspace", "orbitcodes.matspace:Mat", "rref", "matspace.rref"),
    ("matspace", "orbitcodes.matspace:Mat", "__mul__", "matspace.matmul"),
    ("matspace", "orbitcodes.matspace:Mat", "__pow__", "matspace.matpow"),
    ("matspace", "orbitcodes.matspace:Mat", "inverse", "matspace.inverse"),
    ("matspace", "orbitcodes.matspace:Subspace", "__init__", "matspace.subspace_new"),
    *[("matspace", "orbitcodes.matspace", f, f"matspace.{f}") for f in (
        "matrix_order", "subspace_apply", "subspace_distance", "intersection_dim",
        "row_times_mat", "vector_from_index", "char_poly", "is_irreducible_matrix",
        "to_companion_similarity", "groups_conjugate", "format_matrix",
        "parse_matrix", "parse_matrix_blocks")],
    ("fieldmap", "orbitcodes.fieldmap:ExtensionContext", "__init__",
     "fieldmap.context_build"),
    ("fieldmap", "orbitcodes.fieldmap:ExtensionContext", "exponent_profile",
     "fieldmap.exponent_profile"),
    ("fieldmap", "orbitcodes.fieldmap:ExtensionContext", "orbit_partition",
     "fieldmap.orbit_partition"),
    *[("orbitcode", "orbitcodes.orbitcode", f, f"orbitcode.{f}") for f in (
        "generate_orbit", "min_distance_brute", "min_distance_orbit",
        "build_spread_start", "check_sidon_condition", "find_sidon_subspace",
        "analyze", "verify_report", "conjugate_code", "format_code", "parse_code")],
    ("orbitcode", "orbitcodes.orbitcode", "predict_primitive", "orbitcode.predict"),
    ("orbitcode", "orbitcodes.orbitcode", "analyze_nonprimitive", "orbitcode.predict"),
    ("cli", "orbitcodes.cli", "main", "cli.main"),
]

# (layer, owner, attribute, counter name or per-level counter names).
COUNT_TARGETS = [
    ("gfq", "orbitcodes.gfq:FieldElement", "__mul__",
     ("gfq.mul_calls.l0", "gfq.mul_calls.l1", "gfq.mul_calls.l2")),
    ("gfq", "orbitcodes.gfq:FieldElement", "__add__", "gfq.addsub_calls"),
    ("gfq", "orbitcodes.gfq:FieldElement", "__sub__", "gfq.addsub_calls"),
    ("gfq", "orbitcodes.gfq:FieldElement", "__bool__", "gfq.bool_calls"),
    ("gfq", "orbitcodes.gfq:FieldElement", "__pow__", "gfq.pow_calls"),
    ("gfq", "orbitcodes.gfq:FieldSpec", "from_index", "gfq.from_index_calls"),
    ("fieldmap", "orbitcodes.fieldmap:ExtensionContext", "phi", "fieldmap.phi_calls"),
    ("fieldmap", "orbitcodes.fieldmap:ExtensionContext", "dlog", "fieldmap.dlog_calls"),
]


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    obj = sys.modules[module_name]
    return getattr(obj, cls) if cls else obj


class _Patcher:
    """Replaces callables at every binding and restores them on removal."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: str, attr: str, make_wrapper):
        holder = _resolve(owner)
        original = holder.__dict__[attr]
        wrapper = make_wrapper(original)
        self._set(holder, attr, wrapper)
        if ":" not in owner:
            for name in PACKAGE_MODULES:
                module = sys.modules.get(name)
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def remove(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)


class SpanTracer:
    """Records one span per wrapped call and the counts derived from them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.ops: list[str] = []
        self.op = -1
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self._stack: list[int] = []
        self._child: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._patcher = _Patcher()

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        self.self_ns.append(0)
        self._stack.append(idx)
        self._child.append(0)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        now = perf_counter_ns()
        self._stack.pop()
        duration = now - self.start[idx]
        self.end[idx] = now
        self.self_ns[idx] = duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    def _wrap(self, fn, span: str, layer: str, after=None):
        nid = self._name_id.setdefault(span, len(self._name_id))
        if nid == len(self.names):
            self.names.append(span)
        errors = self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after(self, span: str):
        counts = self.counts
        if span == "orbitcode.generate_orbit":
            def after(_args, code):
                counts["orbitcode.orbit_words"] += len(code)
                counts["orbitcode.group_steps"] += code.generator_order
            return after
        if span == "orbitcode.min_distance_brute":
            def after(args, _result):
                words = len(args[0])
                counts["orbitcode.oracle_pairs"] += words * (words - 1) // 2
            return after
        return None

    def install(self) -> None:
        for layer, owner, attr, span in SPAN_TARGETS:
            self._patcher.replace(owner, attr, lambda fn, span=span, layer=layer:
                                  self._wrap(fn, span, layer, self._after(span)))

    def remove(self) -> None:
        self._patcher.remove()

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        return self._aggregate(lambda i: self.names[self.name[i]])

    def per_op(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per op label and span name: calls, total and self seconds.

        Ops that share a label (the same kind of op) are summed."""
        out: dict[str, dict[str, dict[str, float]]] = {}
        for (label, span), row in self._aggregate(
                lambda i: (self.ops[self.op_of[i]], self.names[self.name[i]])).items():
            out.setdefault(label, {})[span] = row
        return out

    def _aggregate(self, key_of):
        acc: dict = {}
        for i in range(len(self.start)):
            row = acc.setdefault(key_of(i), [0, 0, 0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += self.self_ns[i]
        return {k: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                for k, (c, t, s) in acc.items()}

    def write(self, stem: str) -> None:
        """Spans as raw int arrays in ``stem.bin``, described by ``stem.json``."""
        columns = [("name", self.name), ("parent", self.parent), ("op", self.op_of),
                   ("start_ns", self.start), ("end_ns", self.end),
                   ("self_ns", self.self_ns)]
        with open(stem + ".bin", "wb") as handle:
            for _, col in columns:
                col.tofile(handle)
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump({"spans": len(self.start), "names": self.names, "ops": self.ops,
                       "columns": [[c, a.typecode, a.itemsize] for c, a in columns]},
                      handle, indent=1)


class CallCounter:
    """Counts calls of cheap, hot operations; no timing."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._patcher = _Patcher()

    def _wrap(self, fn, key, layer):
        counts, errors = self.counts, self.errors
        if isinstance(key, tuple):
            @functools.wraps(fn)
            def by_level(elem, *args):
                counts[key[elem.field.level]] += 1
                try:
                    return fn(elem, *args)
                except Exception:
                    errors[layer] += 1
                    raise
            return by_level

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
        return wrapper

    def install(self) -> None:
        for layer, owner, attr, key in COUNT_TARGETS:
            self._patcher.replace(owner, attr, lambda fn, key=key, layer=layer:
                                  self._wrap(fn, key, layer))

    def remove(self) -> None:
        self._patcher.remove()
