"""Spans and counters around hesse_moore's public functions.

The tracer is installed in memory from outside the package and removed
afterwards; no file under src/ is touched.  Every public module-level
function of the span layers, and the public methods listed in
SPANNED_METHODS, is replaced by a wrapper that records a span.  Names
that other modules imported directly (``from .poly import
divide_by_cubic``) are rebound too, by identity.  FieldElement and
ProjectivePoint get plain call counters instead of spans: they run
millions of times, and a span each would swamp the run.

A span stack gives exact self time: a span's self time is its duration
minus the durations of the spans opened directly inside it.  Spans are
aggregated per name as they close; a function's inclusive time counts
only its outermost span, so recursion (``HesseCurve.mul`` of a negative
scalar) is not counted twice.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import types
from collections import Counter

SPAN_LAYERS = ("poly", "linalg", "moore", "hesse", "heisenberg", "ulrich", "ext", "verify", "cli")

SPANNED_METHODS = {
    ("poly", "HomForm"): ("evaluate", "__mul__"),
    ("moore", "FormMatrix"): ("__matmul__",),
    ("hesse", "HesseCurve"): None,  # every public method
}

COUNTED_METHODS = {
    ("field", "FieldElement"): ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "inv"),
    ("moore", "ProjectivePoint"): ("__init__",),
}

# verify.check_* stay unwrapped: run_all tests ``check in _PRIME_FILTERED``
# by identity, so they are timed by iterating ALL_CHECKS instead.
VERIFY_CHECKS = (
    "determinant_identity",
    "rank_lemma",
    "group_law",
    "torsion",
    "equivalence_classification",
    "conjugation_identities",
    "characters",
    "partner_lemma",
    "trace_lemma",
    "rank2_blocks",
    "ext_dimensions",
    "geometric_interpretations",
)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._depth: Counter = Counter()
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> tuple[list[int], int]:
        child = [0]
        self._stack.append(child)
        self._depth[name] += 1
        return child, time.perf_counter_ns()

    def exit(self, name: str, child: list[int], start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        self._stack.pop()
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_ns[name] += elapsed - child[0]
        if not self._depth[name]:
            self.total_ns[name] += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def _span(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child, start = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, child, start)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rref_stats(self, fn):
        """rref plus its input size, pivot count and whether ext_space called it."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a):
            out = fn(a)
            rows = len(a)
            counts["linalg.rref_rows"] += rows
            counts["linalg.rref_cells"] += rows * (len(a[0]) if rows else 0)
            counts["linalg.rref_pivots"] += len(out[1])
            if self.active("ext.ext_space"):
                counts["ext.rref_in_space"] += 1
            return out

        return wrapper

    # -- install / remove ----------------------------------------------

    def install(self, hm) -> None:
        """Wrap the package imported as ``hm`` (its submodules must be loaded)."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == hm.__name__ or name.startswith(hm.__name__ + ".")
        }
        prefix = hm.__name__ + "."
        replace: dict[int, object] = {}
        for layer in SPAN_LAYERS:
            mod = modules.get(prefix + layer)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") or (layer == "verify" and name.startswith("check_")):
                    continue
                inner = self._rref_stats(obj) if (layer, name) == ("linalg", "rref") else obj
                replace[id(obj)] = self._span(f"{layer}.{name}", inner)
        # rebind every module global that holds a wrapped function
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, name, replace[id(obj)])
        for (layer, cls_name), methods in SPANNED_METHODS.items():
            cls = getattr(modules[prefix + layer], cls_name)
            if methods is None:
                methods = [
                    n for n, v in vars(cls).items()
                    if not n.startswith("_") and isinstance(v, types.FunctionType)
                ]
            for m in methods:
                self._set(cls, m, self._span(f"{layer}.{cls_name}.{m}", vars(cls)[m]))
        for (layer, cls_name), methods in COUNTED_METHODS.items():
            cls = getattr(modules[prefix + layer], cls_name)
            for m in methods:
                self._set(cls, m, self._count(f"{cls_name}.{m}", vars(cls)[m]))
        verify = modules.get(prefix + "verify")
        if verify is not None:
            self._set(verify, "ALL_CHECKS", _SpannedChecks(self, verify.ALL_CHECKS))

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- metrics -------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, t, calls = self.counts, self.total_ns, self.calls

        def s(ns):
            return ns / 1e9

        def layer_self(layer):
            return s(sum(v for k, v in self.self_ns.items() if k.startswith(layer + ".")))

        rref_calls = calls["linalg.rref"]
        space_calls = calls["ext.ext_space"]
        out = {
            "field.elements_created": (c["FieldElement.__init__"], "count"),
            "field.mul_calls": (c["FieldElement.__mul__"], "count"),
            "field.addsub_calls": (
                c["FieldElement.__add__"] + c["FieldElement.__sub__"] + c["FieldElement.__neg__"],
                "count",
            ),
            "field.inv_calls": (c["FieldElement.inv"], "count"),
            "poly.evaluate_calls": (calls["poly.HomForm.evaluate"], "count"),
            "poly.evaluate_s": (s(t["poly.HomForm.evaluate"]), "s"),
            "poly.divide_calls": (calls["poly.divide"], "count"),
            "poly.divide_s": (s(t["poly.divide"]), "s"),
            "poly.form_mul_calls": (calls["poly.HomForm.__mul__"], "count"),
            "poly.self_s": (layer_self("poly"), "s"),
            "linalg.rref_calls": (rref_calls, "count"),
            "linalg.rref_cells": (c["linalg.rref_cells"], "count"),
            "linalg.rank_ratio": (
                c["linalg.rref_pivots"] / c["linalg.rref_rows"] if c["linalg.rref_rows"] else 0.0,
                "ratio",
            ),
            "linalg.rref_s": (s(t["linalg.rref"]), "s"),
            "moore.kernel_calls": (calls["moore.left_kernel_point"], "count"),
            "moore.kernel_s": (s(t["moore.left_kernel_point"]), "s"),
            "moore.matmul_calls": (calls["moore.FormMatrix.__matmul__"], "count"),
            "moore.matmul_s": (s(t["moore.FormMatrix.__matmul__"]), "s"),
            "moore.points_created": (c["ProjectivePoint.__init__"], "count"),
            "moore.self_s": (layer_self("moore"), "s"),
            "hesse.add_calls": (calls["hesse.HesseCurve.add"], "count"),
            "hesse.add_s": (s(t["hesse.HesseCurve.add"]), "s"),
            "hesse.mul_s": (s(t["hesse.HesseCurve.mul"]), "s"),
            "hesse.contains_calls": (calls["hesse.HesseCurve.contains"], "count"),
            "hesse.enumerate_calls": (calls["hesse.HesseCurve.enumerate_points"], "count"),
            "hesse.enumerate_s": (s(t["hesse.HesseCurve.enumerate_points"]), "s"),
            "heisenberg.invariants_s": (s(t["heisenberg.trace_invariants"]), "s"),
            "heisenberg.orbit_s": (s(t["heisenberg.orbit"]), "s"),
            "ulrich.factorization_calls": (calls["ulrich.moore_factorization"], "count"),
            "ulrich.factorization_s": (s(t["ulrich.moore_factorization"]), "s"),
            "ulrich.partner_s": (s(t["ulrich.partner_D"]), "s"),
            "ulrich.criterion_s": (s(t["ulrich.trace_criterion"]), "s"),
            "ext.space_calls": (space_calls, "count"),
            "ext.space_s": (s(t["ext.ext_space"]), "s"),
            "ext.rref_per_space": (
                c["ext.rref_in_space"] / space_calls if space_calls else 0.0,
                "count",
            ),
            "cli.main_s": (s(t["cli.main"]), "s"),
        }
        for check in VERIFY_CHECKS:
            out[f"verify.{check}_s"] = (s(t[f"verify.{check}"]), "s")
        return out


class _SpannedChecks(list):
    """ALL_CHECKS with the same entries; iterating it spans each check."""

    def __init__(self, tracer: Tracer, checks):
        super().__init__(checks)
        self._tracer = tracer

    def __iter__(self):
        for check in list.__iter__(self):
            name = "verify." + check.__name__.removeprefix("check_")
            child, start = self._tracer.enter(name)
            try:
                yield check
            finally:
                self._tracer.exit(name, child, start)


class GcMonitor:
    """Counts garbage collections and the time spent in them."""

    def __init__(self):
        self.collections = 0
        self.ns = 0
        self._start = 0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
