"""Spans around the public functions of every bubblelattice module.

``install`` replaces each public function of the layers below, in every
bubblelattice namespace that holds it (``checks`` imports ``join`` by name,
for instance), with a wrapper that records a span: name, start, end and
parent span.  Spans live in compact arrays in memory and are written out
once, at the end of the run.  A few internals and methods are wrapped too,
because a per-layer metric is defined at them: ``posets._tables`` (the
table scan), ``FinitePoset.__init__`` (the closure), ``FinitePoset.from_leq``,
and ``ShuffleWord.__post_init__`` (a counter only, no span).

Self time of a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np

LAYERS = ("words", "bubble", "posets", "labeling", "galois", "hochschild", "checks", "exports", "cli")

# per-layer metric -> (kind, span names).  Kinds: "self" sums self time in
# seconds, "calls" counts spans, "us" is mean inclusive microseconds per call,
# "count" reads a counter kept at the boundary, "mb" a byte gauge in MB.
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "words.constructions": ("count", ("words.constructions",)),
    "words.y_fill_s": ("self", ("words.y_fill",)),
    "words.parse_s": ("self", ("words.parse_word", "words.make_word")),
    "words.render_s": ("self", ("words.word_text",)),
    "words.enumerate_s": ("self", ("words.enumerate_shuffle", "words.count_shuffle")),
    "bubble.join_calls": ("calls", ("bubble.join",)),
    "bubble.join_us": ("us", ("bubble.join",)),
    "bubble.meet_calls": ("calls", ("bubble.meet",)),
    "bubble.meet_us": ("us", ("bubble.meet",)),
    "bubble.leq_calls": ("calls", ("bubble.leq_bubble", "bubble.leq_shuffle")),
    "bubble.leq_us": ("us", ("bubble.leq_bubble", "bubble.leq_shuffle")),
    "bubble.builds": ("calls", ("bubble.build_bubble_lattice",)),
    "bubble.covers_s": ("self", ("bubble.upper_covers",)),
    "bubble.build_s": ("self", ("bubble.build_bubble_lattice", "bubble.build_shuffle_poset")),
    "posets.closure_s": ("self", ("posets.FinitePoset",)),
    "posets.tables_s": ("self", ("posets._tables", "posets.lattice_tables")),
    "posets.polygons_s": ("self", ("posets.polygonal_intervals",)),
    "posets.polygons": ("count", ("posets.polygons",)),
    "posets.kappa_s": ("self", ("posets.kappa", "posets.find_crown")),
    "posets.table_mb": ("mb", ("posets.table_bytes",)),
    "posets.from_leq_s": ("self", ("posets.FinitePoset.from_leq",)),
    "posets.from_leq_tests": ("count", ("posets.from_leq_tests",)),
    "posets.semidistributive_s": (
        "self",
        ("posets.is_semidistributive", "posets.is_join_semidistributive", "posets.is_meet_semidistributive"),
    ),
    "posets.trim_s": (
        "self",
        ("posets.is_trim", "posets.left_modular_chain", "posets.is_left_modular_element"),
    ),
    "posets.isomorphism_s": ("self", ("posets.is_isomorphic", "posets.is_anti_isomorphic")),
    "labeling.edge_labels_s": (
        "self",
        ("labeling.edge_labels", "labeling.lambda_bubble", "labeling.label_from_step"),
    ),
    "labeling.cu_s": (
        "self",
        ("labeling.verify_cu_labeling", "labeling.build_label_poset", "labeling.label_leq"),
    ),
    "labeling.fibers_s": ("self", ("labeling.check_cu_equals_jsd",)),
    "galois.order_s": ("self", ("galois.order_irreducibles",)),
    "galois.graph_s": (
        "self",
        ("galois.galois_graph", "galois.galois_graph_sd", "galois.bubble_galois_explicit"),
    ),
    "galois.mop_s": ("self", ("galois.max_orthogonal_pairs",)),
    "hochschild.lattice_s": ("self", ("hochschild.hochschild_lattice", "hochschild.enumerate_triwords")),
    "hochschild.iso_s": ("self", ("hochschild.verify_hochschild_iso", "hochschild.sigma_tilde")),
    "checks.order_s": (
        "self",
        (
            "checks.check_order_axioms",
            "checks.check_move_closure",
            "checks.check_shuffle_suborder",
            "checks.check_covers_by_reduction",
        ),
    ),
    "checks.lattice_s": (
        "self",
        (
            "checks.check_hasse_regular",
            "checks.check_extremal_counts",
            "checks.check_semidistributive_trim",
            "checks.check_same_support_distributive",
            "checks.check_yfill_closure",
            "checks.check_irreducibles_poset",
        ),
    ),
    "checks.labeling_s": ("self", ("checks.check_cu_labeling", "checks.check_labeling_fibers")),
    "checks.galois_s": ("self", ("checks.check_galois",)),
    "checks.hochschild_s": ("self", ("checks.check_hochschild",)),
    "checks.duality_s": ("self", ("checks.check_duality",)),
    "checks.crown_s": ("self", ("checks.check_crown",)),
    "checks.unique_joins_s": (
        "self",
        ("checks.check_unique_joins", "checks.bruteforce_minimal_upper_bounds"),
    ),
    "checks.pairs": ("count", ("checks.pairs",)),
    "exports.csv_s": (
        "self",
        ("exports.element_table_csv", "exports.sigma_table_csv", "exports.render_inversions"),
    ),
    "exports.dot_s": ("self", ("exports.hasse_dot",)),
    "cli.generate_s": ("self", ("cli.cmd_generate",)),
    "cli.label_s": ("self", ("cli.cmd_label",)),
    "cli.galois_s": ("self", ("cli.cmd_galois",)),
    "cli.hochschild_s": ("self", ("cli.cmd_hochschild",)),
}

UNITS = {"self": "s", "calls": "count", "us": "us", "count": "count", "mb": "MB"}
MB = 2**20


class Tracer:
    """Span recorder; records only while ``enabled`` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: dict[str, int] = {}
        self.stack = [-1]
        self.enabled = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        names, start, end, parent, stack = self.name, self.start, self.end, self.parent, self.stack
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    def mark(self) -> int:
        """Start a pass: reset the counters and return the next span index."""
        self.counters = {}
        return len(self.name)

    def metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans in [lo, hi) and the current counters."""
        k = len(self.names)
        nid = np.frombuffer(self.name, dtype=np.uint16)[lo:hi].astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        dur = (end - start).astype(np.float64)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=hi - lo)
        self_ns = np.bincount(nid, weights=dur - child, minlength=k)
        total_ns = np.bincount(nid, weights=dur, minlength=k)
        calls = np.bincount(nid, minlength=k)

        def pick(names, arr):
            return sum(float(arr[self._ids[x]]) for x in names if x in self._ids)

        out: dict[str, float] = {}
        for metric, (kind, names) in METRICS.items():
            if kind == "self":
                out[metric] = pick(names, self_ns) / 1e9
            elif kind == "calls":
                out[metric] = int(pick(names, calls))
            elif kind == "us":
                n = pick(names, calls)
                out[metric] = pick(names, total_ns) / n / 1e3 if n else 0.0
            elif kind == "count":
                out[metric] = int(sum(self.counters.get(x, 0) for x in names))
            else:
                out[metric] = sum(self.counters.get(x, 0) for x in names) / MB
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _count_polygons(counters, args, result):
    counters["posets.polygons"] = counters.get("posets.polygons", 0) + len(result)


def _table_bytes(counters, args, result):
    size = sum(t.nbytes for t in result)
    counters["posets.table_bytes"] = max(counters.get("posets.table_bytes", 0), size)


def _from_leq_tests(counters, args, result):
    n = args[1]
    counters["posets.from_leq_tests"] = counters.get("posets.from_leq_tests", 0) + n * n


def _unique_join_pairs(counters, args, result):
    n = len(args[0].words)
    counters["checks.pairs"] = counters.get("checks.pairs", 0) + n * (n + 1) // 2


AFTER = {
    "posets.polygonal_intervals": _count_polygons,
    "posets._tables": _table_bytes,
    "posets.FinitePoset.from_leq": _from_leq_tests,
    "checks.check_unique_joins": _unique_join_pairs,
}


def install(tracer: Tracer) -> int:
    """Wrap every public function of every layer; return how many were wrapped."""
    modules = {layer: importlib.import_module(f"bubblelattice.{layer}") for layer in LAYERS}
    posets, words = modules["posets"], modules["words"]
    wrappers: dict[Callable, Callable] = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                span = f"{layer}.{name}"
                wrappers[obj] = tracer.wrap(span, obj, AFTER.get(span))
    wrappers[posets._tables] = tracer.wrap("posets._tables", posets._tables, _table_bytes)

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bubblelattice" and not mod_name.startswith("bubblelattice."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])

    cls = posets.FinitePoset
    cls.__init__ = tracer.wrap("posets.FinitePoset", cls.__init__)
    from_leq = vars(cls)["from_leq"].__func__
    cls.from_leq = classmethod(
        tracer.wrap("posets.FinitePoset.from_leq", from_leq, AFTER["posets.FinitePoset.from_leq"])
    )

    post_init = words.ShuffleWord.__post_init__

    def counted_post_init(self):
        if tracer.enabled:
            tracer.counters["words.constructions"] = tracer.counters.get("words.constructions", 0) + 1
        post_init(self)

    words.ShuffleWord.__post_init__ = counted_post_init
    return len(wrappers) + 2
