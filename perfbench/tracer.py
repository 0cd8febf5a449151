"""Outside-in span tracer for percospec's public layer functions.

The library is not instrumented, so the tracer wraps functions from the
outside: for each traced name it replaces every module attribute in the
``percospec`` package that holds the original function object.  That
matters because modules import each other's functions by name
(``spectra`` holds its own ``subgraph_laplacian``, ``restrict``,
``sample``, ``enumerate_ball`` and ``tetrahedron``; ``bounds`` holds its
own ``enumerate_ball``), so patching only the defining module would miss
most calls.

Each call becomes a span (name, start, end, parent).  A span's self time
is its duration minus the part of it covered by its child spans.  Layer
counters (vertices, operator nonzeros, component sizes, ...) are computed
from the arguments and results after the span has closed, inside a
``trace.counters`` span, so their cost never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

PACKAGE = "percospec"

# Traced functions, as "<module>.<function>" relative to PACKAGE.
TRACED = (
    "cayley.enumerate_ball",
    "cayley.tetrahedron",
    "percolation.sample",
    "operators.subgraph_laplacian",
    "operators.restrict",
    "spectra.empirical_ids",
    "spectra.block_eigenvalues",
    "spectra.return_probability",
    "bounds.tetrahedron_checks",
)

COUNTER_SPAN = "trace.counters"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Trace:
    """Spans in call order plus the counters gathered at layer boundaries."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    sample_indices: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


def self_times(spans) -> dict:
    """Per-name totals: {"calls", "total_s", "self_s"}.

    A child span always lies inside its parent's interval (calls nest), so
    the covered part of a parent is the sum of its direct children.
    """
    child_sum = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_sum[span.parent] += span.end - span.start
    out: dict = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        dur = span.end - span.start
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_sum[i]
    return out


def covered_s(spans) -> float:
    """Wall time inside top-level layer spans."""
    return sum(s.end - s.start for s in spans
               if s.parent is None and s.name != COUNTER_SPAN)


def _count(trace: Trace, name: str, args, kwargs, result) -> None:
    """Layer counters, computed from a traced call's inputs and result."""
    if name == "cayley.enumerate_ball":
        trace.add("cayley.vertices", len(result))
        trace.add("cayley.edges", len(result.edges))
    elif name == "percolation.sample":
        trace.sample_indices.append(result.sample_index)
    elif name in ("operators.subgraph_laplacian", "operators.restrict"):
        trace.add("operators.nnz", int(result.matrix.nnz))
    elif name == "spectra.block_eigenvalues":
        op = args[0] if args else kwargs["op"]
        if op.dim == 0:
            return
        ncomp, labels = csgraph.connected_components(op.matrix, directed=False)
        sizes = np.bincount(labels).astype(np.int64)
        trace.add("spectra.components", int(ncomp))
        trace.maximum("spectra.largest_component", int(sizes.max()))
        trace.add("spectra.dense_flops_computed", int(np.sum(sizes ** 3)))


def _wrap(trace: Trace, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = trace.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            trace.close(idx)
        cidx = trace.open(COUNTER_SPAN)
        try:
            _count(trace, name, args, kwargs, result)
        finally:
            trace.close(cidx)
        return result

    traced.__wrapped_by_perfbench__ = True
    return traced


def _package_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


@contextmanager
def installed(trace: Trace):
    """Wrap every namespace binding of the traced functions; undo on exit."""
    patches = []
    try:
        for dotted in TRACED:
            mod_name, attr = dotted.rsplit(".", 1)
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
            wrapper = _wrap(trace, dotted, original)
            for mod in _package_modules():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, original))
        yield trace
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


def leftover_wrappers() -> list:
    """Module attributes that still hold a tracer wrapper (should be none)."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items()
            if getattr(value, "__wrapped_by_perfbench__", False)]


def layer_report(trace: Trace, wall_s: float, names=TRACED) -> dict:
    """Self times, call counts and counters of one traced run.

    Wrapped functions that were never called are listed under
    ``unmeasured`` and get no entry, so a missing hook cannot read as 0 s.
    """
    rows = self_times(trace.spans)
    report = {"wall_s": wall_s, "spans": rows, "counters": dict(trace.counters),
              "unmeasured": [n for n in names if n not in rows]}
    if trace.sample_indices:
        report["counters"]["percolation.redraw_ratio"] = (
            len(trace.sample_indices) / len(set(trace.sample_indices)))
    total_self = sum(row["self_s"] for row in rows.values())
    report["counters"]["cli.other_s"] = wall_s - total_self
    report["covered_share"] = covered_s(trace.spans) / wall_s if wall_s > 0 else 0.0
    return report
