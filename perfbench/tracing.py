"""Outside-in tracing of the dirac_reduce layers.

``Tracer.install`` wraps the public functions listed below by replacing
module attributes in the running process: the defining module's attribute
and every name another ``dirac_reduce`` module bound to the same function
with ``from ... import`` (``reduction.isotropy``,
``scenario.haar_average_section``, ...).  Nothing under ``src/`` changes.

A span records (id, name, start, end, parent id, thread id).  The shipped
runner reduces points on a thread pool, so each thread keeps its own span
stack; a span opened on a pool thread with an empty stack takes the span
open on the main thread (``run_scenario``) as its parent.  Spans stay in
memory until ``write``.  ``layer_metrics`` derives busy and self times,
call counts and latency percentiles from them.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, function): one span per call.
FUNCTION_SPANS = [
    ("scenario.load", "scenario", "load_scenario"),
    ("scenario.run_scenario", "scenario", "run_scenario"),
    ("scenario.emit", "scenario", "emit_report"),
    ("reduction.reduce_point", "reduction", "reduce_point"),
    ("reduction.restrict_to_stratum", "reduction", "restrict_to_stratum"),
    ("reduction.route_a", "reduction", "reduce_isotropy_route"),
    ("reduction.route_b", "reduction", "reduce_orbit_route"),
    ("action.isotropy", "action", "isotropy"),
    ("action.fixed_subspace", "action", "fixed_subspace"),
    ("action.vertical_space", "action", "vertical_space"),
    ("action.average_projector", "action", "average_projector"),
    ("action.validate_action", "action", "validate_action"),
    ("action.haar_average_section", "action", "haar_average_section"),
    ("polyfield.evaluate_at", "polyfield", "evaluate_at"),
    ("polyfield.courant_bracket", "polyfield", "courant_bracket"),
    ("polyfield.integrability_check", "polyfield", "integrability_check"),
    ("polyfield.infinitesimal_invariance", "polyfield", "infinitesimal_invariance"),
    ("poly.parse_poly", "poly", "parse_poly"),
    ("lindirac.backward_image", "lindirac", "backward_image"),
    ("lindirac.forward_image", "lindirac", "forward_image"),
    ("lindirac.transform", "lindirac", "transform"),
]
# (span name, module, class, method): one span per call.
METHOD_SPANS = [("subspace.construct", "subspace", "Subspace", "__post_init__")]
# (counter name, module, class, method): calls too frequent for a span each.
METHOD_COUNTS = [
    ("poly.mul", "poly", "Poly", "__mul__"),
    ("poly.evaluate", "poly", "Poly", "evaluate"),
    ("subspace.intersect", "subspace", "Subspace", "intersect"),
]
SVD_SPAN = "subspace.svd"


def svd_flops(shape, full_matrices=True, compute_uv=True) -> float:
    """Operation count of an SVD, computed from the matrix shape with the
    Golub-Van Loan R-SVD counts (m >= n): singular values only
    4mn^2 - 4n^3/3; thin U and V 6mn^2 + 20n^3; full U 4m^2n + 22n^3."""
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n**3 / 3
    if full_matrices:
        return 4.0 * m * m * n + 22.0 * n**3
    return 6.0 * m * n * n + 20.0 * n**3


class _TracedLinalg:
    """numpy.linalg with ``svd`` traced; everything else passes through."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def svd(self, a, full_matrices=True, compute_uv=True, **kwargs):
        a = np.asarray(a)
        self._tracer.add_flops(svd_flops(a.shape, full_matrices, compute_uv))
        return self._tracer.call(
            SVD_SPAN, np.linalg.svd, a, full_matrices=full_matrices,
            compute_uv=compute_uv, **kwargs,
        )


class _TracedNumpy:
    """numpy with ``linalg`` replaced; handed to the subspace module only."""

    def __init__(self, tracer):
        self.linalg = _TracedLinalg(tracer)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread id)
        self.counts = defaultdict(int)
        self.flops = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def count(self, name):
        with self._lock:
            self.counts[name] += 1

    def add_flops(self, flops):
        with self._lock:
            self.flops += flops

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _count_wrapper(self, name, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every listed layer boundary.  Call after importing the
        package and before loading a scenario."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "dirac_reduce"]
        for name, module, attr in FUNCTION_SPANS:
            original = getattr(importlib.import_module(f"dirac_reduce.{module}"), attr)
            wrapped = self._span_wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for table, make in ((METHOD_SPANS, self._span_wrapper), (METHOD_COUNTS, self._count_wrapper)):
            for name, module, cls_name, method in table:
                cls = getattr(importlib.import_module(f"dirac_reduce.{module}"), cls_name)
                original = vars(cls)[method]
                wrapped = make(name, original)
                for key, value in list(vars(cls).items()):
                    if value is original:  # also catches aliases such as __rmul__
                        setattr(cls, key, wrapped)
        importlib.import_module("dirac_reduce.subspace").np = _TracedNumpy(self)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "svd_flops": self.flops},
                handle,
            )


def _union_length(intervals, lo, hi) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers from a written trace: ``<span>.calls``,
    ``<span>_s`` (busy seconds, summed over threads), ``<span>.self_s``
    (duration minus the part its child spans cover), ``<span>.p50_ms`` and
    ``<span>.p90_ms``, ``<counter>.calls`` and ``subspace.svd.flops_computed``."""
    spans = trace["spans"]
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    durations = defaultdict(list)
    self_time = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        durations[name].append(end - start)
        self_time[name] += (end - start) - _union_length(children.get(span_id, ()), start, end)
    names = [s[0] for s in FUNCTION_SPANS + METHOD_SPANS] + [SVD_SPAN]
    out = {}
    for name in names:
        d = durations.get(name, [])
        out[f"{name}.calls"] = len(d)
        out[f"{name}_s"] = sum(d)
        out[f"{name}.self_s"] = self_time.get(name, 0.0)
        if d:
            p90 = statistics.quantiles(d, n=10, method="inclusive")[8] if len(d) > 1 else d[0]
            out[f"{name}.p50_ms"], out[f"{name}.p90_ms"] = 1e3 * statistics.median(d), 1e3 * p90
    for name, *_ in METHOD_COUNTS:
        out[f"{name}.calls"] = trace["counts"].get(name, 0)
    out[f"{SVD_SPAN}.flops_computed"] = trace["svd_flops"]
    return out
