"""Traced pass: spans around each module's public entry points, from outside.

``install(tracer)`` replaces each traced function or method with a wrapper
that records a span (id, parent id, name, start, end, counters).  A name is
patched where its caller looks it up: ``sets`` and ``distort`` bind
``discrete_modulus`` by name and ``modfam`` binds ``line_integral`` by name,
so those module globals are patched as well as the defining module.  Spans
stay in memory and are written out when the pass ends; ``layer_metrics``
turns them into the per-layer metrics.  A span's self time is its duration
minus the durations of its direct child spans (calls are single-threaded and
nested, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import os
import time

import workloads


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [id, parent, name, t0, t1, counters]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counters=None):
        """Wrap ``fn`` in a span; ``counters(args, kwargs, result)`` -> dict."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name,
                    time.perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _matrix_size(args, kwargs, result):
    mat = args[0]
    return {"nodes": int(mat.shape[0]), "edges": int(mat.nnz)}


def _points(args, kwargs, result):
    return {"points": len(args[1])}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[-1])
    return {"bytes": os.path.getsize(path)}


def _ring_qc_rejected(args, kwargs, result):
    c1 = result["C1"]
    return {"rejected": sum(1 for e in result["table"]
                            if "error" in e and e.get("input_modulus", 0.0) > c1)}


def _traced_cg(tracer: Tracer, cg):
    """CG with an iteration-counting callback; info != 0 means the caller
    falls back to spsolve."""
    iters = [0]

    def counted_cg(A, b, *args, callback=None, **kwargs):
        iters[0] = 0

        def count(xk):
            iters[0] += 1
            if callback is not None:
                callback(xk)
        return cg(A, b, *args, callback=count, **kwargs)

    return tracer.wrap("modfam.cg", counted_cg,
                       lambda a, k, r: {"iters": iters[0], "fallbacks": int(r[1] != 0)})


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the imported ``extremal`` package."""
    import scipy.sparse.linalg

    from extremal import cli, cover, distort, geom, modfam, qhyp, render, sets

    def patch(owner, attr, name, counters=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counters))

    dm = tracer.wrap("modfam.discrete_modulus", modfam.discrete_modulus,
                     lambda a, k, r: {"cells": int(a[0].u.sum()),
                                      "infeasible": int(r.infeasible)})
    for mod in (modfam, sets, distort):
        mod.discrete_modulus = dm
    li = tracer.wrap("geom.line_integral", geom.line_integral)
    for mod in (geom, modfam):
        mod.line_integral = li
    patch(modfam, "dijkstra", "modfam.dijkstra", _matrix_size)
    patch(modfam, "spsolve", "modfam.spsolve")
    # _dirichlet_rho imports cg from scipy.sparse.linalg at call time
    scipy.sparse.linalg.cg = _traced_cg(tracer, scipy.sparse.linalg.cg)
    for attr in ("translation_survey", "radial_survey", "avg_line_integral"):
        patch(modfam, attr, "modfam.survey")

    patch(sets, "cned_probe", "sets.cned_probe")
    patch(sets, "certify_value", "sets.certify_value",
          lambda a, k, r: {"feasible": int(r[1])})
    patch(sets, "raster_mask", "sets.raster_mask")

    patch(qhyp, "whitney_decompose", "qhyp.whitney_decompose",
          lambda a, k, r: {"cubes": len(r.cubes), "truncated": r.truncated})
    patch(qhyp.WhitneyDecomposition, "verify_exact", "qhyp.verify_exact")
    patch(qhyp.PolygonDomain, "contains", "qhyp.contains", _points)
    patch(qhyp.PolygonDomain, "boundary_distance", "qhyp.boundary_distance", _points)
    patch(qhyp.QhGrid, "__init__", "qhyp.qhgrid",
          lambda a, k, r: {"nodes": len(a[0].nodes), "edges": int(a[0].mat.nnz)})
    patch(qhyp, "dijkstra", "qhyp.dijkstra")
    patch(qhyp, "shadows", "qhyp.shadows")

    patch(geom.Region, "diameter", "geom.diameter",
          lambda a, k, r: {"points": len(a[0].samples)})
    patch(geom.Region, "contains_points", "geom.contains_points")

    patch(cover, "egg_yolk_cover", "cover.egg_yolk_cover",
          lambda a, k, r: {"pairs_in": len(a[0]), "pairs_out": len(r.pairs)})
    patch(cover, "normalize_comparable", "cover.normalize_comparable")
    patch(cover, "verify_cover", "cover.verify_cover")

    patch(distort, "metric_distortion", "distort.metric_distortion")
    patch(distort, "eccentric_distortion", "distort.eccentric_distortion")
    patch(distort.SampledMap, "inverse", "distort.inverse")
    patch(distort, "ring_qc_test", "distort.ring_qc_test", _ring_qc_rejected)

    for attr in ("svg_density_heatmap", "svg_covering", "svg_whitney"):
        patch(render, attr, "cli.artifacts", _file_bytes)
    patch(modfam.DensityField, "to_csv", "cli.artifacts", _file_bytes)
    patch(qhyp.WhitneyDecomposition, "to_csv", "cli.artifacts", _file_bytes)
    patch(cli, "run_experiment", "cli.run_experiment",
          lambda a, k, r: {"config": a[0].name})


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics


def aggregate(spans: list) -> dict:
    """Per span name: calls, inclusive s, self_s, and summed counters."""
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += dur[s[0]]
    agg: dict = {}
    for s in spans:
        a = agg.setdefault(s[2], {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += dur[s[0]]
        a["self_s"] += dur[s[0]] - child[s[0]]
        for key, val in (s[5] or {}).items():
            if not isinstance(val, str):
                a[key] = a.get(key, 0) + val
    for s in spans:
        if s[2] == "cli.run_experiment":
            key = f"cli.run_experiment.{s[5]['config']}.s"
            agg[key] = agg.get(key, 0.0) + dur[s[0]]
    return agg


def _get(agg, name, key):
    return agg.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _per_value(agg):
    certified = (_get(agg, "modfam.discrete_modulus", "calls")
                 - _get(agg, "modfam.discrete_modulus", "infeasible")
                 + _get(agg, "sets.certify_value", "feasible"))
    return _ratio(_get(agg, "modfam.dijkstra", "calls"), certified)


def _field(span_name, key):
    return lambda agg: _get(agg, span_name, key)


# (metric, unit, better, value from the aggregate of one traced pass)
LAYER_METRICS = [
    ("cli.artifacts.s", "s", "lower", _field("cli.artifacts", "s")),
    ("cli.artifacts.mb", "MB", "lower",
     lambda agg: _get(agg, "cli.artifacts", "bytes") / 1e6),
    ("modfam.discrete_modulus.calls", "count", "lower",
     _field("modfam.discrete_modulus", "calls")),
    ("modfam.discrete_modulus.self_s", "s", "lower",
     _field("modfam.discrete_modulus", "self_s")),
    ("modfam.cells", "count", "lower", _field("modfam.discrete_modulus", "cells")),
    ("modfam.dijkstra.calls", "count", "lower", _field("modfam.dijkstra", "calls")),
    ("modfam.dijkstra.s", "s", "lower", _field("modfam.dijkstra", "s")),
    ("modfam.dijkstra.nodes", "count", "lower", _field("modfam.dijkstra", "nodes")),
    ("modfam.dijkstra.edges", "count", "lower", _field("modfam.dijkstra", "edges")),
    ("modfam.dijkstra.per_value", "ratio", "lower", _per_value),
    ("modfam.spsolve.calls", "count", "lower", _field("modfam.spsolve", "calls")),
    ("modfam.spsolve.s", "s", "lower", _field("modfam.spsolve", "s")),
    ("modfam.cg.calls", "count", "lower", _field("modfam.cg", "calls")),
    ("modfam.cg.s", "s", "lower", _field("modfam.cg", "s")),
    ("modfam.cg.iters", "count", "lower", _field("modfam.cg", "iters")),
    ("modfam.cg.fallbacks", "count", "lower", _field("modfam.cg", "fallbacks")),
    ("modfam.infeasible", "count", "lower",
     _field("modfam.discrete_modulus", "infeasible")),
    ("modfam.survey.s", "s", "lower", _field("modfam.survey", "s")),
    ("sets.cned_probe.self_s", "s", "lower", _field("sets.cned_probe", "self_s")),
    ("sets.certify_value.calls", "count", "lower", _field("sets.certify_value", "calls")),
    ("sets.certify_value.self_s", "s", "lower", _field("sets.certify_value", "self_s")),
    ("sets.raster_mask.s", "s", "lower", _field("sets.raster_mask", "s")),
    ("qhyp.whitney_decompose.self_s", "s", "lower",
     _field("qhyp.whitney_decompose", "self_s")),
    ("qhyp.whitney.cubes", "count", "lower", _field("qhyp.whitney_decompose", "cubes")),
    ("qhyp.whitney.truncated", "count", "lower",
     _field("qhyp.whitney_decompose", "truncated")),
    ("qhyp.verify_exact.s", "s", "lower", _field("qhyp.verify_exact", "s")),
    ("qhyp.contains.calls", "count", "lower", _field("qhyp.contains", "calls")),
    ("qhyp.contains.s", "s", "lower", _field("qhyp.contains", "s")),
    ("qhyp.contains.points_per_call", "points/call", "higher",
     lambda agg: _ratio(_get(agg, "qhyp.contains", "points"),
                        _get(agg, "qhyp.contains", "calls"))),
    ("qhyp.boundary_distance.calls", "count", "lower",
     _field("qhyp.boundary_distance", "calls")),
    ("qhyp.boundary_distance.s", "s", "lower", _field("qhyp.boundary_distance", "s")),
    ("qhyp.boundary_distance.points", "count", "lower",
     _field("qhyp.boundary_distance", "points")),
    ("qhyp.qhgrid.self_s", "s", "lower", _field("qhyp.qhgrid", "self_s")),
    ("qhyp.qhgrid.nodes", "count", "lower", _field("qhyp.qhgrid", "nodes")),
    ("qhyp.qhgrid.edges", "count", "lower", _field("qhyp.qhgrid", "edges")),
    ("qhyp.dijkstra.s", "s", "lower", _field("qhyp.dijkstra", "s")),
    ("qhyp.shadows.s", "s", "lower", _field("qhyp.shadows", "s")),
    ("geom.diameter.calls", "count", "lower", _field("geom.diameter", "calls")),
    ("geom.diameter.s", "s", "lower", _field("geom.diameter", "s")),
    ("geom.diameter.points", "count", "lower", _field("geom.diameter", "points")),
    ("geom.contains_points.s", "s", "lower", _field("geom.contains_points", "s")),
    ("geom.line_integral.s", "s", "lower", _field("geom.line_integral", "s")),
    ("cover.egg_yolk_cover.self_s", "s", "lower", _field("cover.egg_yolk_cover", "self_s")),
    ("cover.normalize_comparable.self_s", "s", "lower",
     _field("cover.normalize_comparable", "self_s")),
    ("cover.verify_cover.self_s", "s", "lower", _field("cover.verify_cover", "self_s")),
    ("cover.pairs_out_per_in", "ratio", "lower",
     lambda agg: _ratio(_get(agg, "cover.egg_yolk_cover", "pairs_out"),
                        _get(agg, "cover.egg_yolk_cover", "pairs_in"))),
    ("distort.metric_distortion.self_s", "s", "lower",
     _field("distort.metric_distortion", "self_s")),
    ("distort.eccentric_distortion.self_s", "s", "lower",
     _field("distort.eccentric_distortion", "self_s")),
    ("distort.inverse.calls", "count", "lower", _field("distort.inverse", "calls")),
    ("distort.inverse.s", "s", "lower", _field("distort.inverse", "s")),
    ("distort.ring_qc_test.self_s", "s", "lower", _field("distort.ring_qc_test", "self_s")),
    ("distort.ring_qc.rejected", "count", "lower", _field("distort.ring_qc_test", "rejected")),
] + [
    (f"cli.run_experiment.{name}.s", "s", "lower",
     (lambda key: lambda agg: agg.get(key, 0.0))(f"cli.run_experiment.{name}.s"))
    for configs in workloads.WORKLOADS.values() for name, _, _ in configs
]

# computed by run.py from the traced and untraced walls of one run
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")


def layer_metrics(spans: list) -> dict:
    agg = aggregate(spans)
    return {name: float(fn(agg)) for name, _, _, fn in LAYER_METRICS}
