"""Experiment runner: config ingestion, batch execution, artifact emission.

One experiment per invocation: ``extremal run config.json [--seed N]
[--out DIR] [--tol T]`` writes results.json (scalars plus the analytic
anchors they were checked against) and the files its runner names: each
runner fills a ``files`` map from file name to a writer that takes the
file's path, such as data.csv for tables and figure.svg for 2D scenes.
``extremal list`` prints the bundled configs, which cover every
acceptance scenario.  Identical config and seed give byte-identical
results.json at a fixed BLAS thread count (scipy's CG sums its inner
products per thread, so the last bits of a solve depend on the count).
Wall-clock metadata goes to a sidecar file, run.meta.json, written last.

Each key of ``params`` is read, defaulted and checked in one place, the runner
or builder that uses it, before the first solve; the package functions it
calls do not repeat those defaults.

Exit codes: 0 success (solver infeasibility is success, recorded in the
results), 2 config error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import cover, distort, modfam, qhyp, render, sets
from .geom import DomainError, PolyCurve


class ConfigError(Exception):
    pass


class InvariantBreach(Exception):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    seed: int | None = None
    out: str = "."
    tol: float = 0.02
    name: str = ""

    STOCHASTIC = ("covering", "survey")

    def validate(self) -> None:
        """Check the top-level fields; each runner checks its own params."""
        if not isinstance(self.kind, str) or self.kind not in _RUNNERS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("params: must be an object")
        if not math.isfinite(self.tol) or self.tol <= 0:
            raise ConfigError("tol: must be positive and finite")
        if not isinstance(self.out, str):
            raise ConfigError(f"out: must be a string, got {self.out!r}")
        if not isinstance(self.name, str):
            raise ConfigError(f"name: must be a string, got {self.name!r}")
        if self.kind in self.STOCHASTIC and self.seed is None:
            raise ConfigError(f"seed: mandatory for stochastic kind {self.kind!r}")
        if self.seed is not None:
            _natural("seed", self.seed)

    @staticmethod
    def from_json(obj: dict, path: str = "<config>") -> "ExperimentConfig":
        try:
            cfg = ExperimentConfig(
                kind=obj["kind"], params=obj.get("params", {}),
                seed=obj.get("seed"), out=obj.get("out", "."),
                tol=float(_positive("tol", obj.get("tol", 0.02))),
                name=obj.get("name", ""))
            cfg.validate()
            return cfg
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _need(params: dict, *keys, where: str = "params"):
    for k in keys:
        if k not in params:
            raise ConfigError(f"{where}.{k}: missing")


def _object(where: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{where}: must be an object, got {v!r}")
    return v


def _number(where: str, v):
    # JSON numbers only: a bool is an int to Python, and a numeric string
    # would pass float()
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: must be a number, got {v!r}")
    # Python's json reads Infinity and NaN
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {v!r}")
    return v


def _integer(where: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: must be an integer, got {v!r}")
    return v


def _positive(where: str, v):
    if not _number(where, v) > 0:
        raise ConfigError(f"{where}: must be positive and finite, got {v!r}")
    return v


def _count(where: str, v) -> int:
    return _positive(where, _integer(where, v))


def _natural(where: str, v) -> int:
    if _integer(where, v) < 0:
        raise ConfigError(f"{where}: must be a non-negative integer, got {v!r}")
    return v


def _numbers(where: str, v, dim: int | None = None):
    """A nonempty list of numbers, such as a point (of ``dim`` coordinates
    when given)."""
    if (not isinstance(v, (list, tuple)) or not v
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in v)):
        raise ConfigError(f"{where}: must be a list of numbers, got {v!r}")
    if dim is not None and len(v) != dim:
        raise ConfigError(f"{where}: must have {dim} coordinates, got {v!r}")
    for c in v:
        _number(where, c)       # refuses Infinity and NaN
    return v


def _points(where: str, v) -> list:
    """A nonempty list of points of one dimension, such as a curve."""
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"{where}: must be a list of points, got {v!r}")
    if len({len(_numbers(where, q)) for q in v}) > 1:
        raise ConfigError(f"{where}: points of different dimensions, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# Scene / domain / set construction from config records


def build_scene(spec: dict) -> modfam.GridScene:
    kind = _object("scene", spec).get("builder", "file")
    if kind in ("annulus", "square-ring"):
        _need(spec, "r", "R", where="scene")
        r, R = _positive("scene.r", spec["r"]), _positive("scene.R", spec["R"])
    if kind == "annulus":
        half = spec.get("half")
        if half is not None:
            _positive("scene.half", half)
        return modfam.annulus_scene(r, R, _count("scene.grid", spec.get("grid", 256)),
                                    half=half)
    if kind == "rectangle":
        return modfam.rectangle_scene(*_rectangle_sides(spec),
                                      _count("scene.grid", spec.get("grid", 256)))
    if kind == "square-ring":
        return modfam.square_ring_scene(r, R, _count("scene.grid", spec.get("grid", 192)))
    if kind == "file":
        _need(spec, "path", where="scene")
        try:
            with open(spec["path"]) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"scene.path: {exc}") from exc
        return modfam.GridScene.from_json(obj)
    raise ConfigError(f"scene.builder: unknown builder {kind!r}")


def _rectangle_sides(spec: dict) -> tuple:
    """The checked (width, height) of a rectangle scene record."""
    return (_positive("scene.width", spec.get("width", 2.0)),
            _positive("scene.height", spec.get("height", 1.0)))


def build_domain(spec: dict) -> qhyp.PolygonDomain:
    kind = _object("domain", spec).get("builder", "disk")
    if kind == "disk":
        return qhyp.disk_domain(_positive("domain.radius", spec.get("radius", 1.0)),
                                _count("domain.vertices", spec.get("vertices", 128)))
    if kind == "cusp":
        return qhyp.cusp_domain(_number("domain.exponent", spec.get("exponent", 8.0)))
    if kind == "comb":
        return qhyp.comb_domain(_count("domain.teeth", spec.get("teeth", 4)))
    if kind == "polygon":
        _need(spec, "outer", where="domain")
        holes = spec.get("holes", [])
        if not isinstance(holes, list):
            raise ConfigError(f"domain.holes: must be a list of rings, got {holes!r}")
        rings = [("domain.outer", spec["outer"])]
        rings += [(f"domain.holes[{k}]", ring) for k, ring in enumerate(holes)]
        for where, ring in rings:
            for q in _points(where, ring):
                _numbers(where, q, 2)
        return qhyp.PolygonDomain(spec["outer"], holes)
    raise ConfigError(f"domain.builder: unknown builder {kind!r}")


def build_obstacle(spec: dict, scene: modfam.GridScene) -> np.ndarray:
    _need(_object("obstacle", spec), "kind", where="obstacle")
    kind = spec["kind"]
    if kind in ("circle", "circle-minus-cell"):
        _need(spec, "radius", where="obstacle")
        mask = sets.circle_obstacle_mask(
            scene, _numbers("obstacle.center", spec.get("center", (0.0, 0.0)), 2),
            _positive("obstacle.radius", spec["radius"]))
        if kind == "circle-minus-cell":
            _need(spec, "gap_at", where="obstacle")
            mask[_cell_at(scene, "obstacle.gap_at", spec["gap_at"])] = False
        return mask
    if kind == "cantor-product":
        depth = _integer("obstacle.depth", spec.get("depth", 6))
        a = _number("obstacle.from", spec.get("from", 0.8))
        b = _number("obstacle.to", spec.get("to", 1.2))
        f = sets.interval_set(_number("obstacle.y0", spec.get("y0", -10.0)),
                              _number("obstacle.y1", spec.get("y1", 10.0)))
        fat = spec.get("fat", True)
        if not isinstance(fat, bool):
            raise ConfigError(f"obstacle.fat: must be true or false, got {fat!r}")
        c = sets.make_cantor(depth, fat)
        g = sets.IntervalUnionSet.of([(a + lo / c.den * (b - a),
                                       a + hi / c.den * (b - a)) for lo, hi in c.intervals])
        return sets.raster_mask(sets.product_set(g, f), scene)
    if kind == "cell":
        _need(spec, "at", where="obstacle")
        mask = np.zeros(scene.shape, bool)
        mask[_cell_at(scene, "obstacle.at", spec["at"])] = True
        return mask
    raise ConfigError(f"obstacle.kind: unknown kind {kind!r}")


def _cell_at(scene: modfam.GridScene, where: str, point) -> tuple:
    p = [float(x) for x in _numbers(where, point, scene.dim)]
    # compared before int(): a far point's quotient may overflow to inf
    cell = [(x - o) // scene.spacing for x, o in zip(p, scene.origin.tolist())]
    if all(0 <= c < n for c, n in zip(cell, scene.shape)):
        return tuple(int(c) for c in cell)
    raise ConfigError(f"{where}: point {p} lies outside the grid")


# ---------------------------------------------------------------------------
# Experiment implementations


def _run_modulus(cfg: ExperimentConfig, files: dict) -> dict:
    p = cfg.params
    mode = p.get("mode", "scene")
    if mode == "scene":
        _need(p, "scene")
        scene = build_scene(p["scene"])
        constraint = modfam.UNCONSTRAINED
        if "obstacle" in p:
            mask = build_obstacle(p["obstacle"], scene)
            constraint = modfam.CurveConstraint(p.get("constraint", "avoid"), mask,
                                                p.get("budget", 0))
        res = modfam.discrete_modulus(scene, constraint)
        out = {"value": res.value, "infeasible": res.infeasible}
        sc = p["scene"]
        if sc.get("builder") == "annulus":
            exact = modfam.ring_modulus_exact(2, sc["r"], sc["R"])
            out["anchor"] = {"name": "ring modulus w_{n-1} log(R/r)^{1-n}",
                             "value": exact,
                             "relative_error": (res.value - exact) / exact}
        if sc.get("builder") == "rectangle":
            width, height = _rectangle_sides(sc)
            exact = height / width
            out["anchor"] = {"name": "extremal length height/width",
                             "value": exact,
                             "relative_error": (res.value - exact) / exact}
        if sc.get("builder") == "square-ring":
            bound = modfam.square_ring_lower_bound(sc["r"], sc["R"])
            out["anchor"] = {"name": "square-ring lower bound log(R/r)/4",
                             "value": bound,
                             "bound_holds": bool(res.value >= bound - cfg.tol)}
        if res.density is not None:
            rep = modfam.admissible_check(res.density, res.witnesses,
                                          tol=10 * cfg.tol)
            if not rep.ok:
                raise InvariantBreach("witness paths violate admissibility")
            files["density.csv"] = res.density.to_csv
            if res.density.values.ndim == 2:
                files["figure.svg"] = partial(render.svg_density_heatmap, res.density)
        return out
    if mode == "reciprocal":
        _need(p, "radii", "grid")
        radii = [_positive(f"params.radii[{k}]", r)
                 for k, r in enumerate(_numbers("params.radii", p["radii"]))]
        if len(radii) != 3 or not radii[0] < radii[1] < radii[2]:
            raise ConfigError(
                f"params.radii: must be three increasing radii, got {radii!r}")
        grid = _count("params.grid", p["grid"])
        half = max(radii) * 1.04
        vals = {}
        for (a, b) in ((radii[0], radii[2]), (radii[0], radii[1]),
                       (radii[1], radii[2])):
            scene = modfam.annulus_scene(a, b, grid, half=half)
            vals[f"md({a},{b})"] = modfam.discrete_modulus(scene).value
        keys = list(vals)
        lhs = abs(2 * math.pi / vals[keys[0]] - 2 * math.pi / vals[keys[1]]
                  - 2 * math.pi / vals[keys[2]])
        return {"moduli": vals, "reciprocal_mismatch": lhs,
                "threshold_3tol": 3 * cfg.tol,
                "anchor": {"name": "serial law: extremal distances add",
                           "log_ratio": math.log(radii[2] / radii[0])}}
    if mode != "refinement":
        raise ConfigError(f"params.mode: unknown modulus mode {mode!r}")
    # refinement ladder forcing paths through one cell
    _need(p, "grids")
    grids = [_count(f"params.grids[{k}]", n)
             for k, n in enumerate(_numbers("params.grids", p["grids"]))]
    r = _positive("params.r", p.get("r", 1.0))
    R = _positive("params.R", p.get("R", math.e))
    values = []
    for n in grids:
        scene = modfam.annulus_scene(r, R, n)
        m = (r + R) / 2
        mask = build_obstacle({"kind": "circle-minus-cell", "radius": m,
                               "gap_at": [m, 0.0]}, scene)
        res = modfam.discrete_modulus(scene, modfam.CurveConstraint("avoid", mask))
        values.append({"grid": n, "value": res.value})
    files["data.csv"] = partial(_csv, [("grid", "value"),
                                       *((row["grid"], row["value"]) for row in values)])
    return {"ladder": values,
            "anchor": {"name": "point families carry zero modulus"}}


def _run_covering(cfg: ExperimentConfig, files: dict) -> dict:
    p = cfg.params
    _need(p, "runs", "n_pairs", "M")
    _named_map(p)
    n_runs = _count("params.runs", p["runs"])
    n_pairs = _at_most("params.n_pairs", _count("params.n_pairs", p["n_pairs"]),
                       cover.MAX_COVER_PAIRS)
    M = _number("params.M", p["M"])
    if M < 2:       # the least egg-yolk constant
        raise ConfigError(f"params.M: must be at least 2, got {M!r}")
    rng = np.random.default_rng(cfg.seed)
    runs = []
    all_ok = True
    for k in range(n_runs):
        fam = cover.random_paired_family(n_pairs, M, p["map"],
                                         seed=int(rng.integers(2 ** 31)))
        res = cover.egg_yolk_cover(fam)
        ver = res.report["verified"]
        all_ok &= all(ver.values())
        runs.append({"verified": ver, "achieved_constant": res.achieved_constant,
                     "output_pairs": len(res.pairs)})
        if k == 0:
            first_domain, first_cover = res.domain, res.to_json()
    if not all_ok:
        raise InvariantBreach("covering postconditions failed on some run")
    files["data.csv"] = partial(_csv, [
        ("run", "achieved_constant", "output_pairs"),
        *((i, run["achieved_constant"], run["output_pairs"])
          for i, run in enumerate(runs))])
    files["figure.svg"] = partial(render.svg_covering, first_domain)
    return {"runs": runs, "all_verified": all_ok, "first_run": first_cover,
            "anchor": {"name": "egg-yolk covering: disjoint yolks, same union"}}


def _named_map(p: dict) -> np.ndarray:
    """The matrix of the linear map that ``params.map`` names."""
    _need(p, "map")
    if not isinstance(p["map"], str) or p["map"] not in cover.NAMED_MAPS:
        raise ConfigError(f"params.map: unknown map {p['map']!r}")
    return cover.NAMED_MAPS[p["map"]]


def _run_distortion(cfg: ExperimentConfig, files: dict) -> dict:
    p = cfg.params
    mat = _named_map(p)
    f = distort.linear_sampled_map(
        mat, pitch=_positive("params.pitch", p.get("pitch", 0.05)))
    out: dict = {"map": p["map"]}
    svals = np.linalg.svd(mat, compute_uv=False)
    if "rings" in p:
        rings = []
        for k, ring in enumerate(_points("params.rings", p["rings"])):
            r, R = _numbers(f"params.rings[{k}]", ring, 2)
            if not 0 < r < R:
                raise ConfigError(f"params.rings[{k}]: need 0 < r < R, got {ring!r}")
            rings.append(((0.0, 0.0), r, R))
        C1 = _positive("params.C1", p.get("C1", 6.0))
        grid_n = _count("params.grid", p.get("grid", 160))
        try:
            # an image scene has grid_n x at most max(8, grid_n + 1) cells
            modfam.check_scene_cells([grid_n, max(8, grid_n + 1)])
        except DomainError as exc:
            raise ConfigError(f"params.grid: {exc}") from exc
        out["ring_qc"] = distort.ring_qc_test(f, rings, C1, grid_n=grid_n)
        out["anchor"] = {"name": "K-quasiconformal ring bound md f(G) <= K md G",
                         "K": float(svals[0] / svals[-1])}
        return out
    probes = _count("params.probes", p.get("probes", 25))
    ladder = _numbers("params.ladder", p.get("ladder", [0.15, 0.3, 0.6]))
    radius = _positive("params.radius", p.get("radius", 0.5))
    rng = np.random.default_rng(cfg.seed or 0)
    pts = rng.uniform(-1.0, 1.0, size=(probes, 2))
    hs, es = [], []
    for x in pts:
        hs.append(distort.metric_distortion(f, x, ladder).h_estimate)
        es.append(distort.eccentric_distortion(f, x, radius))
    out.update({
        "metric_distortion": {"mean": float(np.mean(hs)), "max": float(np.max(hs)),
                              "min": float(np.min(hs))},
        "eccentric_distortion": {"mean": float(np.mean(es)), "max": float(np.max(es))},
        "anchor": {"name": "singular value ratio of the linear map",
                   "value": float(svals[0] / svals[-1])},
    })
    return out


def _run_qh(cfg: ExperimentConfig, files: dict) -> dict:
    p = cfg.params
    _need(p, "domain", "mode")
    domain = build_domain(p["domain"])
    mode = p["mode"]
    if mode == "distance":
        _need(p, "x1", "x2")
        x1 = _numbers("params.x1", p["x1"], 2)
        x2 = _numbers("params.x2", p["x2"], 2)
        pitch = _qh_pitch("params.pitch", domain, p.get("pitch", 0.01))
        anchor = (_positive("params.anchor_value", p["anchor_value"])
                  if "anchor_value" in p else None)
        res = qhyp.qh_distance(domain, x1, x2, pitch=pitch)
        out = {"value": res["value"], "infeasible": res["infeasible"]}
        if anchor is not None:
            out["anchor"] = {"name": "radial quasihyperbolic integral",
                             "value": anchor,
                             "relative_error": (res["value"] - anchor) / anchor}
        return out
    if mode == "whitney":
        max_depth = _whitney_depth("params.max_depth", p.get("max_depth", 6))
        decomp = qhyp.whitney_decompose(domain, max_depth)
        rep = decomp.verify_exact()
        if rep["lower_violations"] or rep["upper_violations"]:
            raise InvariantBreach(_whitney_breach(decomp, rep))
        files["cubes.csv"] = decomp.to_csv
        files["figure.svg"] = partial(render.svg_whitney, decomp)
        return {"cubes": rep["cubes"], "truncated": decomp.truncated,
                "lower_violations": len(rep["lower_violations"]),
                "upper_violations": len(rep["upper_violations"]),
                "neighbor_ratio_ok": rep["neighbor_ratio_ok"],
                "anchor": {"name": "diam(Q) <= dist(Q, boundary) <= 4 diam(Q)"}}
    if mode != "shadow-sum":
        raise ConfigError(f"params.mode: unknown quasihyperbolic mode {mode!r}")
    x0 = _numbers("params.x0", p.get("x0", (0.0, 0.0)), 2)
    levels = p.get("levels", [{"max_depth": 6, "qh_pitch": 0.02}])
    if not isinstance(levels, list):
        raise ConfigError(f"params.levels: must be a list of objects, got {levels!r}")
    pairs = []
    for k, lev in enumerate(levels):
        where = f"params.levels[{k}]"
        _need(_object(where, lev), "max_depth", "qh_pitch", where=where)
        pairs.append((_whitney_depth(f"{where}.max_depth", lev["max_depth"]),
                      _qh_pitch(f"{where}.qh_pitch", domain, lev["qh_pitch"])))
    return {"levels": qhyp.shadow_sum_diagnostic(domain, x0, pairs),
            "anchor": {"name": "shadow sum bounded by quasihyperbolic integral"}}


def _whitney_depth(where: str, v) -> int:
    """A Whitney depth in [0, MAX_WHITNEY_DEPTH]."""
    return _at_most(where, _natural(where, v), qhyp.MAX_WHITNEY_DEPTH)


def _at_most(where: str, v: int, cap: int) -> int:
    """v, refused above cap."""
    if v > cap:
        raise ConfigError(f"{where}: must be at most {cap}, got {v!r}")
    return v


def _qh_pitch(where: str, domain: qhyp.PolygonDomain, v) -> float:
    """A QhGrid pitch whose lattice over the domain fits the point budget."""
    try:
        qhyp.check_lattice(domain, _positive(where, v))
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return v


def _whitney_breach(decomp, rep: dict) -> str:
    """Name each failed Whitney check and its first offending cubes."""
    parts = []
    for key, check in (("lower_violations", "lower diam(Q) <= dist(Q, boundary)"),
                       ("upper_violations", "upper dist(Q, boundary) <= 4 diam(Q)")):
        bad = rep[key]
        if bad:
            first = ", ".join(f"#{k} (depth {depth}, ij {(i, j)})" for k, (depth, i, j)
                              in zip(bad, decomp.cubes[bad[:3]].tolist()))
            parts.append(f"{check} fails on {len(bad)} cube(s), first {first}")
    return "Whitney inequalities violated: " + "; ".join(parts)


def _run_sets_probe(cfg: ExperimentConfig, files: dict) -> dict:
    p = cfg.params
    _need(p, "obstacle", "scene", "budgets")
    if not isinstance(p["budgets"], list):
        raise ConfigError("params.budgets: must be a list of integers")
    scene = build_scene(p["scene"])
    mask = build_obstacle(p["obstacle"], scene)
    probe = sets.cned_probe(mask, scene, p["budgets"])
    order_ok = probe["mod_avoid"] <= min(
        [probe["mod_budget"][k] for k in probe["mod_budget"]] or [math.inf]) + 1e-12
    ks = sorted(probe["mod_budget"])
    for a, b in zip(ks, ks[1:]):
        order_ok &= probe["mod_budget"][a] <= probe["mod_budget"][b] + 1e-12
    if ks:
        order_ok &= probe["mod_budget"][ks[-1]] <= probe["mod_full"] + 1e-12
    if not order_ok:
        raise InvariantBreach("constraint-relaxation ordering violated")
    probe["ordering_ok"] = bool(order_ok)
    probe["anchor"] = {"name": "modulus under avoidance/counted crossings"}
    return probe


def _run_survey(cfg: ExperimentConfig, files: dict) -> dict:
    p = cfg.params
    _need(p, "type", "samples")
    samples = p["samples"]
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ConfigError(f"params.samples: must be a positive integer, got {samples!r}")
    _at_most("params.samples", samples, modfam.MAX_SURVEY_SAMPLES)
    if p["type"] == "avg-line-integral":
        curve = PolyCurve(_points("params.curve",
                                  p.get("curve", [[0.0, 0.0], [1.0, 0.0]])))
        rho = _density_from_spec(p.get("density", {"kind": "linear-x"}))
        out = {}
        for r in _numbers("params.radii", p.get("radii", [0.1, 0.01])):
            out[f"r={r}"] = modfam.avg_line_integral(rho, curve, r, samples,
                                                     seed=cfg.seed)
        return {"averages": out,
                "anchor": {"name": "averaged line integrals converge to the integral"}}
    if p["type"] not in ("translation", "radial"):
        raise ConfigError(f"params.type: unknown survey type {p['type']!r}")
    _need(p, "E")
    E = _survey_set_from_spec(p["E"])
    if p["type"] == "translation":
        curve = PolyCurve(_points("params.curve",
                                  p.get("curve", [[0.0, 0.0], [0.0, 1.0]])))
        n_max = _count("params.n_max", p.get("n_max", 16))
        table = modfam.translation_survey(E, curve, n_max, samples, seed=cfg.seed)
        table["anchor"] = {"name": "N * m(F_N) bounded by len(curve) * H^{n-1}(E)"}
    else:
        x = _numbers("params.x", p.get("x", (0.0, 0.0)))
        r = _number("params.r", p.get("r", 0.5))
        R = _number("params.R", p.get("R", 2.0))
        n_max = _count("params.n_max", p.get("n_max", 8))
        table = modfam.radial_survey(E, x, r, R, n_max, samples, seed=cfg.seed)
        table["anchor"] = {"name": "directional measure decays like 1/N"}
    files["data.csv"] = partial(_csv, [("N", "measure", "ci95"),
                                       *((row["N"], row["measure"], row["ci95"])
                                         for row in table["table"])])
    return table


def _density_from_spec(spec: dict):
    kind = _object("density", spec).get("kind", "constant")
    # each density maps an (N, dim) point array to N values
    if kind == "constant":
        c = _number("density.value", spec.get("value", 1.0))
        return lambda x: np.full(len(x), c)
    if kind == "linear-x":
        lo = _number("density.clip_lo", spec.get("clip_lo", -100.0))
        hi = _number("density.clip_hi", spec.get("clip_hi", 100.0))
        return lambda x: np.clip(x[:, 0], lo, hi)
    if kind == "log-ring":
        a = spec.get("a", 0.5)
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not 0 < a < 1:
            raise ConfigError(f"density.a: must lie in (0, 1), got {a!r}")

        def log_ring(x):
            norm = np.linalg.norm(x, axis=1)
            ring = (a <= norm) & (norm <= 1)
            out = np.zeros(len(x))
            out[ring] = 1.0 / (norm[ring] * math.log(1 / a))
            return out
        return log_ring
    raise ConfigError(f"density.kind: unknown kind {kind!r}")


def _survey_set_from_spec(spec: dict):
    _need(_object("E", spec), "kind", where="E")
    kind = spec["kind"]
    if kind == "segments":
        _need(spec, "segments", where="E")
        segs = spec["segments"]
        if (not isinstance(segs, list) or not segs
                or any(not isinstance(ab, list) or len(ab) != 2 for ab in segs)):
            raise ConfigError(
                f"E.segments: must be a list of point pairs, got {segs!r}")
        prims = [sets.Segment(*(tuple(_numbers("E.segments", q, 2)) for q in ab))
                 for ab in segs]
        return sets.PrimitiveUnionSet(prims)
    if kind == "point":
        _need(spec, "at", where="E")
        at = _numbers("E.at", spec["at"], 2)
        return sets.PrimitiveUnionSet([sets.PointPrim(tuple(at))])
    if kind == "circle":
        _need(spec, "radius", where="E")
        center = _numbers("E.center", spec.get("center", (0, 0)), 2)
        return sets.PrimitiveUnionSet(
            [sets.CirclePrim(tuple(center), _positive("E.radius", spec["radius"]))])
    if kind == "cantor-rows":
        depth = _integer("E.depth", spec.get("depth", 5))
        c = sets.make_cantor(depth, True)
        rows = sets.IntervalUnionSet.points(
            _numbers("E.rows", spec.get("rows", [0.25, 0.5, 0.75])))
        return sets.product_set(c, rows)
    raise ConfigError(f"E.kind: unknown set kind {kind!r}")


_RUNNERS = {
    "modulus": _run_modulus,
    "covering": _run_covering,
    "distortion": _run_distortion,
    "quasihyperbolic": _run_qh,
    "sets-probe": _run_sets_probe,
    "survey": _run_survey,
}


# ---------------------------------------------------------------------------
# Artifact emission


def _atomic_write(path: str, write: Callable[[str], object]) -> None:
    """Have ``write`` fill ``path + ".tmp"``, then rename it onto ``path``:
    a write that fails part way leaves neither ``path`` nor the temporary."""
    tmp = path + ".tmp"
    try:
        write(tmp)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _write_text(path: str, text: str) -> None:
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def _csv(rows: list, path: str) -> None:
    """Write ``rows`` (a header tuple, then one tuple per row) as CSV."""
    Path(path).write_text("\n".join(",".join(str(v) for v in row) for row in rows)
                          + "\n")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    t0 = time.perf_counter()
    config.validate()
    files: dict[str, Callable[[str], None]] = {}
    t_solve = time.perf_counter()
    results = _RUNNERS[config.kind](config, files)
    t_artifacts = time.perf_counter()
    os.makedirs(config.out, exist_ok=True)
    payload = {
        "schema": 1,
        "kind": config.kind,
        "name": config.name,
        "seed": config.seed,
        "tol": config.tol,
        "params": _json_ready(config.params),
        "results": _json_ready(results),
    }
    _write_text(os.path.join(config.out, "results.json"),
                json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for name, write in files.items():
        _atomic_write(os.path.join(config.out, name), write)
    t_end = time.perf_counter()
    # written last, so it times the whole run; a failed write leaves none
    _write_text(os.path.join(config.out, "run.meta.json"),
                json.dumps({"elapsed_s": t_end - t0,
                            "solve_s": t_artifacts - t_solve,
                            "artifacts_s": t_end - t_artifacts,
                            "finished_unix": time.time()}, indent=2) + "\n")
    modfam.release_free_memory()    # the next experiment starts from the live set
    return 0


# ---------------------------------------------------------------------------
# Bundled catalog


def builtin_experiments() -> dict:
    e = math.e
    cat = {
        "annulus-2d": {
            "kind": "modulus", "tol": 0.02,
            "params": {"mode": "scene",
                       "scene": {"builder": "annulus", "r": 1.0, "R": e, "grid": 256}}},
        "annulus-2d-128": {
            "kind": "modulus", "tol": 0.02,
            "params": {"mode": "scene",
                       "scene": {"builder": "annulus", "r": 1.0, "R": e, "grid": 128}}},
        "ring-reciprocal": {
            "kind": "modulus", "tol": 0.02,
            "params": {"mode": "reciprocal", "radii": [1.0, 7.0, 49.0], "grid": 256}},
        "square-ring-bound": {
            "kind": "modulus", "tol": 0.02,
            "params": {"mode": "scene",
                       "scene": {"builder": "square-ring", "r": 1.0, "R": 4.0,
                                 "grid": 192}}},
        "rectangle-modulus": {
            "kind": "modulus", "tol": 0.02,
            "params": {"mode": "scene",
                       "scene": {"builder": "rectangle", "width": 2.0,
                                 "height": 1.0, "grid": 256}}},
        "point-family-refinement": {
            "kind": "modulus", "tol": 0.02,
            "params": {"mode": "refinement", "grids": [32, 64, 128, 256]}},
        "eggyolk-random": {
            "kind": "covering", "seed": 7,
            "params": {"runs": 30, "n_pairs": 30, "M": 4.0, "map": "diag(2,1)"}},
        "eggyolk-conformal": {
            "kind": "covering", "seed": 11,
            "params": {"runs": 30, "n_pairs": 20, "M": 8.0, "map": "rot+scale"}},
        "distortion-diag": {
            "kind": "distortion", "seed": 3,
            "params": {"map": "diag(2,1)", "probes": 25}},
        "distortion-identity": {
            "kind": "distortion", "seed": 3,
            "params": {"map": "identity", "probes": 25}},
        "ring-qc-diag": {
            "kind": "distortion", "tol": 0.02,
            "params": {"map": "diag(2,1)", "C1": 6.2,
                       "rings": [[1.0, 1.0 + 0.24 * k] for k in range(1, 11)]}},
        "disk-qh": {
            "kind": "quasihyperbolic",
            "params": {"domain": {"builder": "disk"}, "mode": "distance",
                       "x1": [0.0, 0.0], "x2": [0.0, 0.9], "pitch": 0.01,
                       "anchor_value": math.log(10)}},
        "whitney-disk": {
            "kind": "quasihyperbolic",
            "params": {"domain": {"builder": "disk"}, "mode": "whitney",
                       "max_depth": 6}},
        "whitney-cusp": {
            "kind": "quasihyperbolic",
            "params": {"domain": {"builder": "cusp"}, "mode": "whitney",
                       "max_depth": 6}},
        "whitney-comb": {
            "kind": "quasihyperbolic",
            "params": {"domain": {"builder": "comb"}, "mode": "whitney",
                       "max_depth": 6}},
        "shadow-sum-disk": {
            "kind": "quasihyperbolic",
            "params": {"domain": {"builder": "disk"}, "mode": "shadow-sum",
                       "x0": [0.0, 0.0],
                       "levels": [{"max_depth": 6, "qh_pitch": 0.02},
                                  {"max_depth": 6, "qh_pitch": 0.01}]}},
        "shadow-sum-cusp": {
            "kind": "quasihyperbolic",
            "params": {"domain": {"builder": "cusp"}, "mode": "shadow-sum",
                       "x0": [1.75, 0.0],
                       "levels": [{"max_depth": 6, "qh_pitch": 0.02},
                                  {"max_depth": 6, "qh_pitch": 0.01},
                                  {"max_depth": 6, "qh_pitch": 0.005}]}},
        "cned-circle": {
            "kind": "sets-probe", "tol": 0.02,
            "params": {"scene": {"builder": "annulus", "r": 1.0, "R": e,
                                 "grid": 256},
                       "obstacle": {"kind": "circle",
                                    "radius": (1 + e) / 2},
                       "budgets": [1, 2]}},
        "cantor-product-probe": {
            "kind": "sets-probe", "tol": 0.02,
            "params": {"scene": {"builder": "rectangle", "width": 2.0,
                                 "height": 1.0, "grid": 256},
                       "obstacle": {"kind": "cantor-product", "depth": 6,
                                    "from": 0.8, "to": 1.2},
                       "budgets": [1, 4, 8, 64]}},
        "translation-survey": {
            "kind": "survey", "seed": 17,
            "params": {"type": "translation", "samples": 100000,
                       "E": {"kind": "segments",
                             "segments": [[[0.0, 0.3 * k], [1.0, 0.3 * k]]
                                          for k in range(10)]},
                       "curve": [[0.0, 0.0], [0.0, 1.0]], "n_max": 16}},
        "radial-survey": {
            "kind": "survey", "seed": 19,
            "params": {"type": "radial", "samples": 50000,
                       "E": {"kind": "circle", "radius": 1.25},
                       "x": [0.0, 0.0], "r": 0.5, "R": 2.0, "n_max": 4}},
        "avg-line-integral": {
            "kind": "survey", "seed": 23,
            "params": {"type": "avg-line-integral", "samples": 4000,
                       "density": {"kind": "linear-x"},
                       "curve": [[0.0, 0.0], [1.0, 0.0]],
                       "radii": [0.1, 0.01]}},
    }
    return cat


def list_experiments() -> list[str]:
    cat = builtin_experiments()
    names = sorted(cat)
    width = max(len(n) for n in names)
    for n in names:
        print(f"{n:<{width}}  [{cat[n]['kind']}]")
    return names


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="extremal",
        description="modulus, covering, distortion, and quasihyperbolic experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to a JSON config, or a bundled name")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--tol", type=float, default=None)
    sub.add_parser("list", help="list bundled experiment configs")
    args = parser.parse_args(argv)

    if args.command == "list":
        list_experiments()
        return 0

    try:
        cat = builtin_experiments()
        if args.config in cat:
            obj = dict(cat[args.config])
            obj.setdefault("name", args.config)
        else:
            try:
                with open(args.config) as fh:
                    obj = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"{args.config}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        cfg = ExperimentConfig.from_json(obj, args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.tol is not None:
            cfg.tol = args.tol
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run_experiment(cfg)
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
