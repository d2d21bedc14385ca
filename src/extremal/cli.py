"""Experiment runner: config ingestion, batch execution, artifact emission.

One experiment per invocation: ``extremal run config.json [--seed N]
[--out DIR] [--tol T]`` writes results.json (scalars plus the analytic
anchors they were checked against), data.csv for tables, and figure.svg for
2D scenes.  ``extremal list`` prints the bundled configs, which cover every
acceptance scenario.  Identical config and seed give byte-identical
results.json; wall-clock metadata goes to a sidecar file.

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

    KINDS = ("modulus", "covering", "distortion", "quasihyperbolic",
             "sets-probe", "survey")
    STOCHASTIC = ("covering", "survey")

    def validate(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("params: must be an object")
        if not math.isfinite(self.tol) or self.tol <= 0:
            raise ConfigError("tol: must be positive and finite")
        if self.kind in self.STOCHASTIC and self.seed is None:
            raise ConfigError(f"seed: mandatory for stochastic kind {self.kind!r}")
        _VALIDATORS[self.kind](self.params)

    @staticmethod
    def from_json(obj: dict, path: str = "<config>") -> "ExperimentConfig":
        try:
            cfg = ExperimentConfig(
                kind=obj["kind"], params=obj.get("params", {}),
                seed=obj.get("seed"), out=obj.get("out", "."),
                tol=float(obj.get("tol", 0.02)), name=obj.get("name", ""))
            cfg.validate()
            return cfg
        except ConfigError:
            raise
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
    return v


def _integer(where: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: must be an integer, got {v!r}")
    return v


def _positive(where: str, v):
    if not (math.isfinite(_number(where, v)) and v > 0):
        raise ConfigError(f"{where}: must be positive and finite, got {v!r}")


def _depth(where: str, v):
    if _integer(where, v) < 0:
        raise ConfigError(f"{where}: must be a non-negative integer, got {v!r}")


def _numbers(where: str, v, dim: int | None = None):
    """A nonempty list of numbers, such as a point (of ``dim`` coordinates
    when given)."""
    if (not isinstance(v, (list, tuple)) or not v
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in v)):
        raise ConfigError(f"{where}: must be a list of numbers, got {v!r}")
    if dim is not None and len(v) != dim:
        raise ConfigError(f"{where}: must have {dim} coordinates, got {v!r}")
    return v


def _points(where: str, v) -> list:
    """A nonempty list of points of one dimension, such as a curve."""
    if not isinstance(v, (list, tuple)) or not v:
        raise ConfigError(f"{where}: must be a list of points, got {v!r}")
    if len({len(_numbers(where, q)) for q in v}) > 1:
        raise ConfigError(f"{where}: points of different dimensions, got {v!r}")
    return v


def _validate_modulus(p: dict):
    mode = p.get("mode", "scene")
    if mode == "scene":
        _need(p, "scene")
    elif mode == "reciprocal":
        _need(p, "radii", "grid")
    elif mode == "refinement":
        _need(p, "grids")
    else:
        raise ConfigError(f"params.mode: unknown modulus mode {mode!r}")


def _validate_covering(p: dict):
    _need(p, "runs", "n_pairs", "M", "map")
    if p["map"] not in cover.NAMED_MAPS:
        raise ConfigError(f"params.map: unknown map {p['map']!r}")


def _validate_distortion(p: dict):
    _need(p, "map")
    if p["map"] not in cover.NAMED_MAPS:
        raise ConfigError(f"params.map: unknown map {p['map']!r}")


def _validate_qh(p: dict):
    _need(p, "domain", "mode")
    mode = p["mode"]
    if mode == "distance":
        _need(p, "x1", "x2")
        _numbers("params.x1", p["x1"], 2)
        _numbers("params.x2", p["x2"], 2)
        _positive("params.pitch", p.get("pitch", 0.01))
    elif mode == "whitney":
        _depth("params.max_depth", p.get("max_depth", 6))
    elif mode == "shadow-sum":
        _numbers("params.x0", p.get("x0", (0.0, 0.0)), 2)
        levels = p.get("levels", [])
        if not isinstance(levels, list):
            raise ConfigError(f"params.levels: must be a list of objects, got {levels!r}")
        for k, lev in enumerate(levels):
            where = f"params.levels[{k}]"
            _need(_object(where, lev), "max_depth", "qh_pitch", where=where)
            _depth(f"{where}.max_depth", lev["max_depth"])
            _positive(f"{where}.qh_pitch", lev["qh_pitch"])
    else:
        raise ConfigError(f"params.mode: unknown quasihyperbolic mode {mode!r}")


def _validate_sets_probe(p: dict):
    _need(p, "obstacle", "scene", "budgets")
    if not isinstance(p["budgets"], list):
        raise ConfigError("params.budgets: must be a list of integers")


def _validate_survey(p: dict):
    _need(p, "type", "samples")
    if p["type"] not in ("translation", "radial", "avg-line-integral"):
        raise ConfigError(f"params.type: unknown survey type {p['type']!r}")
    if p["type"] != "avg-line-integral":
        _need(p, "E")
    n = p["samples"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"params.samples: must be a positive integer, got {n!r}")


_VALIDATORS = {
    "modulus": _validate_modulus,
    "covering": _validate_covering,
    "distortion": _validate_distortion,
    "quasihyperbolic": _validate_qh,
    "sets-probe": _validate_sets_probe,
    "survey": _validate_survey,
}


# ---------------------------------------------------------------------------
# Scene / domain / set construction from config records


def build_scene(spec: dict) -> modfam.GridScene:
    kind = spec.get("builder", "file")
    if kind == "annulus":
        return modfam.annulus_scene(spec["r"], spec["R"], spec.get("grid", 256),
                                    half=spec.get("half"))
    if kind == "rectangle":
        return modfam.rectangle_scene(spec.get("width", 2.0),
                                      spec.get("height", 1.0),
                                      spec.get("grid", 256))
    if kind == "square-ring":
        return modfam.square_ring_scene(spec["r"], spec["R"], spec.get("grid", 192))
    if kind == "file":
        with open(spec["path"]) as fh:
            return modfam.GridScene.from_json(json.load(fh))
    raise ConfigError(f"scene.builder: unknown builder {kind!r}")


def build_domain(spec: dict) -> qhyp.PolygonDomain:
    kind = spec.get("builder", "disk")
    if kind == "disk":
        return qhyp.disk_domain(spec.get("radius", 1.0), spec.get("vertices", 128))
    if kind == "cusp":
        return qhyp.cusp_domain(spec.get("exponent", 8.0))
    if kind == "comb":
        return qhyp.comb_domain(spec.get("teeth", 4))
    if kind == "polygon":
        return qhyp.PolygonDomain(spec["outer"], spec.get("holes", ()))
    raise ConfigError(f"domain.builder: unknown builder {kind!r}")


def build_obstacle(spec: dict, scene: modfam.GridScene) -> np.ndarray:
    kind = spec["kind"]
    if kind == "circle":
        return sets.circle_obstacle_mask(scene, spec.get("center", (0.0, 0.0)),
                                         spec["radius"])
    if kind == "circle-minus-cell":
        mask = sets.circle_obstacle_mask(scene, spec.get("center", (0.0, 0.0)),
                                         spec["radius"])
        cell = _cell_at(scene, spec["gap_at"])
        mask[cell] = False
        return mask
    if kind == "cantor-product":
        c = sets.make_cantor(sets.CantorSpec.fat(spec.get("depth", 6))
                             if spec.get("fat", True)
                             else sets.CantorSpec.middle_thirds(spec.get("depth", 6)))
        span = c.intervals[-1][1] - c.intervals[0][0]
        a = spec.get("from", 0.8)
        b = spec.get("to", 1.2)
        scale = (b - a) / float(span)
        iv = [(a + (lo - c.intervals[0][0]) * scale,
               a + (hi - c.intervals[0][0]) * scale) for lo, hi in c.intervals]
        g = sets.IntervalUnionSet(iv, c.limit_measure_zero)
        f = sets.interval_set(spec.get("y0", -10.0), spec.get("y1", 10.0))
        return sets.raster_mask(sets.product_set(g, f), scene)
    if kind == "cell":
        mask = np.zeros(scene.shape, bool)
        mask[_cell_at(scene, spec["at"])] = True
        return mask
    raise ConfigError(f"obstacle.kind: unknown kind {kind!r}")


def _cell_at(scene: modfam.GridScene, point) -> tuple:
    p = np.asarray(point, float)
    if p.shape == (scene.dim,) and np.isfinite(p).all():
        cell = tuple(int((x - o) // scene.spacing) for x, o in zip(p, scene.origin))
        if all(0 <= c < n for c, n in zip(cell, scene.shape)):
            return cell
    raise ConfigError(f"obstacle point {p.tolist()} lies outside the grid")


# ---------------------------------------------------------------------------
# Experiment implementations


def _run_modulus(cfg: ExperimentConfig, artifacts: dict) -> dict:
    p = cfg.params
    mode = p.get("mode", "scene")
    if mode == "scene":
        scene = build_scene(p["scene"])
        constraint = modfam.UNCONSTRAINED
        if "obstacle" in p:
            mask = build_obstacle(p["obstacle"], scene)
            cmode = p.get("constraint", "avoid")
            constraint = modfam.CurveConstraint(
                cmode, mask, p.get("budget", 0))
        res = modfam.discrete_modulus(scene, constraint)
        out = {"value": res.value, "infeasible": res.infeasible}
        sc = p["scene"]
        if sc.get("builder") == "annulus":
            exact = modfam.ring_modulus_exact(2, sc["r"], sc["R"])
            out["anchor"] = {"name": "ring modulus w_{n-1} log(R/r)^{1-n}",
                             "value": exact,
                             "relative_error": (res.value - exact) / exact}
        if sc.get("builder") == "rectangle":
            exact = sc.get("height", 1.0) / sc.get("width", 2.0)
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
            artifacts["density"] = res.density
        return out
    if mode == "reciprocal":
        radii = p["radii"]
        grid = p["grid"]
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
    # refinement ladder forcing paths through one cell
    values = []
    for n in p["grids"]:
        scene = modfam.annulus_scene(p.get("r", 1.0), p.get("R", math.e), n)
        m = (p.get("r", 1.0) + p.get("R", math.e)) / 2
        mask = sets.circle_obstacle_mask(scene, (0.0, 0.0), m)
        gap = _cell_at(scene, (m, 0.0))
        mask[gap] = False
        res = modfam.discrete_modulus(scene, modfam.CurveConstraint("avoid", mask))
        values.append({"grid": n, "value": res.value})
    return {"ladder": values,
            "anchor": {"name": "point families carry zero modulus"}}


def _run_covering(cfg: ExperimentConfig, artifacts: dict) -> dict:
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    runs = []
    all_ok = True
    for k in range(p["runs"]):
        fam = cover.random_paired_family(p["n_pairs"], p["M"], p["map"],
                                         seed=int(rng.integers(2 ** 31)))
        res = cover.egg_yolk_cover(fam)
        ver = res.report["verified"]
        all_ok &= all(ver.values())
        runs.append({"verified": ver, "achieved_constant": res.achieved_constant,
                     "output_pairs": len(res.pairs)})
        if k == 0:
            artifacts["covering"] = res.pairs
            first_cover = res.to_json()
    if not all_ok:
        raise InvariantBreach("covering postconditions failed on some run")
    return {"runs": runs, "all_verified": all_ok, "first_run": first_cover,
            "anchor": {"name": "egg-yolk covering: disjoint yolks, same union"}}


def _run_distortion(cfg: ExperimentConfig, artifacts: dict) -> dict:
    p = cfg.params
    mat, _ = cover.NAMED_MAPS[p["map"]]
    f = distort.linear_sampled_map(mat, pitch=p.get("pitch", 0.05))
    out: dict = {"map": p["map"]}
    if "rings" in p:
        rings = [((0.0, 0.0), r0, r1) for r0, r1 in p["rings"]]
        out["ring_qc"] = distort.ring_qc_test(f, rings, p.get("C1", 6.0),
                                              grid_n=p.get("grid", 160))
        svals = np.linalg.svd(mat, compute_uv=False)
        out["anchor"] = {"name": "K-quasiconformal ring bound md f(G) <= K md G",
                         "K": float(svals[0] / svals[-1])}
        return out
    rng = np.random.default_rng(cfg.seed or 0)
    pts = rng.uniform(-1.0, 1.0, size=(p.get("probes", 25), 2))
    ladder = p.get("ladder", [0.15, 0.3, 0.6])
    hs, es = [], []
    for x in pts:
        hs.append(distort.metric_distortion(f, x, ladder).h_estimate)
        es.append(distort.eccentric_distortion(f, x, p.get("radius", 0.5)))
    svals = np.linalg.svd(mat, compute_uv=False)
    out.update({
        "metric_distortion": {"mean": float(np.mean(hs)), "max": float(np.max(hs)),
                              "min": float(np.min(hs))},
        "eccentric_distortion": {"mean": float(np.mean(es)), "max": float(np.max(es))},
        "anchor": {"name": "singular value ratio of the linear map",
                   "value": float(svals[0] / svals[-1])},
    })
    return out


def _run_qh(cfg: ExperimentConfig, artifacts: dict) -> dict:
    p = cfg.params
    domain = build_domain(p["domain"])
    mode = p["mode"]
    if mode == "distance":
        res = qhyp.qh_distance(domain, p["x1"], p["x2"],
                               pitch=p.get("pitch", 0.01))
        out = {"value": res["value"], "infeasible": res["infeasible"]}
        if "anchor_value" in p:
            out["anchor"] = {"name": "radial quasihyperbolic integral",
                             "value": p["anchor_value"],
                             "relative_error": (res["value"] - p["anchor_value"])
                             / p["anchor_value"]}
        return out
    if mode == "whitney":
        decomp = qhyp.whitney_decompose(domain, p.get("max_depth", 6))
        rep = decomp.verify_exact()
        if rep["lower_violations"] or rep["upper_violations"]:
            raise InvariantBreach(_whitney_breach(decomp, rep))
        artifacts["whitney"] = decomp
        return {"cubes": rep["cubes"], "truncated": decomp.truncated,
                "lower_violations": len(rep["lower_violations"]),
                "upper_violations": len(rep["upper_violations"]),
                "neighbor_ratio_ok": rep["neighbor_ratio_ok"],
                "anchor": {"name": "diam(Q) <= dist(Q, boundary) <= 4 diam(Q)"}}
    levels = []
    for lev in p.get("levels", [{"max_depth": 6, "qh_pitch": 0.02}]):
        d = qhyp.shadow_sum_diagnostic(domain, p.get("x0", (0.0, 0.0)),
                                       max_depth=lev["max_depth"],
                                       qh_pitch=lev["qh_pitch"])
        levels.append(d)
    return {"levels": levels,
            "anchor": {"name": "shadow sum bounded by quasihyperbolic integral"}}


def _whitney_breach(decomp, rep: dict) -> str:
    """Name each failed Whitney check and its first offending cubes."""
    parts = []
    for key, check in (("lower_violations", "lower diam(Q) <= dist(Q, boundary)"),
                       ("upper_violations", "upper dist(Q, boundary) <= 4 diam(Q)")):
        bad = rep[key]
        if bad:
            first = ", ".join(f"#{k} (depth {decomp.cubes[k].depth}, "
                              f"ij {decomp.cubes[k].ij})" for k in bad[:3])
            parts.append(f"{check} fails on {len(bad)} cube(s), first {first}")
    return "Whitney inequalities violated: " + "; ".join(parts)


def _run_sets_probe(cfg: ExperimentConfig, artifacts: dict) -> dict:
    p = cfg.params
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


def _run_survey(cfg: ExperimentConfig, artifacts: dict) -> dict:
    p = cfg.params
    if p["type"] == "avg-line-integral":
        curve = PolyCurve(_points("params.curve",
                                  p.get("curve", [[0.0, 0.0], [1.0, 0.0]])))
        rho = _density_from_spec(p.get("density", {"kind": "linear-x"}))
        out = {}
        for r in _numbers("params.radii", p.get("radii", [0.1, 0.01])):
            out[f"r={r}"] = modfam.avg_line_integral(rho, curve, r,
                                                     p["samples"], seed=cfg.seed)
        return {"averages": out,
                "anchor": {"name": "averaged line integrals converge to the integral"}}
    E = _survey_set_from_spec(p["E"])
    if p["type"] == "translation":
        curve = PolyCurve(_points("params.curve",
                                  p.get("curve", [[0.0, 0.0], [0.0, 1.0]])))
        n_max = _integer("params.n_max", p.get("n_max", 16))
        table = modfam.translation_survey(E, curve, n_max, p["samples"], seed=cfg.seed)
        table["anchor"] = {"name": "N * m(F_N) bounded by len(curve) * H^{n-1}(E)"}
        artifacts["survey_table"] = table["table"]
        return table
    x = _numbers("params.x", p.get("x", (0.0, 0.0)))
    r = _number("params.r", p.get("r", 0.5))
    R = _number("params.R", p.get("R", 2.0))
    n_max = _integer("params.n_max", p.get("n_max", 8))
    table = modfam.radial_survey(E, x, r, R, n_max, p["samples"], seed=cfg.seed)
    table["anchor"] = {"name": "directional measure decays like 1/N"}
    artifacts["survey_table"] = table["table"]
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
            [sets.CirclePrim(tuple(center), _number("E.radius", spec["radius"]))])
    if kind == "cantor-rows":
        depth = _integer("E.depth", spec.get("depth", 5))
        c = sets.make_cantor(sets.CantorSpec.fat(depth))
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
    config.validate()
    os.makedirs(config.out, exist_ok=True)
    t0 = time.time()
    artifacts: dict = {}
    results = _RUNNERS[config.kind](config, artifacts)
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
    _write_text(os.path.join(config.out, "run.meta.json"),
                json.dumps({"elapsed_s": time.time() - t0,
                            "finished_unix": time.time()}, indent=2) + "\n")
    _write_tables(config, results, artifacts)
    _write_figures(config, artifacts)
    modfam.release_free_memory()    # the next experiment starts from the live set
    return 0


def _write_tables(config: ExperimentConfig, results: dict, artifacts: dict) -> None:
    rows = []
    if "survey_table" in artifacts:
        rows = [("N", "measure", "ci95")]
        rows += [(r["N"], r["measure"], r["ci95"]) for r in artifacts["survey_table"]]
    elif config.kind == "modulus" and "ladder" in results:
        rows = [("grid", "value")]
        rows += [(r["grid"], r["value"]) for r in results["ladder"]]
    elif config.kind == "covering":
        rows = [("run", "achieved_constant", "output_pairs")]
        rows += [(i, r["achieved_constant"], r["output_pairs"])
                 for i, r in enumerate(results["runs"])]
    if rows:
        text = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
        _write_text(os.path.join(config.out, "data.csv"), text)
    if "density" in artifacts:
        _atomic_write(os.path.join(config.out, "density.csv"),
                      artifacts["density"].to_csv)
    if "whitney" in artifacts:
        _atomic_write(os.path.join(config.out, "cubes.csv"),
                      artifacts["whitney"].to_csv)


def _write_figures(config: ExperimentConfig, artifacts: dict) -> None:
    path = os.path.join(config.out, "figure.svg")
    if "density" in artifacts and artifacts["density"].values.ndim == 2:
        _atomic_write(path, lambda tmp: render.svg_density_heatmap(
            artifacts["density"], tmp))
    elif "covering" in artifacts:
        _atomic_write(path, lambda tmp: render.svg_covering(
            artifacts["covering"], tmp))
    elif "whitney" in artifacts:
        decomp = artifacts["whitney"]
        _atomic_write(path, lambda tmp: render.svg_whitney(
            decomp, [q.side for q in decomp.cubes], tmp))


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
            cfg = ExperimentConfig.from_json(obj, args.config)
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
        cfg.validate()
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
