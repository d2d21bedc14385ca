import copy
import json
import math
import os

import numpy as np
import pytest

from extremal import cli, modfam, qhyp
from extremal.cli import (ConfigError, ExperimentConfig, builtin_experiments,
                          list_experiments, main, run_experiment)


def test_list_catalog_is_complete(capsys):
    names = list_experiments()
    out = capsys.readouterr().out
    # one bundled config per acceptance scenario, at least
    assert len(names) >= 12
    for required in ("annulus-2d", "ring-reciprocal", "eggyolk-random",
                     "disk-qh", "cantor-product-probe"):
        assert required in names
        assert required in out


def test_every_bundled_config_validates():
    for name, obj in builtin_experiments().items():
        cfg = ExperimentConfig.from_json(dict(obj), name)
        assert cfg.kind in ExperimentConfig.KINDS


def test_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "nope", "params": {}}))
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"kind": "modulus", "params": {}}))
    assert main(["run", str(missing)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc = main(["run", str(broken)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ":1:" in err      # line-anchored message


def test_stochastic_kind_requires_seed(tmp_path):
    obj = {"kind": "covering",
           "params": {"runs": 1, "n_pairs": 3, "M": 4.0, "map": "identity"}}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(obj)
    obj["seed"] = 5
    ExperimentConfig.from_json(obj)


def test_invariant_breach_exits_three(tmp_path, monkeypatch, capsys):
    def boom(cfg, artifacts):
        raise cli.InvariantBreach("synthetic")
    monkeypatch.setitem(cli._RUNNERS, "modulus", boom)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "kind": "modulus", "out": str(tmp_path),
        "params": {"mode": "scene",
                   "scene": {"builder": "rectangle", "grid": 24}}}))
    assert main(["run", str(cfg_path)]) == 3
    assert "invariant breach" in capsys.readouterr().err


def test_whitney_breach_names_check_and_cubes(tmp_path, monkeypatch, capsys):
    def fake_verify(self):
        return {"cubes": len(self.cubes), "lower_violations": [],
                "upper_violations": [2, 5], "neighbor_ratio_ok": True}
    monkeypatch.setattr(qhyp.WhitneyDecomposition, "verify_exact", fake_verify)
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({
        "kind": "quasihyperbolic", "out": str(tmp_path),
        "params": {"domain": {"builder": "disk"}, "mode": "whitney",
                   "max_depth": 4}}))
    assert main(["run", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    dec = qhyp.whitney_decompose(qhyp.disk_domain(), 4)
    q = dec.cubes[2]
    assert "upper dist(Q, boundary) <= 4 diam(Q) fails on 2 cube(s)" in err
    assert f"#2 (depth {q.depth}, ij {q.ij})" in err
    assert "#5 (depth" in err
    assert "lower" not in err


def test_results_are_byte_identical_for_same_seed(tmp_path):
    cfg = {"kind": "covering", "seed": 9, "tol": 0.02,
           "params": {"runs": 2, "n_pairs": 5, "M": 4.0, "map": "identity"}}
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        c = ExperimentConfig.from_json(dict(cfg, out=str(d)))
        assert run_experiment(c) == 0
        outs.append((d / "results.json").read_bytes())
        assert (d / "run.meta.json").exists()   # timestamps live in the sidecar
        assert b"unix" not in outs[-1]
    assert outs[0] == outs[1]


def test_failed_figure_write_leaves_no_partial_file(tmp_path, monkeypatch):
    def partial_then_fail(density, path):
        with open(path, "w") as fh:
            fh.write("<svg")
        raise OSError("disk full")
    monkeypatch.setattr(cli.render, "svg_density_heatmap", partial_then_fail)
    cfg = ExperimentConfig.from_json({
        "kind": "modulus", "out": str(tmp_path),
        "params": {"mode": "scene",
                   "scene": {"builder": "rectangle", "grid": 24}}})
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg)
    # no figure.svg and no figure.svg.tmp
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "density.csv", "results.json", "run.meta.json"]


def test_infeasible_family_is_success_with_flag(tmp_path):
    cfg = ExperimentConfig.from_json({
        "kind": "modulus", "out": str(tmp_path), "tol": 0.05,
        "params": {"mode": "scene",
                   "scene": {"builder": "annulus", "r": 1.0, "R": math.e,
                             "grid": 64},
                   "obstacle": {"kind": "circle", "radius": (1 + math.e) / 2},
                   "constraint": "avoid"}})
    assert run_experiment(cfg) == 0
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["results"]["infeasible"] is True
    assert results["results"]["value"] == 0.0


def test_cli_run_by_bundled_name(tmp_path):
    rc = main(["run", "rectangle-modulus", "--out", str(tmp_path),
               "--tol", "0.05"])
    assert rc == 0
    results = json.loads((tmp_path / "results.json").read_text())
    assert abs(results["results"]["value"] - 0.5) < 0.05
    assert (tmp_path / "figure.svg").exists()
    assert (tmp_path / "density.csv").exists()


SMOKE_OVERRIDES = {
    "annulus-2d": {("params", "scene", "grid"): 64},
    "annulus-2d-128": {("params", "scene", "grid"): 64},
    "ring-reciprocal": {("params", "grid"): 96},
    "square-ring-bound": {("params", "scene", "grid"): 64},
    "rectangle-modulus": {("params", "scene", "grid"): 64},
    "point-family-refinement": {("params", "grids"): [24, 48]},
    "eggyolk-random": {("params", "runs"): 2, ("params", "n_pairs"): 6},
    "eggyolk-conformal": {("params", "runs"): 2, ("params", "n_pairs"): 6},
    "distortion-diag": {("params", "probes"): 4},
    "distortion-identity": {("params", "probes"): 4},
    "ring-qc-diag": {("params", "rings"): [[0.5, 1.6]], ("params", "grid"): 96},
    "disk-qh": {("params", "pitch"): 0.04},
    "whitney-disk": {("params", "max_depth"): 5},
    "shadow-sum-disk": {("params", "levels"): [{"max_depth": 5, "qh_pitch": 0.05}]},
    "shadow-sum-cusp": {("params", "levels"): [{"max_depth": 5, "qh_pitch": 0.05}]},
    "cned-circle": {("params", "scene", "grid"): 64},
    "cantor-product-probe": {("params", "scene", "grid"): 64,
                             ("params", "budgets"): [1, 4]},
    "translation-survey": {("params", "samples"): 3000},
    "radial-survey": {("params", "samples"): 3000},
    "avg-line-integral": {("params", "samples"): 200},
}


def _apply_override(obj, path, value):
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("name", sorted(builtin_experiments()))
def test_bundled_configs_execute(name, tmp_path):
    """Every catalog entry runs end to end (scaled-down copies for speed)."""
    obj = copy.deepcopy(builtin_experiments()[name])
    obj["name"] = name
    obj["out"] = str(tmp_path)
    obj.setdefault("seed", 1)
    for path, value in SMOKE_OVERRIDES.get(name, {}).items():
        _apply_override(obj, path, value)
    cfg = ExperimentConfig.from_json(obj, name)
    assert run_experiment(cfg) == 0
    results = json.loads((tmp_path / "results.json").read_text())
    assert "anchor" in json.dumps(results["results"])


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_two(tol, tmp_path, capsys):
    assert main(["run", "ring-reciprocal", "--out", str(tmp_path), "--tol", tol]) == 2
    assert "tol: must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "results.json").exists()


def _rectangle_with_obstacle(tmp_path, obstacle):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "kind": "modulus", "out": str(tmp_path),
        "params": {"mode": "scene",
                   "scene": {"builder": "rectangle", "grid": 16},
                   "obstacle": obstacle, "constraint": "avoid"}}))
    return str(path)


@pytest.mark.parametrize("obstacle", [
    {"kind": "cell", "at": [-0.3, 0.5]},          # -3 would wrap to cell (13, 4)
    {"kind": "cell", "at": [1.0, 1.0]},           # one past the last row
    {"kind": "cell", "at": [0.5]},
    {"kind": "cell", "at": [float("nan"), 0.5]},
    {"kind": "circle-minus-cell", "center": [1.0, 0.5], "radius": 0.3,
     "gap_at": [2.5, 0.5]}])
def test_obstacle_point_off_the_grid_exits_two(obstacle, tmp_path, capsys):
    assert main(["run", _rectangle_with_obstacle(tmp_path, obstacle)]) == 2
    assert "lies outside the grid" in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, budget, msg", [
    ("sets-probe", "budgets", [1.5], "budget must be an integer, not 1.5"),
    ("sets-probe", "budgets", ["x"], "budget must be an integer, not 'x'"),
    ("sets-probe", "budgets", 3, "params.budgets: must be a list"),
    ("modulus", "budget", 1.5, "budget must be an integer, not 1.5")],
    ids=["float-in-list", "string-in-list", "not-a-list", "float-budget"])
def test_malformed_budget_exits_two(kind, key, budget, msg, tmp_path, capsys):
    # [1.5] used to run as budget 1 under key "1"; the others raised
    params = {"scene": {"builder": "rectangle", "grid": 16},
              "obstacle": {"kind": "cell", "at": [1.0, 0.5]}, key: budget}
    if kind == "modulus":
        params.update(mode="scene", constraint="budget")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": kind, "out": str(tmp_path / "out"),
                                "params": params}))
    assert main(["run", str(path)]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def test_cell_obstacle_marks_the_cell_under_the_point():
    scene = modfam.rectangle_scene(2.0, 1.0, 16)       # spacing 1/8
    mask = cli.build_obstacle({"kind": "cell", "at": [0.3, 0.99]}, scene)
    assert np.argwhere(mask).tolist() == [[2, 7]]


def test_scene_file_with_bad_run_exits_two(tmp_path, capsys):
    # a run off the mask, then runs that are not a pair of integers: [1]
    # failed to unpack, [0.5, 2] and "ab" failed to slice, and [true, 3]
    # marked cells 1 to 3
    for k, (run, msg) in enumerate([
            ([-5, 3], "mask run [-5, 3] does not fit"),
            ([1], "mask run [1] is not a pair of integers"),
            ([0.5, 2], "mask run [0.5, 2] is not a pair of integers"),
            ("ab", "mask run 'ab' is not a pair of integers"),
            ([True, 3], "mask run [True, 3] is not a pair of integers")]):
        scene = modfam.rectangle_scene(2.0, 1.0, 16).to_json()
        scene["masks"]["u"].append(run)
        scene_path = tmp_path / f"scene{k}.json"
        scene_path.write_text(json.dumps(scene))
        cfg_path = tmp_path / f"c{k}.json"
        cfg_path.write_text(json.dumps({
            "kind": "modulus", "out": str(tmp_path / str(k)),
            "params": {"mode": "scene",
                       "scene": {"builder": "file", "path": str(scene_path)}}}))
        assert main(["run", str(cfg_path)]) == 2, run
        assert msg in capsys.readouterr().err


def _survey_config(tmp_path, **params):
    path = tmp_path / "survey.json"
    path.write_text(json.dumps({
        "kind": "survey", "seed": 3, "out": str(tmp_path / "out"),
        "params": {"type": "avg-line-integral", "samples": 20,
                   "radii": [0.1], **params}}))
    return str(path)


@pytest.mark.parametrize("samples", [0, -4, "abc", 2.5, True, None, [10]])
def test_survey_samples_must_be_a_positive_integer(samples, tmp_path, capsys):
    # 0 wrote "mean": NaN and exited 0; "abc" and 2.5 ended in a traceback
    assert main(["run", _survey_config(tmp_path, samples=samples)]) == 2
    assert "params.samples: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("a", [0, 0.0, 1, 1.5, -0.5, "half", True])
def test_log_ring_radius_outside_unit_interval_exits_two(a, tmp_path, capsys):
    # a = 0 raised ZeroDivisionError; a >= 1 gave a zero or undefined density
    density = {"kind": "log-ring", "a": a}
    assert main(["run", _survey_config(tmp_path, density=density)]) == 2
    assert "density.a: must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


@pytest.mark.parametrize("density", [
    {"kind": "constant", "value": "abc"},
    {"kind": "constant", "value": True},
    {"kind": "constant", "value": None},
    {"kind": "linear-x", "clip_lo": "x"},
    {"kind": "linear-x", "clip_hi": False},
    {"kind": "linear-x", "clip_hi": [1.0]}])
def test_non_numeric_density_field_exits_two(density, tmp_path, capsys):
    # a string value ended in a ValueError traceback, a string clip in numpy's
    # _UFuncNoLoopError, both with exit 1
    key = next(k for k in density if k != "kind")
    assert main(["run", _survey_config(tmp_path, density=density)]) == 2
    assert f"density.{key}: must be a number" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


_CIRCLE = {"kind": "circle", "radius": 1.25}


@pytest.mark.parametrize("params", [
    {"type": "radial", "E": _CIRCLE, "x": [0, 0, 0]},
    {"type": "radial", "E": _CIRCLE, "x": [0]},
    {"type": "translation", "E": {"kind": "segments", "segments": [[[0, 0], [1, 0]]]},
     "curve": [[0, 0, 0], [0, 1, 0]]}])
def test_mis_dimensioned_survey_exits_two(params, tmp_path, capsys):
    # a 3-D centre ended in a broadcast ValueError, a 1-D one in KeyError: 1
    # and a 3-D curve in a ValueError, each a traceback with exit 1
    assert main(["run", _survey_config(tmp_path, **params)]) == 2
    assert "-dimensional" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


_SEGMENT = {"kind": "segments", "segments": [[[0, 0], [1, 0]]]}


@pytest.mark.parametrize("params, msg", [
    ({"type": "radial", "E": _CIRCLE, "x": "abc"},
     "params.x: must be a list of numbers, got 'abc'"),
    ({"type": "radial", "E": _CIRCLE, "r": "a"}, "params.r: must be a number"),
    ({"type": "radial", "E": _CIRCLE, "n_max": 2.5},
     "params.n_max: must be an integer, got 2.5"),
    ({"type": "radial", "E": {"kind": "circle", "radius": "z"}},
     "E.radius: must be a number, got 'z'"),
    ({"type": "radial", "E": {"kind": "segments", "segments": [[0, 0]]}},
     "E.segments: must be a list of numbers, got 0"),
    ({"type": "radial", "E": {"kind": "segments", "segments": []}},
     "E.segments: must be a list of point pairs"),
    ({"type": "radial", "E": {"kind": "cantor-rows", "depth": "x"}},
     "E.depth: must be an integer, got 'x'"),
    ({"type": "radial", "E": {"kind": "point"}}, "E.at: missing"),
    ({"type": "radial", "E": 5}, "E: must be an object"),
    ({"type": "radial"}, "params.E: missing"),
    ({"type": "translation", "E": _SEGMENT, "curve": [[0, "q"], [1, 1]]},
     "params.curve: must be a list of numbers, got [0, 'q']"),
    ({"curve": "x"}, "params.curve: must be a list of points, got 'x'"),
    ({"radii": ["a"]}, "params.radii: must be a list of numbers, got ['a']"),
    ({"density": "x"}, "density: must be an object")],
    ids=["x-string", "r-string", "n_max-float", "radius-string", "segment-not-pairs",
         "segments-empty", "depth-string", "point-without-at", "E-not-object",
         "E-missing", "curve-string-coordinate", "curve-string", "radii-string",
         "density-not-object"])
def test_malformed_survey_field_exits_two(params, msg, tmp_path, capsys):
    # each ended in a TypeError, ValueError, KeyError or AttributeError
    # traceback with exit 1
    assert main(["run", _survey_config(tmp_path, **params)]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def _qh_config(tmp_path, **params):
    path = tmp_path / "qh.json"
    path.write_text(json.dumps({
        "kind": "quasihyperbolic", "out": str(tmp_path / "out"),
        "params": {"domain": {"builder": "disk"}, **params}}))
    return str(path)


@pytest.mark.parametrize("params, msg", [
    ({"mode": "distance", "x1": [0, 0]}, "params.x2: missing"),
    ({"mode": "distance", "x1": [0, 0], "x2": [0, 0.5], "pitch": "x"},
     "params.pitch: must be a number, got 'x'"),
    ({"mode": "shadow-sum", "levels": [{"max_depth": 4}]},
     "params.levels[0].qh_pitch: missing"),
    ({"mode": "whitney", "max_depth": "6"},
     "params.max_depth: must be an integer, got '6'"),
    ({"mode": "distance", "x1": [0, 0, 0], "x2": [0, 0.5]},
     "params.x1: must have 2 coordinates"),
    ({"mode": "distance", "x1": [0, 0], "x2": [0, 0.5], "pitch": 0},
     "params.pitch: must be positive and finite, got 0"),
    ({"mode": "whitney", "max_depth": -1},
     "params.max_depth: must be a non-negative integer, got -1"),
    ({"mode": "shadow-sum", "x0": "origin"},
     "params.x0: must be a list of numbers, got 'origin'"),
    ({"mode": "shadow-sum", "levels": {"max_depth": 4, "qh_pitch": 0.02}},
     "params.levels: must be a list of objects"),
    ({"mode": "shadow-sum", "levels": [5]}, "params.levels[0]: must be an object, got 5"),
    ({"mode": "shadow-sum", "levels": [{"max_depth": 4, "qh_pitch": -0.02}]},
     "params.levels[0].qh_pitch: must be positive and finite, got -0.02")],
    ids=["distance-without-x2", "pitch-string", "level-without-qh_pitch",
         "max_depth-string", "x1-3d", "pitch-zero", "max_depth-negative",
         "x0-string", "levels-not-list", "level-not-object", "qh_pitch-negative"])
def test_malformed_quasihyperbolic_field_exits_two(params, msg, tmp_path, capsys):
    # the first four ended in a KeyError or TypeError traceback with exit 1
    assert main(["run", _qh_config(tmp_path, **params)]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def test_log_ring_survey_runs(tmp_path):
    density = {"kind": "log-ring", "a": 0.5}
    assert main(["run", _survey_config(tmp_path, density=density,
                                       curve=[[0.5, 0.0], [1.0, 0.0]])]) == 0
    with open(tmp_path / "out" / "results.json") as fh:
        res = json.load(fh)
    # 1/(|x| log 2) integrates to 1 along the radius; translates by up to 0.1
    # leave part of the segment outside the ring
    assert 0.8 < res["results"]["averages"]["r=0.1"]["mean"] <= 1.0 + 1e-6


@pytest.mark.parametrize("kind, want", [
    ("constant", [1.0, 1.0, 1.0]),
    ("linear-x", [0.3, -100.0, 100.0]),
    ("log-ring", [1.0 / (0.5 * math.log(2)), 0.0, 0.0])])
def test_density_specs_map_point_arrays(kind, want):
    pts = np.array([[0.3, 0.4], [-200.0, 0.0], [150.0, 0.0]])
    got = cli._density_from_spec({"kind": kind})(pts)
    assert got.shape == (3,)
    assert got.tolist() == pytest.approx(want, rel=1e-15)
