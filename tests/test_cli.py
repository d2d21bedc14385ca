import base64
import copy
import json
import math
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from extremal import cli, cover, distort, modfam, qhyp, sets
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
        assert cfg.kind in cli._RUNNERS


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


@pytest.mark.parametrize("seed, argv", [
    ("x", []), (1.5, []), (-1, []), (True, []), (None, ["--seed", "-1"])],
    ids=["string", "float", "negative", "bool", "negative-flag"])
def test_bad_seed_exits_two(seed, argv, tmp_path, capsys):
    # "x", 1.5 and -1 ended in a numpy TypeError or ValueError traceback
    # with exit 1, and true ran to exit 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "kind": "covering", "seed": seed if seed is not None else 7,
        "out": str(tmp_path / "out"),
        "params": {"runs": 1, "n_pairs": 3, "M": 4.0, "map": "identity"}}))
    assert main(["run", str(path), *argv]) == 2
    assert "seed: must be " in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


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
    dec = qhyp.whitney_decompose(qhyp.disk_domain(1.0, 128), 4)
    depth, i, j = dec.cubes[2].tolist()
    assert "upper dist(Q, boundary) <= 4 diam(Q) fails on 2 cube(s)" in err
    assert f"#2 (depth {depth}, ij ({i}, {j}))" in err
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
    # no figure.svg and no figure.svg.tmp; run.meta.json is written last
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "density.csv", "results.json"]


def test_run_meta_times_the_whole_run(tmp_path):
    cfg = ExperimentConfig.from_json({
        "kind": "modulus", "out": str(tmp_path),
        "params": {"mode": "scene",
                   "scene": {"builder": "rectangle", "grid": 24}}})
    assert run_experiment(cfg) == 0
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert sorted(meta) == ["artifacts_s", "elapsed_s", "finished_unix", "solve_s"]
    assert meta["solve_s"] > 0 and meta["artifacts_s"] > 0
    assert meta["solve_s"] + meta["artifacts_s"] <= meta["elapsed_s"]


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
    assert (tmp_path / "density.csv").exists()
    # one <image> whose PNG is one pixel per cell of the density grid
    svg = (tmp_path / "figure.svg").read_text()
    assert svg.count("<image") == 1
    png = base64.b64decode(svg.split("data:image/png;base64,")[1].split('"')[0])
    assert png[12:16] == b"IHDR"
    scene = cli.build_scene(builtin_experiments()["rectangle-modulus"]["params"]["scene"])
    assert struct.unpack(">II", png[16:24]) == scene.shape


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


# the files a bundled config writes besides results.json and run.meta.json
WRITES = {
    **dict.fromkeys(["annulus-2d", "annulus-2d-128", "rectangle-modulus",
                     "square-ring-bound"], ["density.csv", "figure.svg"]),
    **dict.fromkeys(["point-family-refinement", "translation-survey",
                     "radial-survey"], ["data.csv"]),
    **dict.fromkeys(["eggyolk-random", "eggyolk-conformal"], ["data.csv", "figure.svg"]),
    **dict.fromkeys(["whitney-disk", "whitney-cusp", "whitney-comb"],
                    ["cubes.csv", "figure.svg"]),
}


def _apply_override(obj, path, value):
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("name", sorted(builtin_experiments()))
def test_bundled_configs_execute(name, tmp_path):
    """Every catalog entry runs end to end (scaled-down copies for speed)
    and writes exactly its files."""
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
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["results.json", "run.meta.json", *WRITES.get(name, [])])


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_two(tol, tmp_path, capsys):
    assert main(["run", "ring-reciprocal", "--out", str(tmp_path), "--tol", tol]) == 2
    assert "tol: must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "results.json").exists()


def _rectangle_modulus(tmp_path, **top) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "kind": "modulus", "out": str(tmp_path / "out"),
        "params": {"mode": "scene", "scene": {"builder": "rectangle", "grid": 16}},
        **top}))
    return str(path)


@pytest.mark.parametrize("field, value, msg", [
    ("tol", "0.5", "tol: must be a number, got '0.5'"),
    ("tol", True, "tol: must be a number, got True"),
    ("out", 5, "out: must be a string, got 5"),
    ("name", 5, "name: must be a string, got 5")],
    ids=["tol-string", "tol-bool", "out-int", "name-int"])
def test_malformed_top_level_field_exits_two_before_solving(field, value, msg, tmp_path,
                                                            monkeypatch, capsys):
    # "tol": "0.5" and true ran with tol 0.5 and 1.0, "name": 5 ran, and
    # "out": 5 solved and then ended in a TypeError traceback with exit 1
    def solve(*args, **kwargs):
        raise AssertionError("solved before the config was checked")
    monkeypatch.setattr(modfam, "discrete_modulus", solve)
    monkeypatch.chdir(tmp_path)
    assert main(["run", _rectangle_modulus(tmp_path, **{field: value})]) == 2
    assert msg in capsys.readouterr().err
    assert list(tmp_path.rglob("results.json")) == []


def test_integer_tol_records_as_a_float(tmp_path):
    assert main(["run", _rectangle_modulus(tmp_path, tol=1)]) == 0
    tol = json.loads((tmp_path / "out" / "results.json").read_text())["tol"]
    assert type(tol) is float and tol == 1.0


def _rectangle_with_obstacle(tmp_path, obstacle):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "kind": "modulus", "out": str(tmp_path),
        "params": {"mode": "scene",
                   "scene": {"builder": "rectangle", "grid": 16},
                   "obstacle": obstacle, "constraint": "avoid"}}))
    return str(path)


@pytest.mark.parametrize("obstacle, msg", [
    ({"kind": "cell", "at": [-0.3, 0.5]},         # -3 would wrap to cell (13, 4)
     "obstacle.at: point [-0.3, 0.5] lies outside the grid"),
    ({"kind": "cell", "at": [1.0, 1.0]},          # one past the last row
     "obstacle.at: point [1.0, 1.0] lies outside the grid"),
    ({"kind": "cell", "at": [0.5]}, "obstacle.at: must have 2 coordinates, got [0.5]"),
    ({"kind": "cell", "at": [float("nan"), 0.5]}, "obstacle.at: must be finite, got nan"),
    ({"kind": "circle-minus-cell", "center": [1.0, 0.5], "radius": 0.3,
      "gap_at": [2.5, 0.5]}, "obstacle.gap_at: point [2.5, 0.5] lies outside the grid"),
    # the cell index overflowed to inf and int() raised OverflowError
    ({"kind": "cell", "at": [1e308, 0.5]},
     "obstacle.at: point [1e+308, 0.5] lies outside the grid")],
    ids=[f"obstacle{k}" for k in range(6)])
def test_obstacle_point_off_the_grid_exits_two(obstacle, msg, tmp_path, capsys):
    assert main(["run", _rectangle_with_obstacle(tmp_path, obstacle)]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "results.json").exists()


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


def _with_run(run):
    return lambda s: {**s, "masks": {**s["masks"], "u": s["masks"]["u"] + [run]}}


def test_scene_file_with_bad_run_exits_two(tmp_path, capsys):
    # a run off the mask, then runs that are not a pair of integers: [1]
    # failed to unpack, [0.5, 2] and "ab" failed to slice, and [true, 3]
    # marked cells 1 to 3; then malformed scene fields: a negative spacing
    # aborted with std::bad_alloc (exit 134), a string spacing, a short
    # origin and a list for the whole file ended in TypeError, a negative
    # shape in ValueError and a missing key in KeyError, each with exit 1
    for k, (edit, msg) in enumerate([
            (_with_run([-5, 3]), "mask run [-5, 3] does not fit"),
            (_with_run([1]), "mask run [1] is not a pair of integers"),
            (_with_run([0.5, 2]), "mask run [0.5, 2] is not a pair of integers"),
            (_with_run("ab"), "mask run 'ab' is not a pair of integers"),
            (_with_run([True, 3]), "mask run [True, 3] is not a pair of integers"),
            (lambda s: {**s, "spacing": -0.125},
             "spacing must be positive and finite, got -0.125"),
            (lambda s: {**s, "spacing": "x"},
             "spacing must be positive and finite, got 'x'"),
            (lambda s: {**s, "origin": [0]}, "origin must be 2 finite numbers, got [0]"),
            (lambda s: [s], "a scene file is an object"),
            (lambda s: {**s, "shape": [-16, 8]},
             "scene shape must be 2 or 3 positive integers, got [-16, 8]"),
            (lambda s: {k: v for k, v in s.items() if k != "spacing"},
             "KeyError('spacing')"),
            (lambda s: {**s, "masks": {"f1": s["masks"]["f1"], "f2": s["masks"]["f2"]}},
             "KeyError('u')")]):
        scene = edit(modfam.rectangle_scene(2.0, 1.0, 16).to_json())
        scene_path = tmp_path / f"scene{k}.json"
        scene_path.write_text(json.dumps(scene))
        cfg_path = tmp_path / f"c{k}.json"
        cfg_path.write_text(json.dumps({
            "kind": "modulus", "out": str(tmp_path / str(k)),
            "params": {"mode": "scene",
                       "scene": {"builder": "file", "path": str(scene_path)}}}))
        assert main(["run", str(cfg_path)]) == 2, msg
        assert msg in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["modulus", "sets-probe"])
@pytest.mark.parametrize("obstacle", [
    {"kind": "circle", "radius": 1.5},
    {"kind": "circle-minus-cell", "radius": 1.5, "gap_at": [1.5, 0.0, 0.0]}],
    ids=["circle", "circle-minus-cell"])
def test_circle_obstacle_on_a_3d_scene_exits_two(kind, obstacle, tmp_path, capsys):
    # the 2-D circle raster broadcast a 2-vector against the 3-D grid and
    # ended in a ValueError traceback with exit 1
    scene_path = tmp_path / "shell.json"
    scene_path.write_text(json.dumps(modfam.annulus_scene_3d(1.0, 2.0, 12).to_json()))
    params = {"scene": {"builder": "file", "path": str(scene_path)},
              "obstacle": obstacle}
    if kind == "modulus":
        params.update(mode="scene", constraint="avoid")
    else:
        params.update(budgets=[1])
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"kind": kind, "out": str(tmp_path / "out"),
                                    "params": params}))
    assert main(["run", str(cfg_path)]) == 2
    assert "circle obstacles live in the plane" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


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
    ({"type": "radial", "E": {"kind": "circle", "radius": -1}},
     "E.radius: must be positive and finite, got -1"),
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
    ids=["x-string", "r-string", "n_max-float", "radius-string", "radius-negative",
         "segment-not-pairs",
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
     "params.levels[0].qh_pitch: must be positive and finite, got -0.02"),
    ({"mode": "distance", "x1": [0, 0], "x2": [0, 0.5], "anchor_value": "x"},
     "params.anchor_value: must be a number, got 'x'"),
    ({"mode": "distance", "x1": [0, 0], "x2": [0, 0.5], "anchor_value": 0},
     "params.anchor_value: must be positive and finite, got 0"),
    ({"mode": "shadow-sum", "x0": [5, 5]}, "x0 must be interior to the domain"),
    ({"mode": "shadow-sum", "x0": [0, float("nan")]}, "params.x0: must be finite, got nan")],
    ids=["distance-without-x2", "pitch-string", "level-without-qh_pitch",
         "max_depth-string", "x1-3d", "pitch-zero", "max_depth-negative",
         "x0-string", "levels-not-list", "level-not-object", "qh_pitch-negative",
         "anchor_value-string", "anchor_value-zero", "x0-outside", "x0-nan"])
def test_malformed_quasihyperbolic_field_exits_two(params, msg, tmp_path, capsys):
    # the first four ended in a KeyError or TypeError traceback with exit 1;
    # anchor_value "x" raised TypeError and 0 ZeroDivisionError after the
    # solve; x0 outside the disk reported the sums seen from the nearest cube
    assert main(["run", _qh_config(tmp_path, **params)]) == 2
    assert msg in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def test_scene_file_shape_is_bounded_before_allocation(tmp_path, capsys, monkeypatch):
    # [10**9, 10**9] ended in numpy's _ArrayMemoryError traceback with exit
    # 1: the masks were allocated before anything bounded the shape
    bound = modfam.MAX_SCENE_CELLS
    scene = modfam.rectangle_scene(2.0, 1.0, 16).to_json()
    at_bound = modfam.GridScene.from_json({**scene, "shape": [2048, bound // 2048]})
    assert at_bound.u.size == bound

    def decode(*args):
        raise AssertionError("masks allocated before the shape was checked")

    monkeypatch.setattr(modfam, "_rle_decode", decode)
    for k, shape in enumerate(([10 ** 9, 10 ** 9], [2048, bound // 2048 + 1],
                               [161, 161, 162])):
        scene_path = tmp_path / f"scene{k}.json"
        scene_path.write_text(json.dumps({**scene, "shape": shape}))
        cfg_path = tmp_path / f"c{k}.json"
        cfg_path.write_text(json.dumps({
            "kind": "modulus", "out": str(tmp_path / str(k)),
            "params": {"mode": "scene",
                       "scene": {"builder": "file", "path": str(scene_path)}}}))
        assert main(["run", str(cfg_path)]) == 2
        assert f"scene shape {shape!r} has more than {bound} cells" \
            in capsys.readouterr().err
        assert not (tmp_path / str(k) / "results.json").exists()


def test_qh_pitch_without_a_grid_node_exits_two(tmp_path, capsys):
    # this ended in dijkstra's "indices out of range" ValueError with exit 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "kind": "quasihyperbolic", "out": str(tmp_path / "out"),
        "params": {"domain": {"builder": "disk"}, "mode": "shadow-sum",
                   "levels": [{"max_depth": 4, "qh_pitch": 50}]}}))
    assert main(["run", str(path)]) == 2
    assert "qh pitch 50 leaves no grid node" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.json").exists()


def test_qh_lattice_is_bounded_before_allocation(tmp_path):
    # pitch 1e-9 asked numpy for a 2e9-point axis (14.9 GiB) and ended in its
    # _ArrayMemoryError traceback with exit 1.  The child's address space is
    # capped at 3 GiB, so a run that allocates fails there, not on the host.
    cfg = {**builtin_experiments()["disk-qh"], "out": str(tmp_path / "out")}
    cfg["params"] = {**cfg["params"], "pitch": 1e-9}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(cli.__file__).parents[1])
    run = subprocess.run([sys.executable, "-m", "extremal.cli", "run", str(path)],
                         preexec_fn=cap, capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert run.returncode == 2, run.stderr
    assert "params.pitch: qh pitch 1e-09 gives a lattice of 4e+18 points" in run.stderr
    assert not (tmp_path / "out" / "results.json").exists()


def test_ring_grid_bound_admits_2047(tmp_path, monkeypatch):
    # 2047 x 2048 cells fit the budget, 2048 x 2049 do not
    seen = []

    def ring_qc_test(f, rings, c1, grid_n):
        seen.append(grid_n)
        return {"C2_observed": 0.0, "C1": c1, "table": []}

    monkeypatch.setattr(distort, "ring_qc_test", ring_qc_test)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "distortion", "out": str(tmp_path / "out"),
                                "params": {"map": "identity", "rings": [[0.5, 1.6]],
                                           "grid": 2047}}))
    assert main(["run", str(path)]) == 0
    assert seen == [2047]


_RECT16 = {"builder": "rectangle", "grid": 16}


@pytest.mark.parametrize("kind, params, msg", [
    ("modulus", {"scene": {"builder": "annulus", "R": 2}}, "scene.r: missing"),
    ("modulus", {"scene": {"builder": "file", "path": "no-such-scene.json"}},
     "scene.path: [Errno 2] No such file or directory: 'no-such-scene.json'"),
    ("modulus", {"scene": {"builder": "rectangle", "grid": "x"}},
     "scene.grid: must be an integer, got 'x'"),
    ("quasihyperbolic", {"domain": {"builder": "disk", "radius": "x"}, "mode": "whitney"},
     "domain.radius: must be a number, got 'x'"),
    ("quasihyperbolic", {"domain": {"builder": "polygon"}, "mode": "whitney"},
     "domain.outer: missing"),
    ("sets-probe", {"scene": _RECT16, "obstacle": {"kind": "circle"}, "budgets": [1]},
     "obstacle.radius: missing"),
    ("covering", {"runs": "x", "n_pairs": 3, "M": 4.0, "map": "identity"},
     "params.runs: must be an integer, got 'x'"),
    ("covering", {"runs": 1, "n_pairs": 3, "M": "x", "map": "identity"},
     "params.M: must be a number, got 'x'"),
    ("distortion", {"map": "identity", "probes": "x"},
     "params.probes: must be an integer, got 'x'"),
    ("modulus", {"mode": "refinement", "grids": [24, "x"]},
     "params.grids: must be a list of numbers, got [24, 'x']"),
    ("modulus", {"mode": "reciprocal", "radii": [1.0, 7.0], "grid": 32},
     "params.radii: must be three increasing radii, got [1.0, 7.0]"),
    ("modulus", {"mode": "reciprocal", "radii": [49, 7, 1], "grid": 32},
     "params.radii: must be three increasing radii, got [49, 7, 1]"),
    ("sets-probe", {"scene": _RECT16, "budgets": [1],
                    "obstacle": {"kind": "cantor-product", "fat": "false"}},
     "obstacle.fat: must be true or false, got 'false'"),
    ("sets-probe", {"scene": _RECT16, "budgets": [1],
                    "obstacle": {"kind": "cantor-product", "depth": 17}},
     "cantor depth 17 outside [0, 16]"),
    ("survey", {"type": "radial", "samples": 10,
                "E": {"kind": "cantor-rows", "depth": 17}},
     "cantor depth 17 outside [0, 16]"),
    ("sets-probe", {"scene": _RECT16, "budgets": [1],
                    "obstacle": {"kind": "cantor-product", "to": math.inf}},
     "obstacle.to: must be finite, got inf"),
    ("sets-probe", {"scene": _RECT16, "budgets": [1],
                    "obstacle": {"kind": "cantor-product", "y0": math.nan}},
     "obstacle.y0: must be finite, got nan"),
    ("survey", {"type": "radial", "samples": 10,
                "E": {"kind": "cantor-rows", "rows": [math.nan]}},
     "E.rows: must be finite, got nan"),
    ("survey", {"type": "radial", "samples": 10,
                "E": {"kind": "segments", "segments": [[[0, 0], [math.inf, 0]]]}},
     "E.segments: must be finite, got inf"),
    # each runner refuses its own unknown mode, map or type and a missing
    # map or E
    ("modulus", {"mode": "ladder", "grids": [24]},
     "params.mode: unknown modulus mode 'ladder'"),
    ("quasihyperbolic", {"domain": {"builder": "disk"}, "mode": "shadow"},
     "params.mode: unknown quasihyperbolic mode 'shadow'"),
    # a Whitney depth of 30 never ended: each level about doubles the time
    ("quasihyperbolic", {"domain": {"builder": "disk"}, "mode": "whitney",
                         "max_depth": 13},
     "params.max_depth: must be at most 12, got 13"),
    ("quasihyperbolic", {"domain": {"builder": "disk"}, "mode": "shadow-sum",
                         "levels": [{"max_depth": 6, "qh_pitch": 0.02},
                                    {"max_depth": 13, "qh_pitch": 0.02}]},
     "params.levels[1].max_depth: must be at most 12, got 13"),
    ("covering", {"runs": 1, "n_pairs": 3, "M": 4.0, "map": "shear"},
     "params.map: unknown map 'shear'"),
    ("distortion", {"map": "shear"}, "params.map: unknown map 'shear'"),
    ("distortion", {"probes": 4}, "params.map: missing"),
    ("survey", {"type": "angular", "samples": 10, "E": _CIRCLE},
     "params.type: unknown survey type 'angular'"),
    ("survey", {"type": "radial", "samples": 10}, "params.E: missing"),
    # these ran on: n_max 0 or below gave an empty table, and a ring with
    # r >= R or r <= 0 or a C1 that is not positive came back as table errors
    ("survey", {"type": "radial", "samples": 10, "E": _CIRCLE, "n_max": 0},
     "params.n_max: must be positive and finite, got 0"),
    ("survey", {"type": "translation", "samples": 10, "E": _CIRCLE, "n_max": -3},
     "params.n_max: must be positive and finite, got -3"),
    ("distortion", {"map": "identity", "rings": [[1.0, 1.5], [1.6, 0.5]]},
     "params.rings[1]: need 0 < r < R, got [1.6, 0.5]"),
    ("distortion", {"map": "identity", "rings": [[0.0, 1.5]]},
     "params.rings[0]: need 0 < r < R, got [0.0, 1.5]"),
    ("distortion", {"map": "identity", "rings": [[1.0, 1.5]], "C1": -1},
     "params.C1: must be positive and finite, got -1"),
    # these ended in a ValueError (math domain error at log2 of a zero span,
    # or a non-numeric point) or an OverflowError traceback with exit 1, or,
    # for M below 2, numpy's "high - low < 0"
    ("quasihyperbolic", {"domain": {"builder": "polygon",
                                    "outer": [[0, 0], [1e-300, 0], [0, 1e-300]]},
                         "mode": "whitney"},
     "polygon outer ring snaps to a single point"),
    ("quasihyperbolic", {"domain": {"builder": "disk", "vertices": 1}, "mode": "whitney"},
     "polygon outer ring snaps to a single point"),
    ("quasihyperbolic", {"domain": {"builder": "polygon",
                                    "outer": [[0, 0], [1e305, 0], [0, 1e305]]},
                         "mode": "whitney"},
     "polygon vertices must be finite on the dyadic grid"),
    ("modulus", {"scene": _RECT16, "obstacle": {"kind": "cell", "at": "ab"}},
     "obstacle.at: must be a list of numbers, got 'ab'"),
    ("covering", {"runs": 1, "n_pairs": 3, "M": 1, "map": "identity"},
     "params.M: must be at least 2, got 1"),
    # distance mode reported "infeasible" with exit 0
    ("quasihyperbolic", {"domain": {"builder": "disk"}, "mode": "distance",
                         "x1": [0.0, 0.0], "x2": [0.5, 0.0], "pitch": 50},
     "qh pitch 50 leaves no grid node"),
    # the 2049^2 scenes were built (about 150 MB) before the run went on;
    # the thin rectangle asked numpy for 8 x 8e9 cells
    ("modulus", {"scene": {"builder": "annulus", "r": 1.0, "R": 2.0, "grid": 2049}},
     "scene shape [2049, 2049] has more than 4194304 cells"),
    ("modulus", {"scene": {"builder": "square-ring", "r": 1.0, "R": 2.0, "grid": 2049}},
     "scene shape [2049, 2049] has more than 4194304 cells"),
    ("modulus", {"scene": {"builder": "rectangle", "width": 1.0, "height": 1.0,
                           "grid": 2049}},
     "scene shape [2049, 2049] has more than 4194304 cells"),
    ("modulus", {"scene": {"builder": "rectangle", "width": 1e-6, "height": 1e3,
                           "grid": 8}},
     "scene shape [8, 8000000000] has more than 4194304 cells"),
    # 2049 gave the ring an "error" entry, C2_observed 0.0 and exit 0, after
    # the inverse lookup of its 2049^2 cell centres; 2048 ran its solve
    ("distortion", {"map": "identity", "rings": [[0.5, 1.6]], "grid": 2049},
     "params.grid: scene shape [2049, 2050] has more than 4194304 cells"),
    ("distortion", {"map": "identity", "rings": [[0.5, 1.6]], "grid": 2048},
     "params.grid: scene shape [2048, 2049] has more than 4194304 cells"),
    # numpy's OverflowError on int(inf) with exit 1; a level's pitch was
    # read only after the Whitney decompositions of the levels before it
    ("quasihyperbolic", {"domain": {"builder": "disk"}, "mode": "distance",
                         "x1": [0.0, 0.0], "x2": [0.5, 0.0], "pitch": 1e-320},
     "params.pitch: qh pitch 1e-320 gives a lattice of inf points, more than 4194304"),
    ("quasihyperbolic", {"domain": {"builder": "disk"}, "mode": "shadow-sum",
                         "levels": [{"max_depth": 4, "qh_pitch": 0.02},
                                    {"max_depth": 4, "qh_pitch": 1e-9}]},
     "params.levels[1].qh_pitch: qh pitch 1e-09 gives a lattice of 4e+18 points")],
    ids=["annulus-without-r", "scene-file-missing", "grid-string", "disk-radius-string",
         "polygon-without-outer", "circle-without-radius", "runs-string",
         "M-string", "probes-string", "grids-string", "reciprocal-two-radii",
         "reciprocal-decreasing-radii", "cantor-fat-string", "cantor-obstacle-depth-17",
         "cantor-survey-depth-17", "cantor-to-infinite", "cantor-y0-nan",
         "cantor-rows-nan", "segment-infinite", "modulus-mode-unknown",
         "quasihyperbolic-mode-unknown", "whitney-depth-13", "shadow-sum-depth-13",
         "covering-map-unknown",
         "distortion-map-unknown", "distortion-without-map", "survey-type-unknown",
         "radial-survey-without-E", "radial-n-max-zero", "translation-n-max-negative",
         "ring-r-above-R", "ring-r-zero", "ring-C1-negative", "polygon-tiny",
         "disk-one-vertex", "polygon-huge", "obstacle-at-string", "covering-M-one",
         "qh-pitch-no-node", "annulus-2049", "square-ring-2049", "rectangle-2049",
         "rectangle-thin", "ring-grid-2049", "ring-grid-2048", "qh-pitch-denormal",
         "qh-level-pitch-tiny"])
def test_malformed_config_key_exits_two_before_solving(kind, params, msg, tmp_path,
                                                        monkeypatch, capsys):
    # each ended in a KeyError, TypeError, IndexError, FileNotFoundError,
    # ZeroDivisionError or numpy _UFuncNoLoopError traceback with exit 1;
    # "fat": "false" built the fat set; depth 17 built 2**17 exact intervals
    # before the run went on; Infinity and NaN, which Python's json reads,
    # ended in a ValueError or OverflowError traceback with exit 1
    def solve(*args, **kwargs):
        raise AssertionError("solved before the config was checked")

    for owner, attr in ((modfam, "discrete_modulus"), (cover, "egg_yolk_cover"),
                        (distort, "metric_distortion"), (qhyp, "whitney_decompose"),
                        (sets, "cned_probe"), (modfam, "radial_survey"),
                        (modfam, "translation_survey"), (distort, "ring_qc_test")):
        monkeypatch.setattr(owner, attr, solve)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": kind, "seed": 1, "out": str(tmp_path / "out"),
                                "params": params}))
    assert main(["run", str(path)]) == 2
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


class _Built(Exception):
    """Raised by a patched builder: the run got past its config checks."""


def _refuse_build(*args, **kwargs):
    raise _Built


@pytest.mark.parametrize("kind, params, builder, cap", [
    ("covering", {"runs": 1, "M": 4.0, "map": "identity"},
     (cover, "random_paired_family"), ("n_pairs", cover.MAX_COVER_PAIRS)),
    ("survey", {"type": "avg-line-integral"},
     (modfam, "avg_line_integral"), ("samples", modfam.MAX_SURVEY_SAMPLES)),
    ("survey", {"type": "translation", "E": _CIRCLE},
     (modfam, "translation_survey"), ("samples", modfam.MAX_SURVEY_SAMPLES)),
    ("survey", {"type": "radial", "E": _CIRCLE},
     (modfam, "radial_survey"), ("samples", modfam.MAX_SURVEY_SAMPLES)),
    ("survey", {"type": "translation", "E": _CIRCLE, "samples": 10},
     (modfam, "translation_survey"), ("n_max", modfam.MAX_SURVEY_ROWS)),
    ("survey", {"type": "radial", "E": _CIRCLE, "samples": 10},
     (modfam, "radial_survey"), ("n_max", modfam.MAX_SURVEY_ROWS)),
    ("distortion", {"map": "identity"},
     (distort, "metric_distortion"), ("probes", distort.MAX_PROBES))],
    ids=["covering-pairs", "avg-line-samples", "translation-samples", "radial-samples",
         "translation-rows", "radial-rows", "distortion-probes"])
def test_counts_above_their_cap_exit_two_before_building(kind, params, builder, cap,
                                                        tmp_path, monkeypatch, capsys):
    # n_pairs sized the (n, n, dim) arrays of the subset screen and the yolk
    # matrices, samples the samples x 65 points of avg-line-integral, n_max
    # the rows of a survey table and probes the probe points, with no bound;
    # the builder raises, so no count is ever run: the cap itself reaches
    # the builder, one more is refused before it
    monkeypatch.setattr(*builder, _refuse_build)
    key, most = cap
    path = tmp_path / "c.json"
    for value, refused in ((most, False), (most + 1, True)):
        path.write_text(json.dumps({"kind": kind, "seed": 1, "out": str(tmp_path / "out"),
                                    "params": {**params, key: value}}))
        if refused:
            assert main(["run", str(path)]) == 2
            assert (f"params.{key}: must be at most {most}, got {most + 1}"
                    in capsys.readouterr().err)
        else:
            with pytest.raises(_Built):
                main(["run", str(path)])
    assert not (tmp_path / "out" / "results.json").exists()
