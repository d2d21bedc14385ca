"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the root.

They sit outside the repository's ``testpaths``, so the tier-1 suite does
not collect them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gate
import pace
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from extremal import cli  # noqa: E402


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS] + [tracing.OVERHEAD_METRIC]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers
    assert spec["paths"] == ["perfbench"]


def test_layer_metrics_from_spans():
    # discrete_modulus (1 s) contains two dijkstra calls (0.25 s each)
    spans = [
        [0, -1, "cli.run_experiment", 0.0, 2.0, {"config": "annulus-2d"}],
        [1, 0, "modfam.discrete_modulus", 0.5, 1.5, {"cells": 10, "infeasible": 0}],
        [2, 1, "modfam.dijkstra", 0.5, 0.75, {"nodes": 11, "edges": 40}],
        [3, 1, "modfam.dijkstra", 1.0, 1.25, {"nodes": 11, "edges": 40}],
        [4, 0, "sets.certify_value", 1.5, 1.75, {"feasible": 1}],
        [5, 4, "modfam.dijkstra", 1.5, 1.625, {"nodes": 11, "edges": 40}],
    ]
    m = tracing.layer_metrics(spans)
    assert set(m) == {name for name, _, _, _ in tracing.LAYER_METRICS}
    assert m["modfam.discrete_modulus.self_s"] == pytest.approx(0.5)
    assert m["modfam.dijkstra.calls"] == 3
    assert m["modfam.dijkstra.edges"] == 120
    assert m["modfam.dijkstra.per_value"] == pytest.approx(1.5)   # 3 passes, 2 values
    assert m["sets.certify_value.self_s"] == pytest.approx(0.125)
    assert m["cli.run_experiment.annulus-2d.s"] == pytest.approx(2.0)
    assert m["qhyp.contains.points_per_call"] == 0.0


TRACED_SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from extremal import cli
import tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
objs = workloads.generate(cli.builtin_experiments(), {workload!r}, 5, {out!r})
for obj in objs:
    if obj["name"] in {names!r}:
        cli.run_experiment(cli.ExperimentConfig.from_json(obj))
print(json.dumps(tracing.layer_metrics(tracer.spans)))
"""


def _run_configs(workload, names, out, traced):
    if traced:
        script = TRACED_SCRIPT.format(perfbench=str(HERE), src=str(ROOT / "src"),
                                      workload=workload, out=str(out), names=names)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=300, check=True)
        return json.loads(proc.stdout.splitlines()[-1])
    for obj in workloads.generate(cli.builtin_experiments(), workload, 5, str(out)):
        if obj["name"] in names:
            assert cli.run_experiment(cli.ExperimentConfig.from_json(obj)) == 0
    return None


def test_traced_run_counts_layers_and_leaves_results_unchanged(tmp_path):
    names = ["rectangle-modulus", "point-family-refinement", "ring-qc-diag"]
    m = _run_configs("modulus", names, tmp_path / "traced", traced=True)
    _run_configs("modulus", names, tmp_path / "plain", traced=False)
    for name in names:
        assert ((tmp_path / "traced" / name / "results.json").read_bytes()
                == (tmp_path / "plain" / name / "results.json").read_bytes())
    assert m["modfam.discrete_modulus.calls"] == 8        # 1 + 4 ladder grids + 3 rings
    assert m["distort.ring_qc.rejected"] == 7             # rings above C1
    assert m["modfam.dijkstra.nodes"] > 0 and m["modfam.spsolve.calls"] >= 8
    assert m["distort.inverse.calls"] == 3
    assert m["cli.artifacts.mb"] > 0
    assert m["cli.run_experiment.ring-qc-diag.s"] > 0
    assert m["qhyp.contains.calls"] == 0


@pytest.mark.parametrize("workload,name", [
    ("covering", "eggyolk-conformal"),
    ("covering", "distortion-identity"),
    ("covering", "translation-survey"),
    ("covering", "radial-survey"),
    ("covering", "avg-line-integral"),
    ("modulus", "point-family-refinement"),
])
def test_same_seed_gives_byte_identical_results(tmp_path, workload, name):
    for rep in ("a", "b"):
        _run_configs(workload, [name], tmp_path / rep, traced=False)
    assert ((tmp_path / "a" / name / "results.json").read_bytes()
            == (tmp_path / "b" / name / "results.json").read_bytes())


def test_workload_seed_drives_only_stochastic_configs():
    cat = cli.builtin_experiments()
    for w in workloads.WORKLOADS:
        a = workloads.generate(cat, w, 1, "o")
        assert a == workloads.generate(cat, w, 1, "o")
        b = workloads.generate(cat, w, 2, "o")
        for x, y in zip(a, b):
            assert (x["seed"] != y["seed"]) if "seed" in x else x == y
    big = workloads.generate(cat, "modulus", 1, "o")[1]
    assert big["params"]["scene"]["grid"] == 512
    assert cat["annulus-2d"]["params"]["scene"]["grid"] == 256


def test_pacer_scales_each_slice_by_its_sampled_speed():
    pacer = pace.Pacer()
    nominal = pace.REF_NOMINAL_S
    # 1 s at nominal speed, then 3 s at half speed; 0.5 s of it in the handler
    pacer.samples = [(11.0, nominal), (14.0, 2 * nominal)]
    pacer.spent = 0.5
    got = pacer.normalised((10.0, 0.0, 0), (14.0, 0.5, 2))
    assert got["raw_s"] == pytest.approx(3.5)
    assert got["speed"] == pytest.approx((1.0 + 3 * 0.5) / 4)
    assert got["nominal_s"] == pytest.approx(3.5 * got["speed"])
    assert pacer.normalised((14.0, 0.5, 2), (15.0, 0.5, 2))["speed"] == 1.0


def test_handler_collects_nothing_and_restores_the_collector():
    import gc
    pacer = pace.Pacer()
    collections = []
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        pacer._handler(None, None)
    finally:
        gc.callbacks.pop()
    assert collections == [] and gc.isenabled() and len(pacer.samples) == 1


def test_load_stays_within_nproc_threads(tmp_path):
    nproc = len(os.sched_getaffinity(0))
    runner = run.Runner("crossing", 1, tmp_path, time.perf_counter())
    assert runner.env["OPENBLAS_NUM_THREADS"] == runner.env["OMP_NUM_THREADS"] == str(nproc)
    rec = runner.launch(setup_only=True, env=True)
    pools = rec["env"]["blas_threads"]
    assert rec["returncode"] == 0 and pools and all(1 <= n <= nproc for n in pools.values())


def test_dead_child_counts_its_experiments_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.0)        # every child gets 1 s
    runner = run.Runner("crossing", 1, tmp_path, time.perf_counter())
    rec = runner.launch()
    assert rec["returncode"] == "timeout"
    assert [e["ok"] for e in rec["experiments"]] == [False, False]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qhyp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _payload(name, results, **params):
    obj = cli.builtin_experiments()[name]
    return {"params": {**obj["params"], **params}, "tol": obj.get("tol", 0.02),
            "results": results}


def test_gate_bounds():
    ok, _, err = gate.check("annulus-2d", _payload("annulus-2d", {"value": 7.0}))
    assert not ok and err == pytest.approx((7.0 - 2 * math.pi) / (2 * math.pi))
    ok, _, _ = gate.check("distortion-diag", _payload("distortion-diag", {
        "metric_distortion": {"min": 1.72, "max": 1.96, "mean": 1.847},
        "eccentric_distortion": {"max": 2.0, "mean": 2.0}}))
    assert not ok and "distortion-diag" in gate.KNOWN_MISSES
    table = [{"input_modulus": 29.2, "error": "exceeds C1"},
             {"input_modulus": 6.0, "image_modulus": 7.0}]
    ok, _, _ = gate.check("ring-qc-diag", _payload("ring-qc-diag", {
        "ring_qc": {"C1": 6.2, "C2_observed": 7.0, "table": table}}))
    assert ok
    table.append({"input_modulus": 6.1, "error": "ring closure not inside the sampled domain"})
    ok, _, _ = gate.check("ring-qc-diag", _payload("ring-qc-diag", {
        "ring_qc": {"C1": 6.2, "C2_observed": 7.0, "table": table}}))
    assert not ok
    with pytest.raises(KeyError):
        gate.check("disk-qh", _payload("disk-qh", {}))
