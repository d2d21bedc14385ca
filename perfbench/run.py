"""Benchmark for extremal: batches of bundled ``extremal run`` configs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload modulus --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  Each workload pass runs its
configs one after another in a fresh interpreter (perfbench/child.py), so
set-up time and peak RSS belong to that pass; the only threads are
numpy/scipy's own BLAS pools, capped at nproc.  Passes repeat until the next
one would overrun ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics as medians over passes; the
times are scaled to a nominal host speed sampled while they ran (pace.py).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes plus the tracing overhead; end-to-end
numbers never come from traced passes.

Every pass is checked by gate.py against the acceptance bounds.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, per-pass figures, gate details) is written to
.perfbench/<workload>/result.json in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # set-up measurements per run (median reported)
RUN_LIMIT_S = 170.0        # the whole run, children included, ends before this

END_TO_END = {             # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "anchor_err": "ratio",
}


def source_record() -> dict:
    """Identify the code under test: git commit if any, else a source hash."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


class Runner:
    """Launches child passes for one workload and gates their outputs."""

    def __init__(self, workload: str, seed: int, work: Path, t_start: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.t_start = t_start
        self.count = 0
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OMP_NUM_THREADS=nproc,
                        OPENBLAS_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
        self.names = [name for name, _, _ in workloads.WORKLOADS[workload]]

    def launch(self, *, trace=False, setup_only=False, env=False) -> dict:
        """Run one child; returns its pass record."""
        self.count += 1
        tag = f"{self.count:03d}"
        out = self.work / f"out-{tag}"
        job = {"root": str(ROOT), "workload": self.workload, "seed": self.seed,
               "out": str(out), "progress": str(self.work / f"progress-{tag}.jsonl"),
               "spans": str(self.work / f"spans-{tag}.json"),
               "trace": trace, "setup_only": setup_only, "env": env}
        job_path = self.work / f"job-{tag}.json"
        job_path.write_text(json.dumps(job))
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.t_start))
        rec = {"trace": trace, "returncode": None}
        with open(self.work / f"child-{tag}.log", "w") as log:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                      stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, timeout=timeout)
                rec["returncode"] = proc.returncode
            except subprocess.TimeoutExpired:
                rec["returncode"] = "timeout"
            rec["elapsed_s"] = time.perf_counter() - t0
        events = []
        if os.path.exists(job["progress"]):
            with open(job["progress"]) as fh:
                events = [json.loads(line) for line in fh if line.endswith("\n")]
        ready = [e for e in events if e["event"] == "ready"]
        end = [e for e in events if e["event"] == "end"]
        if ready:   # the child's own clock and host-speed sample, see pace.py
            rec["raw_setup_s"] = ready[0]["t"] - t0 - ready[0]["spent"]
            rec["setup_s"] = rec["raw_setup_s"] * ready[0]["speed"]
        else:
            rec["raw_setup_s"] = rec["setup_s"] = None
        rec["env"] = ready[0]["env"] if ready else None
        if setup_only:
            return rec
        done = {e["name"]: e for e in events if e["event"] == "done"}
        for key in ("wall_s", "raw_wall_s", "peak_rss_mb", "threads", "blas_threads"):
            rec[key] = end[0][key] if end else None
        rec["experiments"] = [self._gate(name, done.get(name), out) for name in self.names]
        if trace and end:
            with open(job["spans"]) as fh:
                rec["layers"] = tracing.layer_metrics(json.load(fh))
        shutil.rmtree(out, ignore_errors=True)
        return rec

    @staticmethod
    def _gate(name: str, event: dict | None, out: Path) -> dict:
        """Verdict for one experiment; ``known`` marks a recorded baseline miss."""
        rec = {"name": name, "ok": False, "known": False, "anchor_err": None}
        if event is None:
            return dict(rec, detail="did not finish")
        if event["rc"] != 0:
            return dict(rec, detail=f"rc={event['rc']} error={event['error']}")
        try:
            with open(out / name / "results.json") as fh:
                ok, detail, err = gate.check(name, json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return dict(rec, detail=f"results.json unreadable or malformed: {exc!r}")
        return dict(rec, ok=ok, known=not ok and name in gate.KNOWN_MISSES,
                    detail=detail, anchor_err=err)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_passes(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Passes (untraced, or untraced/traced pairs) until the next would overrun."""
    passes: list[dict] = []
    t0 = time.perf_counter()
    rounds = []
    while True:
        r0 = time.perf_counter()
        batch = [runner.launch()] + ([runner.launch(trace=True)] if trace else [])
        passes += batch
        rounds.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t0
        if (any(p["returncode"] != 0 for p in batch)
                or elapsed + statistics.median(rounds) > seconds):
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    if not (ROOT / "src" / "extremal" / "__init__.py").is_file():
        print(f"no extremal sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, t_start)

    # first child pays one-off costs (bytecode compilation); not a sample
    warm = runner.launch(setup_only=True, env=True)
    if warm["returncode"] != 0 or warm["env"] is None:
        print(f"set-up failed (returncode {warm['returncode']}); see {work}", file=sys.stderr)
        return 1
    passes = run_passes(runner, args.seconds, bool(args.trace))
    setups = [p["setup_s"] for p in passes if p["setup_s"] is not None]
    while len(setups) < SETUP_SAMPLES:
        rec = runner.launch(setup_only=True)
        if rec["setup_s"] is None:
            break
        setups.append(rec["setup_s"])

    experiments = [e for p in passes for e in p["experiments"]]
    misses = [e for e in experiments if not e["ok"]]
    correct = (all(p["returncode"] == 0 for p in passes)
               and all(e["known"] for e in misses))
    plain = [p for p in passes if not p["trace"] and p["wall_s"] is not None]
    traced = [p for p in passes if p["trace"] and p["wall_s"] is not None]
    anchors = [e["anchor_err"] for e in experiments if e["anchor_err"] is not None]

    if args.trace:
        metrics = {name: {"value": _median(p["layers"][name] for p in traced), "unit": unit}
                   for name, unit, _, _ in tracing.LAYER_METRICS}
        name, unit, _ = tracing.OVERHEAD_METRIC
        walls = _median(p["wall_s"] for p in traced), _median(p["wall_s"] for p in plain)
        metrics[name] = {"value": walls[0] / walls[1] - 1 if all(walls) else 0.0, "unit": unit}
    else:
        values = {
            "wall_s": _median(p["wall_s"] for p in plain),
            "setup_s": _median(setups),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
            "anchor_err": max(anchors, default=0.0),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": warm["env"], "source": source_record(),
              "setups_s": setups, "passes": passes, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"source {json.dumps(record['source'], sort_keys=True)}")
    for i, p in enumerate(passes, 1):
        bad = [f"{e['name']} ({e['detail']})" for e in p["experiments"] if not e["ok"]]
        wall = "-" if p["wall_s"] is None else f"{p['wall_s']:.3f} (raw {p['raw_wall_s']:.3f})"
        print(f"pass {i}{' traced' if p['trace'] else ''}: wall {wall} s, "
              f"set-up {p['setup_s']}, rss {p['peak_rss_mb']} MB, "
              f"failed {len(bad)}/{len(p['experiments'])} {'; '.join(bad)}")
    print(json.dumps({"correct": correct, "attempted": len(experiments),
                      "failed": len(misses), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
