"""One workload pass in a fresh interpreter.

Usage: ``python3 perfbench/child.py JOB.json``.  The job names the checkout
root, the workload, its seed, the output directory and the mode.  The child
imports ``extremal`` from the checkout's ``src``, builds and validates the
workload's configs (the set-up ``extremal run`` pays on every invocation),
then runs them one after another through ``cli.run_experiment``.  It appends
one JSON line per event to the job's progress file, so the parent can still
tell which experiments finished if the child dies part way.  A host-speed
sampler (pace.py) runs from the child's start to its end; every time it
reports comes with the speed sampled while it ran.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys

import pace


def _proc_status(key: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return -1


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (the setting in force)."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def env_record() -> dict:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's own BLAS)

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(job_path: str) -> int:
    pacer = pace.Pacer()
    pacer.start()
    try:
        return run_job(job_path, pacer)
    finally:
        pacer.stop()


def run_job(job_path: str, pacer: pace.Pacer) -> int:
    started = pacer.mark()
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    from extremal import cli

    import workloads

    objs = workloads.generate(cli.builtin_experiments(), job["workload"],
                              job["seed"], job["out"])
    configs = [cli.ExperimentConfig.from_json(obj, obj["name"]) for obj in objs]
    ready = pacer.mark()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"extremal imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    with open(job["progress"], "a") as progress:
        def emit(event: dict) -> None:
            progress.write(json.dumps(event) + "\n")
            progress.flush()

        emit({"event": "ready", "t": ready[0], "spent": ready[1],
              "speed": pacer.normalised(started, ready)["speed"],
              "env": env_record() if job["env"] else None})
        if job["setup_only"]:
            return 0
        tracer = None
        if job["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        wall = raw = 0.0
        for cfg in configs:
            t0 = pacer.mark()
            try:
                rc, error = cli.run_experiment(cfg), None
            except Exception as exc:      # recorded as a failed experiment
                rc, error = None, f"{type(exc).__name__}: {exc}"
            dt = pacer.normalised(t0, pacer.mark())
            wall += dt["nominal_s"]
            raw += dt["raw_s"]
            emit({"event": "done", "name": cfg.name, "rc": rc, "error": error, **dt})
        if tracer is not None:
            tracer.dump(job["spans"])
        emit({"event": "end", "wall_s": wall, "raw_wall_s": raw,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "threads": _proc_status("Threads"),
              "blas_threads": blas_threads()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
