"""The benchmark's four workloads, built from the bundled experiment catalog.

Each workload is a batch of ``cli.builtin_experiments()`` configs run one
after another in one process, as a user's batch of ``extremal run`` jobs
would be.  Why each workload exists, and the layer shares measured when it
was defined, are recorded in README.md next to this file.

The workload seed drives every stochastic config (the ones the catalog gives
a ``seed``: the covering families, the distortion probe points and the
survey samples).  Everything else is deterministic, so the seed changes
nothing there.  The program only ever receives the generated config.
"""

from __future__ import annotations

import copy
import random

# (config name in the benchmark, catalog entry it comes from, param overrides)
WORKLOADS = {
    # unconstrained and avoid-mode solves; the 512^2 annulus is the only 2D
    # input above the 60k-unknown spsolve -> Jacobi-CG switch
    "modulus": [
        ("annulus-2d", "annulus-2d", None),
        ("annulus-2d-512", "annulus-2d", {"scene": {"grid": 512}}),
        ("rectangle-modulus", "rectangle-modulus", None),
        ("square-ring-bound", "square-ring-bound", None),
        ("ring-reciprocal", "ring-reciprocal", None),
        ("point-family-refinement", "point-family-refinement", None),
        ("ring-qc-diag", "ring-qc-diag", None),
    ],
    # constrained-modulus probes: certify-heavy use of modfam
    "crossing": [
        ("cned-circle", "cned-circle", None),
        ("cantor-product-probe", "cantor-product-probe", None),
    ],
    # Whitney cubes, exact verification, QhGrid and shadows; never modfam
    "qhyp": [
        ("whitney-disk", "whitney-disk", None),
        ("shadow-sum-disk", "shadow-sum-disk", None),
        ("shadow-sum-cusp", "shadow-sum-cusp", None),
        ("disk-qh", "disk-qh", None),
    ],
    # sample-cloud geometry: cover, distort and most of geom
    "covering": [
        ("eggyolk-random", "eggyolk-random", None),
        ("eggyolk-conformal", "eggyolk-conformal", None),
        ("distortion-diag", "distortion-diag", None),
        ("distortion-identity", "distortion-identity", None),
        ("translation-survey", "translation-survey", None),
        ("radial-survey", "radial-survey", None),
        ("avg-line-integral", "avg-line-integral", None),
    ],
}


def config_seed(workload_seed: int, name: str) -> int:
    """Per-config seed derived from the workload seed (stable across runs)."""
    return random.Random(f"{workload_seed}/{name}").randrange(2 ** 31)


def _merge(base: dict, override: dict) -> None:
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _merge(base[key], val)
        else:
            base[key] = val


def generate(catalog: dict, workload: str, seed: int, out_root: str) -> list[dict]:
    """Config objects (``ExperimentConfig.from_json`` input) for one pass."""
    objs = []
    for name, source, override in WORKLOADS[workload]:
        obj = copy.deepcopy(catalog[source])
        if override:
            _merge(obj["params"], override)
        if "seed" in obj:
            obj["seed"] = config_seed(seed, name)
        obj["name"] = name
        obj["out"] = f"{out_root}/{name}"
        objs.append(obj)
    return objs
