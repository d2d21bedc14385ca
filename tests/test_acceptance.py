"""Acceptance suite: one test per criterion, tolerances pinned here.

Each test prints a single PASS/FAIL line with its measurements (run pytest
with -s to see all of them), then asserts.
"""

import math
import time

import numpy as np
import pytest

from extremal import cli, cover, distort, modfam, qhyp, sets
from extremal.geom import PolyCurve
from extremal.modfam import (CurveConstraint, annulus_scene, discrete_modulus,
                             rectangle_scene, ring_modulus_exact,
                             square_ring_lower_bound, square_ring_scene,
                             translation_survey)

TOL = 0.02          # slack of the acceptance bounds (the config-level tol)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_c01_ring_modulus_reproduction():
    """2D annulus r=1, R=e at 256^2 within 10% of 2*pi; error shrinking
    from the 128^2 run; under 60 s per grid."""
    exact = 2 * math.pi
    errs, times = [], []
    for n in (128, 256):
        t0 = time.monotonic()
        res = discrete_modulus(annulus_scene(1.0, math.e, n))
        times.append(time.monotonic() - t0)
        errs.append(abs(res.value - exact) / exact)
    ok = (errs[1] < 0.10 and errs[1] < errs[0] and max(times) < 60.0)
    assert _report("C1 ring-modulus", ok,
                   f"err128={errs[0]:.3%} err256={errs[1]:.3%} "
                   f"t={max(times):.1f}s")


def test_c02_reciprocal_additivity():
    """Extremal distances of nested rings 1-7-49 add within 3 * tol."""
    half = 49 * 1.04
    md = {}
    for a, b in ((1.0, 49.0), (1.0, 7.0), (7.0, 49.0)):
        sc = annulus_scene(a, b, 256, half=half)
        md[(a, b)] = discrete_modulus(sc).value
    lhs = abs(2 * math.pi / md[(1.0, 49.0)] - 2 * math.pi / md[(1.0, 7.0)]
              - 2 * math.pi / md[(7.0, 49.0)])
    ok = lhs <= 3 * TOL
    assert _report("C2 reciprocal-additivity", ok,
                   f"mismatch={lhs:.4f} threshold={3 * TOL:.3f}")


def test_c03_square_ring_lower_bound():
    """Square ring r=1, R=4 modulus at least log(4)/4 - tol."""
    bound = square_ring_lower_bound(1.0, 4.0)
    res = discrete_modulus(square_ring_scene(1.0, 4.0, 192))
    ok = res.value >= bound - TOL
    assert _report("C3 square-ring-bound", ok,
                   f"value={res.value:.4f} bound={bound:.4f}")


def test_c04_rectangle_modulus():
    """2x1 rectangle, short-side family, within 10% of 1/2."""
    res = discrete_modulus(rectangle_scene(2.0, 1.0, 256))
    err = abs(res.value - 0.5) / 0.5
    ok = err < 0.10
    assert _report("C4 rectangle-modulus", ok,
                   f"value={res.value:.4f} err={err:.3%}")


def test_c05_egg_yolk_property_suite():
    """200 randomized paired families: all postconditions verified; achieved
    constants monotone in M on the medians.  Anisotropic maps pair only with
    M >= 4 (no valid 2-egg-yolk family exists for them)."""
    rng = np.random.default_rng(42)
    consts = {2.0: [], 4.0: [], 8.0: []}
    verified = 0
    runs = 200
    for _ in range(runs):
        M = float(rng.choice([2.0, 4.0, 8.0]))
        maps = ["identity", "rot+scale"] if M < 4 else \
            ["identity", "diag(2,1)", "rot+scale"]
        fam = cover.random_paired_family(int(rng.integers(6, 22)), M,
                                         str(rng.choice(maps)),
                                         seed=int(rng.integers(2 ** 31)))
        res = cover.egg_yolk_cover(fam)
        if all(res.report["verified"].values()):
            verified += 1
        consts[M].append(res.achieved_constant)
    med = {M: float(np.median(v)) for M, v in consts.items()}
    ok = verified == runs and med[2.0] <= med[4.0] <= med[8.0]
    assert _report("C5 egg-yolk-suite", ok,
                   f"verified={verified}/{runs} medians="
                   f"{med[2.0]:.2f}/{med[4.0]:.2f}/{med[8.0]:.2f}")


def test_c06_point_families_modulus_null():
    """Forcing all annulus paths through one cell: values strictly decrease
    at each doubling, losing at least 30% across the three doublings.
    (Point families decay like 1/log of the scale ratio, so the 30% figure
    is read cumulatively across the refinement ladder.)"""
    m = (1 + math.e) / 2
    values = []
    for n in (32, 64, 128, 256):
        sc = annulus_scene(1.0, math.e, n)
        mask = sets.circle_obstacle_mask(sc, (0.0, 0.0), m)
        cell = tuple(int((x - o) // sc.spacing)
                     for x, o in zip((m, 0.0), sc.origin))
        mask[cell] = False
        res = discrete_modulus(sc, CurveConstraint("avoid", mask))
        values.append(res.value)
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    total_drop = 1 - values[-1] / values[0]
    ok = decreasing and total_drop >= 0.30
    assert _report("C6 point-family-null", ok,
                   f"values={['%.3f' % v for v in values]} "
                   f"drop={total_drop:.1%}")


def test_c07_distortion_diag_and_identity():
    """diag(2,1): H = 2 within 5% and eccentric estimate at most 2 + 5%
    over 25 probes; identity: both equal 1 up to search resolution."""
    ident = distort.linear_sampled_map(np.eye(2), pitch=0.02)
    diag = distort.linear_sampled_map(np.diag([2.0, 1.0]), pitch=0.02)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(25, 2))
    h_diag, e_diag, h_id, e_id = [], [], [], []
    for x in pts:
        h_diag.append(distort.metric_distortion(diag, x, [0.5, 1.0]).h_estimate)
        e_diag.append(distort.eccentric_distortion(diag, x, 0.5))
        h_id.append(distort.metric_distortion(ident, x, [0.5, 1.0]).h_estimate)
        e_id.append(distort.eccentric_distortion(ident, x, 0.5))
    res_tol = 0.05
    ok = (all(abs(h - 2) / 2 <= 0.05 for h in h_diag)
          and all(e <= 2 * 1.05 for e in e_diag)
          and all(abs(h - 1) <= res_tol for h in h_id)
          and all(abs(e - 1) <= res_tol for e in e_id))
    assert _report("C7 distortion", ok,
                   f"H(diag) in [{min(h_diag):.3f},{max(h_diag):.3f}] "
                   f"E(diag) max={max(e_diag):.3f} "
                   f"H(id) max|1-.|={max(abs(h - 1) for h in h_id):.2e}")


def test_c08_ring_qc_bound():
    """diag(2,1) over a ladder of 10 admissible rings:
    C2_observed <= 2 C1 + 2 tol."""
    diag = distort.linear_sampled_map(np.diag([2.0, 1.0]), pitch=0.05)
    c1 = 6.2
    rings = [((0.0, 0.0), 0.5, 0.5 * (2.8 + 0.18 * k)) for k in range(10)]
    out = distort.ring_qc_test(diag, rings, c1, grid_n=160)
    errors = [e for e in out["table"] if "error" in e]
    ok = not errors and out["C2_observed"] <= 2 * c1 + 2 * TOL * c1
    assert _report("C8 ring-qc", ok,
                   f"C2={out['C2_observed']:.3f} bound={2 * c1:.3f} "
                   f"rings={len(rings)} errors={len(errors)}")


def test_c09_quasihyperbolic_distance_and_whitney():
    """Unit disk center to (0, 0.9) within 5% of log 10; Whitney two-sided
    inequality and neighbor ratios hold for every cube, exactly."""
    disk = qhyp.disk_domain(1.0, 128)
    res = qhyp.qh_distance(disk, (0.0, 0.0), (0.0, 0.9), pitch=0.01)
    err = abs(res["value"] - math.log(10)) / math.log(10)
    dec = qhyp.whitney_decompose(disk, max_depth=6)
    rep = dec.verify_exact()
    ok = (err < 0.05 and not rep["lower_violations"]
          and not rep["upper_violations"] and rep["neighbor_ratio_ok"])
    assert _report("C9 quasihyperbolic", ok,
                   f"qh={res['value']:.4f} err={err:.3%} "
                   f"cubes={rep['cubes']} violations=0")


def test_c10_shadow_sum_diagnostic():
    """Disk: ratio stable within a factor of 2 across two quadrature levels.
    Cusp: the k^2 integral grows at least twice as fast as the shadow sum
    (the non-integrability trend), per level."""
    disk = qhyp.disk_domain(1.0, 128)
    d1, d2 = qhyp.shadow_sum_diagnostic(disk, (0.0, 0.0), [(6, 0.02), (6, 0.01)])
    stab = max(d1["ratio"], d2["ratio"]) / min(d1["ratio"], d2["ratio"])
    cusp = qhyp.cusp_domain(8.0)
    levels = qhyp.shadow_sum_diagnostic(cusp, (1.75, 0.0),
                                        [(6, p) for p in (0.02, 0.01, 0.005)])
    trend_ok = True
    growths = []
    for a, b in zip(levels[:-1], levels[1:]):
        g_rhs = b["rhs"] / a["rhs"]
        g_lhs = b["lhs"] / a["lhs"]
        growths.append((g_rhs, g_lhs))
        trend_ok &= (g_rhs - 1) >= 2 * (g_lhs - 1) and g_rhs > 1.05
    ok = stab < 2.0 and trend_ok
    assert _report("C10 shadow-sum", ok,
                   f"disk ratios {d1['ratio']:.2f}/{d2['ratio']:.2f} "
                   f"(stab {stab:.2f}); cusp growth rhs/lhs "
                   + " ".join(f"{r:.2f}/{l:.2f}" for r, l in growths))


def test_c11_cned_signatures():
    """Separating circle: avoidance infeasible while one allowed crossing
    recovers at least 90% of the modulus.  Fat-Cantor curtain: every budget
    K <= 8 stays below half the unconstrained modulus at 256^2."""
    sc = annulus_scene(1.0, math.e, 256)
    mask = sets.circle_obstacle_mask(sc, (0.0, 0.0), (1 + math.e) / 2)
    probe = sets.cned_probe(mask, sc, budgets=[1])
    circle_ok = (probe["infeasible"]["avoid"] and probe["mod_avoid"] == 0.0
                 and probe["mod_budget"][1] >= 0.9 * probe["mod_full"])

    rect = rectangle_scene(2.0, 1.0, 256)
    # the depth-6 fat Cantor set on [0.8, 1.2], times the full height
    cmask = cli.build_obstacle({"kind": "cantor-product", "depth": 6,
                                "from": 0.8, "to": 1.2}, rect)
    probe2 = sets.cned_probe(cmask, rect, budgets=[1, 4, 8])
    curtain_ok = all(probe2["mod_budget"][K] <= 0.5 * probe2["mod_full"]
                     for K in (1, 4, 8))
    ok = circle_ok and curtain_ok
    assert _report("C11 cned-signatures", ok,
                   f"circle: avoid={probe['mod_avoid']} "
                   f"budget1/full={probe['mod_budget'][1] / probe['mod_full']:.3f}; "
                   f"curtain budgets/full="
                   + ",".join(f"{probe2['mod_budget'][K] / probe2['mod_full']:.2f}"
                              for K in (1, 4, 8)))


def test_c12_translation_survey_bound():
    """Ten unit segments: max over N <= 16 of N * m(F_N) within 4x the
    length-measure envelope, from 1e5 Monte Carlo translates."""
    segs = [sets.Segment((0.0, 0.3 * k), (1.0, 0.3 * k)) for k in range(10)]
    E = sets.PrimitiveUnionSet(segs)
    gamma = PolyCurve([(0.0, 0.0), (0.0, 1.0)])
    out = translation_survey(E, gamma, 16, 100_000, seed=17)
    envelope = gamma.length() * E.h_n1_measure()
    worst = max(r["N"] * r["measure"] for r in out["table"])
    ok = worst <= 4 * envelope
    assert _report("C12 translation-survey", ok,
                   f"max N*m={worst:.2f} bound={4 * envelope:.1f}")
