"""Correctness gate: acceptance bounds C01-C12 applied to each results.json.

The bounds are the ones pinned in ``tests/test_acceptance.py``, applied to
the bundled config that matches each criterion.  Anchors are recomputed
here from the config parameters rather than read back from the program.

``check(name, payload)`` returns ``(ok, detail, anchor_err)``; ``anchor_err``
is ``|value - anchor| / anchor`` for configs with an analytic anchor, else
None.
"""

from __future__ import annotations

import math

# Misses recorded at the commit that defined the benchmark.  They still count
# in ``failed``; they only keep the run ``correct``, so that a new miss
# anywhere else stands out.
KNOWN_MISSES = {
    # pitch 0.05 and ladder [0.15, 0.3, 0.6] give H in about [1.72, 1.96];
    # C07's 5% bound was pinned for pitch 0.02 and ladder [0.5, 1.0]
    "distortion-diag": "C07 bound |H - 2| / 2 <= 5% misses at the bundled pitch and ladder",
}


def _num(x) -> float:
    return float(x)          # results.json spells infinities as "inf"


def _rel(value, anchor: float) -> float:
    return abs(_num(value) - anchor) / anchor


def _finite_leaves(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_leaves(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_leaves(v) for v in obj)
    if isinstance(obj, bool) or obj is None:
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    return obj not in ("inf", "-inf", "nan")


def _annulus(p, r, tol):
    sc = p["scene"]
    anchor = 2 * math.pi / math.log(sc["R"] / sc["r"])
    err = _rel(r["value"], anchor)
    return err < 0.10, f"C01 |err|={err:.4f} < 0.10", err


def _rectangle(p, r, tol):
    sc = p["scene"]
    anchor = sc["height"] / sc["width"]
    err = _rel(r["value"], anchor)
    return err < 0.10, f"C04 |err|={err:.4f} < 0.10", err


def _square_ring(p, r, tol):
    sc = p["scene"]
    bound = 0.25 * math.log(sc["R"] / sc["r"])
    v = _num(r["value"])
    return v >= bound - tol, f"C03 value={v:.4f} >= {bound - tol:.4f}", None


def _reciprocal(p, r, tol):
    a, b, c = p["radii"]
    md = r["moduli"]
    mismatch = abs(2 * math.pi / _num(md[f"md({a},{c})"])
                   - 2 * math.pi / _num(md[f"md({a},{b})"])
                   - 2 * math.pi / _num(md[f"md({b},{c})"]))
    return mismatch <= 3 * tol, f"C02 mismatch={mismatch:.4f} <= {3 * tol:.3f}", None


def _refinement(p, r, tol):
    vals = [_num(row["value"]) for row in r["ladder"]]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    drop = 1 - vals[-1] / vals[0]
    return (decreasing and drop >= 0.30,
            f"C06 decreasing={decreasing} drop={drop:.3f} >= 0.30", None)


def _ring_qc(p, r, tol):
    qc = r["ring_qc"]
    c1 = _num(qc["C1"])
    c2 = _num(qc["C2_observed"])
    measured = [e for e in qc["table"] if "error" not in e]
    # rings whose own modulus exceeds C1 are rejected inputs, by contract
    other = [e for e in qc["table"]
             if "error" in e and not _num(e.get("input_modulus", 0.0)) > c1]
    ok = bool(measured) and not other and c2 <= 2 * c1 + 2 * tol * c1
    return ok, (f"C08 C2={c2:.3f} <= {2 * c1 + 2 * tol * c1:.3f} "
                f"measured={len(measured)} errors={len(other)}"), None


def _cned_circle(p, r, tol):
    full = _num(r["mod_full"])
    b1 = _num(r["mod_budget"]["1"])
    ok = (r["infeasible"]["avoid"] is True and _num(r["mod_avoid"]) == 0.0
          and b1 >= 0.9 * full and r["ordering_ok"] is True)
    sc = p["scene"]
    err = _rel(full, 2 * math.pi / math.log(sc["R"] / sc["r"]))
    return ok, f"C11 circle budget1/full={b1 / full:.3f} >= 0.9", err


def _cantor_probe(p, r, tol):
    full = _num(r["mod_full"])
    ratios = [_num(r["mod_budget"][str(k)]) / full for k in (1, 4, 8)]
    ok = all(x <= 0.5 for x in ratios) and r["ordering_ok"] is True
    sc = p["scene"]
    err = _rel(full, sc["height"] / sc["width"])
    return ok, f"C11 curtain budget/full={[round(x, 3) for x in ratios]} <= 0.5", err


def _whitney(p, r, tol):
    ok = (r["lower_violations"] == 0 and r["upper_violations"] == 0
          and r["neighbor_ratio_ok"] is True)
    return ok, (f"C09 cubes={r['cubes']} violations="
                f"{r['lower_violations']}/{r['upper_violations']}"), None


def _shadow_disk(p, r, tol):
    ratios = [_num(lev["ratio"]) for lev in r["levels"]]
    stab = max(ratios) / min(ratios)
    return stab < 2.0, f"C10 stability={stab:.3f} < 2", None


def _shadow_cusp(p, r, tol):
    lev = r["levels"]
    ok = True
    for a, b in zip(lev, lev[1:]):
        g_rhs = _num(b["rhs"]) / _num(a["rhs"])
        g_lhs = _num(b["lhs"]) / _num(a["lhs"])
        ok &= (g_rhs - 1) >= 2 * (g_lhs - 1) and g_rhs > 1.05
    return ok, "C10 cusp growth rhs >= 2 lhs and rhs > 1.05 per level", None


def _disk_qh(p, r, tol):
    anchor = -math.log(1 - math.hypot(*p["x2"]))      # unit disk from the center
    err = _rel(r["value"], anchor)
    return err < 0.05, f"C09 qh |err|={err:.5f} < 0.05", err


def _covering(p, r, tol):
    ok = r["all_verified"] is True and all(
        all(run["verified"].values()) for run in r["runs"])
    return ok, f"C05 all_verified={r['all_verified']}", None


def _distortion_diag(p, r, tol):
    h = r["metric_distortion"]
    e_max = _num(r["eccentric_distortion"]["max"])
    ok = (all(abs(_num(h[k]) - 2) / 2 <= 0.05 for k in ("min", "max"))
          and e_max <= 2 * 1.05)
    err = _rel(h["mean"], 2.0)
    return ok, (f"C07 H in [{_num(h['min']):.3f},{_num(h['max']):.3f}] "
                f"within 5% of 2, E max={e_max:.3f} <= 2.1"), err


def _distortion_identity(p, r, tol):
    h = r["metric_distortion"]
    e = r["eccentric_distortion"]
    ok = (all(abs(_num(h[k]) - 1) <= 0.05 for k in ("min", "max"))
          and abs(_num(e["max"]) - 1) <= 0.05 and abs(_num(e["mean"]) - 1) <= 0.05)
    return ok, f"C07 identity H,E within 0.05 of 1 (H max={_num(h['max']):.4f})", None


def _translation(p, r, tol):
    (x0, y0), (x1, y1) = p["curve"][0], p["curve"][-1]
    curve_len = math.hypot(x1 - x0, y1 - y0)
    h1 = sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in p["E"]["segments"])
    worst = max(row["N"] * _num(row["measure"]) for row in r["table"])
    return (worst <= 4 * curve_len * h1,
            f"C12 max N*m={worst:.3f} <= {4 * curve_len * h1:.1f}", None)


def _finite(p, r, tol):
    return _finite_leaves(r), "exit 0 with finite outputs", None


CHECKS = {
    "annulus-2d": _annulus,
    "annulus-2d-512": _annulus,
    "rectangle-modulus": _rectangle,
    "square-ring-bound": _square_ring,
    "ring-reciprocal": _reciprocal,
    "point-family-refinement": _refinement,
    "ring-qc-diag": _ring_qc,
    "cned-circle": _cned_circle,
    "cantor-product-probe": _cantor_probe,
    "whitney-disk": _whitney,
    "shadow-sum-disk": _shadow_disk,
    "shadow-sum-cusp": _shadow_cusp,
    "disk-qh": _disk_qh,
    "eggyolk-random": _covering,
    "eggyolk-conformal": _covering,
    "distortion-diag": _distortion_diag,
    "distortion-identity": _distortion_identity,
    "translation-survey": _translation,
    "radial-survey": _finite,
    "avg-line-integral": _finite,
}


def check(name: str, payload: dict) -> tuple[bool, str, float | None]:
    """Apply the criterion for config ``name`` to a loaded results.json.

    Raises KeyError, TypeError, ValueError or ZeroDivisionError on results
    that do not have the expected shape.
    """
    return CHECKS[name](payload["params"], payload["results"], payload["tol"])
