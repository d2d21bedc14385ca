import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extremal import distort, geom, modfam
from extremal.distort import (SampledMap, eccentric_distortion, linear_sampled_map,
                              metric_distortion, ring_qc_test)
from extremal.geom import DomainError, _cloud_diameter, eccentricity_of_boundary
from extremal.modfam import ring_modulus_exact


IDENT = linear_sampled_map(np.eye(2), pitch=0.05)
DIAG = linear_sampled_map(np.diag([2.0, 1.0]), pitch=0.05)
ROT = linear_sampled_map(1.3 * np.array([[math.cos(0.6), -math.sin(0.6)],
                                         [math.sin(0.6), math.cos(0.6)]]),
                         pitch=0.05)


# ---------------------------------------------------------------------------
# Sampled maps

def test_roundtrip_within_half_cell():
    # f^-1(f(p)) at 64 seeded points one cell inside the domain
    for m in (IDENT, DIAG, ROT):
        pts = np.random.default_rng(0).uniform(m.domain_lo + m.pitch,
                                               m.domain_hi - m.pitch, size=(64, 2))
        back = m.inverse(m.forward(pts))
        assert np.linalg.norm(back - pts, axis=1).max() <= 0.5 * m.pitch


def test_inverse_accuracy_affine():
    pts = np.array([[0.3, -0.2], [1.1, 0.7], [-0.9, 0.4]])
    back = DIAG.inverse(DIAG.forward(pts))
    assert np.allclose(back, pts, atol=1e-9)


def test_forward_is_bilinear_interpolant():
    def f(p):
        p = np.atleast_2d(p)
        return np.stack([p[:, 0] * p[:, 1], p[:, 1]], axis=1)
    m = SampledMap.from_function(f, (-1, -1), (1, 1), 0.1)
    pts = np.array([[0.33, 0.47]])
    # xy is bilinear, reproduced exactly
    assert np.allclose(m.forward(pts), f(pts), atol=1e-12)


# a non-affine map: the first component is bilinear, so the interpolant
# reproduces it; the second interpolates x^2 linearly across each cell
BEND = SampledMap.from_function(
    lambda p: np.stack([p[:, 0] + 0.3 * p[:, 0] * p[:, 1],
                        p[:, 1] + 0.1 * p[:, 0] ** 2], axis=1),
    (-1.0, -1.0), (1.0, 1.0), 0.1)


def _cell_interior_points(m, n, seed=0):
    rng = np.random.default_rng(seed)
    nx, ny = m.shape
    cell = np.stack([rng.integers(0, nx - 1, n), rng.integers(0, ny - 1, n)], axis=1)
    return m.origin + (cell + rng.uniform(0.05, 0.95, size=(n, 2))) * m.pitch, cell


def test_jacobian_is_exact_derivative_of_bilinear_patch():
    pts, cell = _cell_interior_points(BEND, 200)
    x, y = pts.T
    # d/dx of the linear interpolant of x^2 on [x_i, x_i + h] is x_i + (x_i + h)
    xi = BEND.origin[0] + cell[:, 0] * BEND.pitch
    expected = np.empty((len(pts), 2, 2))
    expected[:, 0, 0], expected[:, 0, 1] = 1 + 0.3 * y, 0.3 * x
    expected[:, 1, 0], expected[:, 1, 1] = 0.1 * (2 * xi + BEND.pitch), 1.0
    assert np.abs(BEND.jacobian(pts) - expected).max() <= 1e-12


def test_inverse_of_forward_on_non_affine_map():
    pts, _ = _cell_interior_points(BEND, 200, seed=1)
    back = BEND.inverse(BEND.forward(pts))
    assert np.abs(back - pts).max() <= 1e-10


def test_map_requires_injective_edges():
    vals = np.zeros((3, 3, 2))
    m = SampledMap((0, 0), 1.0, vals)
    # a cached_property that raises caches nothing: every access raises
    for _ in range(2):
        with pytest.raises(DomainError):
            m.inverse_lipschitz


def test_edge_pass_runs_once_per_map(monkeypatch):
    # eccentric_distortion asks for Lip(f^-1) on every call; each map
    # measures its grid edges on the first ask only
    edges = []
    diff = np.diff
    monkeypatch.setattr(np, "diff",
                        lambda a, *args, **kw: edges.append(a) or diff(a, *args, **kw))
    maps = [linear_sampled_map(np.diag([2.0, 1.0]), pitch=0.05) for _ in range(2)]
    for f in maps:
        for x in [(0.3, -0.2), (-0.4, 0.1), (0.0, 0.5)]:
            eccentric_distortion(f, x, 0.2)
    assert [sum(a is f.values for a in edges) for f in maps] == [2, 2]


# ---------------------------------------------------------------------------
# Metric distortion

def test_metric_distortion_identity_and_diag():
    for x in [(0.3, -0.2), (-1.0, 0.8), (0.0, 0.0)]:
        assert abs(metric_distortion(IDENT, x, [0.2, 0.4, 0.8]).h_estimate - 1) < 1e-9
        assert abs(metric_distortion(DIAG, x, [0.2, 0.4, 0.8]).h_estimate - 2) < 1e-9


def test_metric_distortion_linear_spatially_constant():
    # probes on lattice nodes: the estimator is lattice-translation-invariant
    rng = np.random.default_rng(4)
    idx = rng.integers(-25, 25, size=(12, 2))
    pts = idx * DIAG.pitch
    hs = [metric_distortion(DIAG, x, [0.2, 0.4]).h_estimate for x in pts]
    assert np.var(hs) < 1e-12


def test_metric_distortion_radial_stretch_vs_jacobian():
    def stretch(p):
        p = np.atleast_2d(p)
        return p * np.linalg.norm(p, axis=1, keepdims=True)
    m = SampledMap.from_function(stretch, (0.05, -0.6), (1.2, 0.6), 0.01)
    x = np.array([0.5, 0.0])
    probe = metric_distortion(m, x, [0.02, 0.04])
    J = m.jacobian(x[None])[0]
    sv = np.linalg.svd(J, compute_uv=False)
    oracle = sv[0] / sv[-1]
    assert abs(probe.h_estimate - oracle) / oracle < 0.10


def test_metric_distortion_exact_off_lattice():
    # the circles are sampled through the interpolant, so an affine map gives
    # its singular value ratio at any point, not only at lattice nodes
    x = (0.025, 0.025)
    ladder = [0.15, 0.3, 0.6]
    assert metric_distortion(IDENT, x, ladder).h_estimate == pytest.approx(1, abs=1e-12)
    assert metric_distortion(DIAG, x, ladder).h_estimate == pytest.approx(2, abs=1e-12)


def test_metric_distortion_rejects_circle_leaving_domain():
    with pytest.raises(DomainError):
        metric_distortion(IDENT, (3.5, 0.0), [0.2, 0.6])


def test_metric_distortion_guards():
    with pytest.raises(DomainError):
        metric_distortion(IDENT, (3.99, 0.0), [0.2])      # touches boundary
    with pytest.raises(DomainError):
        metric_distortion(IDENT, (0.0, 0.0), [0.01])      # below two cells


def test_probe_invariant_l_at_most_big_l():
    probe = metric_distortion(DIAG, (0.2, 0.1), [0.2, 0.4, 0.8])
    for L, l in zip(probe.big_l, probe.small_l):
        assert L >= l > 0


# ---------------------------------------------------------------------------
# Eccentric distortion

def test_eccentric_identity_and_conformal_are_one():
    assert eccentric_distortion(IDENT, (0.3, -0.2), 0.5) <= 1.02
    assert eccentric_distortion(ROT, (0.3, -0.2), 0.5) <= 1.03


def test_eccentric_diag_is_two():
    val = eccentric_distortion(DIAG, (0.3, -0.2), 0.5)
    assert val <= 2.0 * 1.05
    assert abs(val - 2.0) / 2.0 <= 0.10


def test_eccentric_monotone_as_scale_shrinks():
    vals = [eccentric_distortion(DIAG, (0.3, -0.2), r) for r in (0.8, 0.4, 0.2, 0.1)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-9


def test_eccentric_bounded_by_metric_ratio():
    for m in (IDENT, DIAG, ROT):
        x = (0.25, -0.15)
        e = eccentric_distortion(m, x, 0.4)
        probe = metric_distortion(m, x, [0.4, 0.8])
        assert e <= probe.big_l[0] / probe.small_l[0] + 0.05


def test_eccentric_scale_guard():
    with pytest.raises(DomainError):
        eccentric_distortion(IDENT, (0.0, 0.0), 2.0)


def _ref_eccentric_distortion(f, x, r):
    """``eccentric_distortion`` as it was with one ``inverse`` call per cloud
    and level, with the value of each candidate set it tried."""
    ladder_steps, n_boundary = distort.ECCENTRIC_LADDER, distort.BOUNDARY_SAMPLES
    x = np.asarray(x, float)
    fx = f.forward(x[None])[0]
    theta = np.linspace(0, 2 * math.pi, n_boundary, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    best = math.inf
    records = []
    for k in range(ladder_steps):
        s = r * 2.0 ** (-k)
        img_bnd = f.forward(x + s * circle)
        centers = f.forward(x[None] + s * 0.25 * np.vstack([[0, 0], circle[::8]]))
        val = max(1.0, eccentricity_of_boundary(img_bnd, centers))
        records.append({"family": "ball", "scale": s, "value": val})
        best = min(best, val)
    s_img = r / max(f.inverse_lipschitz, 1e-300)
    for k in range(ladder_steps):
        s = s_img * 2.0 ** (-k)
        dom_bnd = f.inverse(fx + s * circle)
        if _cloud_diameter(dom_bnd) > 2 * r:
            continue
        centers = f.inverse(fx[None] + s * 0.25 * np.vstack([[0, 0], circle[::8]]))
        val = max(1.0, eccentricity_of_boundary(dom_bnd, centers))
        records.append({"family": "pullback", "scale": s, "value": val})
        best = min(best, val)
    return best, records


# a curved map: Newton needs several steps, and at x = 0, r = 0.9 a centre
# probe other than x wins on a pullback level
SHEAR = SampledMap.from_function(
    lambda p: np.stack([p[:, 0] + 2.0 * p[:, 1] ** 2, p[:, 1]], axis=1),
    (-4.0, -4.0), (4.0, 4.0), 0.05)


@settings(max_examples=40, deadline=None)
@example(SHEAR, (0.0, 0.0), 0.9)
@given(st.sampled_from([IDENT, DIAG, ROT, SHEAR]),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       st.floats(0.05, 0.95))
def test_eccentric_one_inverse_matches_one_per_level(f, x, r):
    assert eccentric_distortion(f, x, r) == _ref_eccentric_distortion(f, x, r)[0]


def test_eccentric_builds_no_tree_or_hull(monkeypatch):
    # every radius and pullback diameter comes from direct distances: on a
    # built map the estimate needs no kd-tree, hull or hull diameter
    want = [_ref_eccentric_distortion(f, (0.0, 0.0), 0.9)[0] for f in (DIAG, SHEAR)]

    def refuse(*args, **kwargs):
        raise AssertionError("tree or hull built")
    for name in ("cKDTree", "ConvexHull", "_hull_points", "_cloud_diameter"):
        monkeypatch.setattr(geom, name, refuse)
    assert [eccentric_distortion(f, (0.0, 0.0), 0.9) for f in (DIAG, SHEAR)] == want


def test_eccentric_makes_one_inverse_call(monkeypatch):
    calls = []
    inverse = SampledMap.inverse
    monkeypatch.setattr(SampledMap, "inverse",
                        lambda self, pts, **kw: calls.append(len(pts))
                        or inverse(self, pts, **kw))
    eccentric_distortion(DIAG, (0.3, -0.2), 0.5)
    assert calls == [3 * (96 + 13)]


def test_eccentric_symmetry_between_map_and_inverse():
    # ball-family estimate for f at x equals the pullback-family estimate
    # for f^{-1} at f(x): the candidate sets coincide for matched ladders
    f = DIAG
    inv = np.diag([0.5, 1.0])
    finv = SampledMap.from_function(lambda p: p @ inv.T, (-8, -4), (8, 4), 0.05)
    x = np.array([0.3, -0.2])
    r = 0.4
    # the reference returns what eccentric_distortion does (the test above)
    # and the value of each candidate set
    best_f, rec_f = _ref_eccentric_distortion(f, x, r)
    ball_vals = sorted(e["value"] for e in rec_f if e["family"] == "ball")
    y = f.forward(x[None])[0]
    # Lip((f^{-1})^{-1}) = 2, so pullback ladders start at r_g / 2 = r
    best_g, rec_g = _ref_eccentric_distortion(finv, y, 2 * r)
    pull_vals = sorted(e["value"] for e in rec_g if e["family"] == "pullback")
    assert len(ball_vals) == len(pull_vals)
    for a, b in zip(ball_vals, pull_vals):
        assert abs(a - b) < 0.05
    assert eccentric_distortion(f, x, r) == best_f
    assert eccentric_distortion(finv, y, 2 * r) == best_g


# ---------------------------------------------------------------------------
# Ring QC test

def test_ring_qc_identity_matches_analytic():
    rings = [((0.0, 0.0), 0.5, 1.6), ((0.0, 0.0), 0.4, 1.4)]
    out = ring_qc_test(IDENT, rings, c1=6.0, grid_n=160)
    for entry in out["table"]:
        assert "error" not in entry
        assert abs(entry["image_modulus"] - entry["input_modulus"]) \
            / entry["input_modulus"] < 0.05


def test_ring_qc_diag_within_k_bound():
    rings = [((0.0, 0.0), 0.5, 1.6)]
    out = ring_qc_test(DIAG, rings, c1=6.0, grid_n=160)
    md = out["table"][0]["input_modulus"]
    assert out["C2_observed"] <= 2 * md + 2 * 0.02 * md


def test_ring_qc_rejects_thin_ring_and_out_of_domain():
    out = ring_qc_test(IDENT, [((0.0, 0.0), 1.0, 1.1)], c1=2.0, grid_n=160)
    assert "error" in out["table"][0]
    out2 = ring_qc_test(IDENT, [((3.9, 0.0), 0.5, 1.5)], c1=8.0, grid_n=160)
    assert "error" in out2["table"][0]


def test_image_ring_scene_is_bounded_before_allocation(monkeypatch):
    monkeypatch.setattr(modfam, "MAX_SCENE_CELLS", 64 * 64)
    assert distort.image_ring_scene(IDENT, (0.0, 0.0), 0.5, 1.6, 32).u.size <= 64 * 64
    with pytest.raises(DomainError, match="has more than 4096 cells"):
        distort.image_ring_scene(IDENT, (0.0, 0.0), 0.5, 1.6, 65)


def test_ring_qc_flags_fold_singularity():
    # y -> y|y| is quasiconformal away from the segment y = 0 with blowing
    # distortion toward it: image moduli grow as rings shrink to the segment
    def fold(p):
        p = np.atleast_2d(p)
        return np.stack([p[:, 0], p[:, 1] * np.abs(p[:, 1])], axis=1)
    m = SampledMap.from_function(fold, (-4, -4), (4, 4), 0.02)
    big = ring_qc_test(m, [((0.0, 0.0), 0.6, 1.8)], c1=8.0, grid_n=128)
    small = ring_qc_test(m, [((0.0, 0.0), 0.15, 0.45)], c1=8.0, grid_n=128)
    assert "error" not in big["table"][0]
    assert "error" not in small["table"][0]
    # regression trend from the first verified run
    assert small["C2_observed"] >= 1.25 * big["C2_observed"]
