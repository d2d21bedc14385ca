import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import geom, sets
from extremal.geom import (DomainError, PolyCurve, Region, balls_disjoint_matrix,
                           hausdorff_content, hausdorff_normalization,
                           line_integral, translate_line_integrals)


# ---------------------------------------------------------------------------
# Balls, each a (center, radius) pair

def _disjoint(balls):
    return balls_disjoint_matrix([c for c, _ in balls], [r for _, r in balls])


def test_balls_disjoint_is_exact_at_touching():
    # |c1-c2| == r1+r2 exactly: tangent balls are disjoint as open sets
    got = balls_disjoint_matrix([(0.0, 0.0), (2.0, 0.0), (1.9, 0.0)], [1.0, 1.0, 1.0])
    assert got.tolist() == [[False, True, False],
                            [True, False, False],
                            [False, False, False]]
    # squares that underflow: each of the two center terms rounds up to the
    # least subnormal and the radius term rounds down to it, so the floats
    # say d2 = 2 s2 while in fact d2 = 1.2 U < s2 = 1.3 U (U = 2^-1074)
    x = math.sqrt(0.6) * 2.0 ** -537
    r = math.sqrt(1.3) * 2.0 ** -537 / 2
    assert not balls_disjoint_matrix([(0.0, 0.0), (x, x)], [r, r])[0, 1]


def _balls_disjoint_fraction(b1, b2):
    """Reference form in rational arithmetic."""
    (c1, r1), (c2, r2) = b1, b2
    d2 = sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(c1, c2))
    rsum = Fraction(float(r1)) + Fraction(float(r2))
    return d2 >= rsum * rsum


# the band near 1e-162 is where squares become subnormal
_coords = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e-161, 1e-161),
                    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3]))
_radii = st.one_of(st.floats(5e-324, 1e6, exclude_min=False), st.floats(1e-163, 1e-161),
                   st.sampled_from([5e-324, 2.2e-308, 1e-300, 0.1, 1.0]))
# directions along which a touching center lands (nearly) on the other
# ball's sphere: axes, and unit vectors with rational coordinates
_directions = st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.6, 0.8, 0.0),
                               (-0.8, 0.0, 0.6), (2 / 3, 2 / 3, 1 / 3),
                               (-2 / 7, 3 / 7, 6 / 7)])


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _ball_family(draw, dim):
    """Balls drawn freely, tangent to an earlier ball (exactly, along an
    axis, when r1 + r2 rounds exactly), or a few ulps from tangency."""
    balls = [(draw(st.lists(_coords, min_size=dim, max_size=dim)), draw(_radii))]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "touch", "near"]))
        if kind == "free":
            c = draw(st.lists(_coords, min_size=dim, max_size=dim))
        else:
            center, radius = balls[draw(st.integers(0, len(balls) - 1))]
            r = draw(_radii)
            u = draw(_directions)[:dim] if kind == "near" else (1.0, 0.0, 0.0)[:dim]
            c = [float(x) + (radius + r) * v for x, v in zip(center, u)]
            if kind == "near":
                k = draw(st.integers(0, dim - 1))
                c[k] = _ulps(c[k], draw(st.integers(-4, 4)))
                r = max(_ulps(r, draw(st.integers(-2, 2))), 5e-324)
        balls.append((c, r if kind != "free" else draw(_radii)))
    order = draw(st.permutations(range(len(balls))))
    return [balls[i] for i in order]


@settings(max_examples=400, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data())
def test_balls_disjoint_matches_fraction_reference(dim, data):
    balls = data.draw(_ball_family(dim))
    got = _disjoint(balls)
    assert got.shape == (len(balls), len(balls))
    assert got.tolist() == [[_balls_disjoint_fraction(a, b) for b in balls]
                            for a in balls]


# ---------------------------------------------------------------------------
# Regions

def _disk_samples(center, radius: float, pitch: float) -> np.ndarray:
    """The cell centres of a pitch lattice over the disk's bounding box that
    lie inside the open disk."""
    center = np.asarray(center, float)
    axes = [np.arange(l + pitch / 2, h, pitch)
            for l, h in zip(center - radius, center + radius)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    return pts[np.linalg.norm(pts - center, axis=1) < radius]


def test_region_requires_samples():
    with pytest.raises(DomainError):
        Region(np.zeros((0, 2)))


def test_region_builds_its_tree_once_on_first_query(monkeypatch):
    built = []
    tree = geom.cKDTree
    monkeypatch.setattr(geom, "cKDTree",
                        lambda pts, **kw: built.append(len(pts)) or tree(pts, **kw))
    reg = Region(_disk_samples((0.2, -0.1), 0.5, 0.05))
    assert built == []
    probes = np.random.default_rng(4).uniform(-0.5, 0.8, size=(300, 2))
    tol = 0.5 * 0.05 * math.sqrt(2)
    got = reg.contains_points(probes, tol)
    assert built == [len(reg.samples)]
    # the answers of a tree built up front, as every Region once did
    d, _ = tree(reg.samples).query(probes, k=1)
    assert got.tolist() == (d <= tol + 1e-12).tolist()
    assert reg.contains_points(probes, tol).tolist() == got.tolist()
    assert built == [len(reg.samples)]


# ---------------------------------------------------------------------------
# Diameters and farthest points (convex hull)

def _brute_diameter(pts):
    if len(pts) < 2:
        return 0.0
    return float(np.linalg.norm(pts[:, None] - pts[None], axis=2).max())


def test_cloud_diameter_exact_above_600_points():
    pts = _disk_samples((0, 0), 0.3, 0.02)
    assert len(pts) == 716
    assert _brute_diameter(pts) == pytest.approx(0.5993329625508684, rel=1e-15)
    assert geom._cloud_diameter(pts) == pytest.approx(0.5993329625508684,
                                                      rel=1e-12, abs=0)


def test_eccentricity_of_boundary_far_radius_is_exact():
    pts = _disk_samples((0, 0), 1.0, 1 / 100)
    assert len(pts) == 31428
    rng = np.random.default_rng(20211104)
    for c in rng.uniform(-0.5, 0.5, size=(400, 2)):
        dist = np.linalg.norm(pts - c, axis=1)
        ratio = geom.eccentricity_of_boundary(pts, [c])
        assert ratio == pytest.approx(dist.max() / dist.min(), rel=1e-12, abs=0)


@st.composite
def _boundary_stacks(draw):
    dim = draw(st.sampled_from([2, 3]))
    lead = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    m, k = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):       # lattice values: ties, and centres on samples
        boundary = rng.integers(-4, 5, size=(*lead, m, dim)).astype(float) / 4
        centers = rng.integers(-4, 5, size=(*lead, k, dim)).astype(float) / 4
    else:
        boundary = rng.normal(size=(*lead, m, dim))
        centers = 0.3 * rng.normal(size=(*lead, k, dim))
    return boundary, centers


def _per_centre_eccentricity(boundary, centers):
    """Test reference: each centre's radii over all samples, one at a time."""
    best = math.inf
    for c in centers:
        d = np.linalg.norm(boundary - c, axis=1)
        if d.min() > 1e-12:
            best = min(best, d.max() / d.min())
    return max(1.0, best)


@settings(max_examples=200, deadline=None)
@given(_boundary_stacks())
def test_eccentricity_of_boundary_stacks_match_per_set_calls(stack):
    boundary, centers = stack
    got = geom.eccentricity_of_boundary(boundary, centers)
    lead = boundary.shape[:-2]
    assert np.shape(got) == lead
    for idx in np.ndindex(*lead):
        one = geom.eccentricity_of_boundary(boundary[idx], centers[idx])
        assert isinstance(one, float)
        assert np.asarray(got)[idx] == one == _per_centre_eccentricity(boundary[idx],
                                                                      centers[idx])


@pytest.mark.parametrize("center, s, far, top, axis, up", [
    ((0.013970836029154832, -0.34240514579655956), 1.62540042895169,
     (-1.8078312211322463, -2.212701072526838), False, 1, False),
    ((1.78470000624095, -1.3724482095728385), 1.5383107774058895,
     (0.3085657258831018, 0.9884760750055861), False, 1, True),
    ((-0.7720225526497924, 1.904595740145433), 1.584375439896609,
     (1.4105209244225954, 2.03738678455386), True, 1, True),
])
def test_cloud_diameter_keeps_a_sample_qhull_drops(center, s, far, top, axis, up):
    # a lattice disk of pitch s / 7 under the singular map [[0, -0.132],
    # [0, 0.105]] lies on one line; with one far point added and one end of
    # the line moved by one ulp, Qhull drops that end as a near-duplicate of
    # a vertex, and the hull vertices' diameter came out one ulp short
    pitch, c = s / 7, np.asarray(center)
    ax = c[:, None] - s + pitch * (np.arange(int(math.ceil(2 * s / pitch))) + 0.5)
    pts = np.stack([g.ravel() for g in np.meshgrid(*ax, indexing="ij")], axis=1)
    pts = pts[np.hypot(*(pts - c).T) < s] @ np.array([[0, -0.132], [0, 0.105]]).T
    end = np.argmax(pts[:, 1]) if top else np.argmin(pts[:, 1])
    pts[end, axis] = np.nextafter(pts[end, axis], np.inf if up else -np.inf)
    pts = np.vstack([pts, far])
    assert geom._cloud_diameter(pts) == _brute_diameter(pts) == geom._farthest(pts)


@st.composite
def _clouds(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 800)))
    shape = draw(st.sampled_from(["general", "lattice", "flat", "duplicated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if shape == "lattice":        # many exact ties and collinear hull points
        pts = rng.integers(-6, 7, size=(n, dim)).astype(float) / 4
    elif shape == "flat":         # collinear in 2-D, coplanar in 3-D
        basis = rng.integers(-3, 4, size=(dim - 1, dim)).astype(float)
        pts = rng.integers(-20, 21, size=(n, dim - 1)).astype(float) @ basis
    else:
        pts = rng.normal(size=(n, dim))
    if shape == "duplicated" and n:
        pts = np.vstack([pts, pts[rng.integers(0, n, size=n // 2 + 1)]])
    return pts


@settings(max_examples=60, deadline=None)
@given(pts=_clouds())
def test_hull_farthest_points_match_brute_force(pts):
    assert geom._cloud_diameter(pts) == pytest.approx(_brute_diameter(pts),
                                                      rel=1e-12, abs=0)
    if len(pts) == 0:
        return
    hull = geom._hull_points(pts)
    queries = np.vstack([pts[:5], pts.mean(axis=0) + np.eye(pts.shape[1])])
    for q in queries:
        assert np.linalg.norm(hull - q, axis=1).max() == pytest.approx(
            np.linalg.norm(pts - q, axis=1).max(), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Hausdorff content

def test_normalization_constants():
    assert abs(hausdorff_normalization(1) - 1.0) < 1e-12
    assert abs(hausdorff_normalization(2) - math.pi / 4) < 1e-12


def test_content_segment_covers_itself():
    E = sets.interval_set(0, 1)
    assert abs(hausdorff_content(E, 1, math.inf) - 1.0) < 1e-12


@pytest.mark.parametrize("k", [2, 4, 6])
def test_content_cantor_scales_like_two_thirds(k):
    E = sets.make_cantor(k, fat=False)
    val = hausdorff_content(E, 1, delta=3.0 ** (-k))
    assert val <= (2 / 3) ** k + 1e-12


def test_content_unit_square_matches_area():
    E = sets.product_set(sets.interval_set(0, 1), sets.interval_set(0, 1))
    val = hausdorff_content(E, 2, delta=0.1)
    assert abs(val - 1.0) <= 0.05


def test_content_monotone_in_delta_and_set():
    small = sets.make_cantor(3, fat=False)
    big = sets.interval_set(0, 1)
    v_coarse = hausdorff_content(small, 1, delta=1.0)
    v_fine = hausdorff_content(small, 1, delta=1 / 27)
    assert v_fine <= v_coarse + 1e-12
    assert hausdorff_content(small, 1, 1 / 27) <= hausdorff_content(big, 1, 1 / 27) + 1e-12


def test_content_rejects_bad_parameters():
    E = sets.interval_set(0, 1)
    with pytest.raises(DomainError):
        hausdorff_content(E, -1.0)
    with pytest.raises(DomainError):
        hausdorff_content(E, 1.0, delta=0.0)


# ---------------------------------------------------------------------------
# Line integrals

def _integral(rho, curve):
    """A callable density's integral along the curve itself: offset 0."""
    return translate_line_integrals(rho, curve, np.zeros((1, curve.dim)))[0]


def test_line_integral_constant_density():
    gamma = PolyCurve([(0, 0), (3, 4)])
    assert abs(_integral(lambda p: np.ones(len(p)), gamma) - 5.0) < 1e-12


def test_line_integral_log_density_radial():
    # 1/(|x| log 2) along |x| from 1/2 to 1 integrates to exactly 1
    gamma = PolyCurve([(0.5, 0.0), (1.0, 0.0)])
    rho = lambda p: 1.0 / (np.linalg.norm(p, axis=1) * math.log(2))
    assert abs(_integral(rho, gamma) - 1.0) < 1e-6


def test_line_integral_circle_circumference():
    th = np.linspace(0, 2 * math.pi, 513)
    gamma = PolyCurve(2.0 * np.stack([np.cos(th), np.sin(th)], axis=1))
    val = _integral(lambda p: np.ones(len(p)), gamma)
    assert abs(val - 4 * math.pi) < 4 * math.pi * 1e-3


def test_line_integral_additive_under_concatenation():
    rho = lambda p: 1.0 + p[:, 0] ** 2
    g1 = PolyCurve([(0, 0), (1, 1)])
    g2 = PolyCurve([(1, 1), (2, 0)])
    whole = PolyCurve([(0, 0), (1, 1), (2, 0)])
    split = _integral(rho, g1) + _integral(rho, g2)
    assert abs(_integral(rho, whole) - split) < 1e-9


def _arclength_samples(vertices: np.ndarray, n: int) -> np.ndarray:
    """n points of the polygon through ``vertices``, evenly spaced in
    arclength, endpoints included."""
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(vertices, axis=0),
                                                        axis=1))])
    t = np.linspace(0.0, s[-1], n)
    return np.stack([np.interp(t, s, vertices[:, k])
                     for k in range(vertices.shape[1])], axis=1)


def test_line_integral_reparametrization_invariant():
    rho = lambda p: np.abs(p[:, 1]) + 0.3
    gamma = PolyCurve([(0, 0), (1, 2), (2, 2), (3, 0)])
    dense = PolyCurve(_arclength_samples(gamma.vertices, 400))
    assert abs(_integral(rho, gamma) - _integral(rho, dense)) < 2e-3


def test_weak_subpath_integral_bounded_by_full():
    rho = lambda p: 1.0 + np.abs(p[:, 0])
    gamma = PolyCurve([(0, 0), (2, 0), (2, 2)])
    sub = PolyCurve([(0.5, 0), (2, 0), (2, 0.5)])       # arclength 0.5 to 2.5
    assert _integral(rho, sub) <= _integral(rho, gamma) + 1e-12


def _ref_line_integral(rho, curve):
    """The per-point 64-panel Simpson loop that ``translate_line_integrals``
    replaced; ``rho`` here takes one point."""
    if curve.length() == 0:
        return 0.0
    total = 0.0
    for a, b in curve.segments():
        seg_len = float(np.linalg.norm(b - a))
        if seg_len == 0:
            continue
        m = 64
        t = np.linspace(0.0, 1.0, m + 1)
        pts = a[None] + t[:, None] * (b - a)[None]
        vals = np.array([float(rho(p)) for p in pts])
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += float((vals * w).sum()) * seg_len / (3 * m)
    return total


# one density, pointwise for the reference and on arrays for the new path:
# the same correctly rounded float operations on every point
def _rho_point(p):
    return 1.0 + p[0] * p[0] + 0.5 * abs(p[-1]) + 1.0 / (1.0 + p[1] * p[1])


def _rho_array(p):
    return (1.0 + p[:, 0] * p[:, 0] + 0.5 * np.abs(p[:, -1])
            + 1.0 / (1.0 + p[:, 1] * p[:, 1]))


_coord = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def _curves(draw):
    # vertices drawn from a small pool, so repeats give zero-length segments
    dim = draw(st.sampled_from([2, 3]))
    pool = draw(st.lists(st.tuples(*[_coord] * dim), min_size=1, max_size=4))
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=7))
    return PolyCurve([pool[i] for i in idx])


@settings(max_examples=120, deadline=None)
@given(_curves(),
       st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=3, max_size=15))
def test_translate_line_integrals_match_per_point_loop(curve, flat):
    offsets = np.array(flat[:len(flat) // curve.dim * curve.dim]).reshape(-1, curve.dim)
    got = translate_line_integrals(_rho_array, curve, offsets)
    want = [_ref_line_integral(_rho_point, PolyCurve(curve.vertices + x))
            for x in offsets]
    assert got.tolist() == want
    assert _integral(_rho_array, curve) == _ref_line_integral(_rho_point, curve)


def test_pointwise_or_scalar_density_is_rejected():
    gamma = PolyCurve([(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)])
    # pointwise densities given the node array return a scalar or the wrong
    # shape; a broadcast scalar would be silently wrong (1/(|p| log 2) on the
    # radius from 1/2 to 1 would integrate to 0.083 instead of 1)
    for rho in (lambda p: 1.0, lambda p: 1.0 / (np.linalg.norm(p) * math.log(2)),
                lambda p: abs(p[1]) + 0.3, lambda p: np.ones((len(p), 1))):
        for n in (1, 3):
            with pytest.raises(DomainError, match="density must map"):
                translate_line_integrals(rho, gamma, np.zeros((n, 2)))


def test_line_integral_exact_for_piecewise_constant_cells():
    from extremal.modfam import DensityField
    vals = np.array([[2.0, 3.0], [5.0, 7.0]])
    rho = DensityField(vals, spacing=1.0, origin=np.zeros(2))
    # cross cells (0,0) -> (1,0) horizontally at y = 0.5: half in each
    gamma = PolyCurve([(0.0, 0.5), (2.0, 0.5)])
    assert abs(line_integral(rho, gamma) - (2.0 + 5.0)) < 1e-12
    # diagonal crossing splits at the vertical cell boundary
    gamma2 = PolyCurve([(0.0, 0.0), (2.0, 1.0)])
    seg_len = math.hypot(2, 1)
    assert abs(line_integral(rho, gamma2)
               - seg_len * (2.0 / 2 + 5.0 / 2)) < 1e-9
