import heapq
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from hypothesis import given, settings, strategies as st

from extremal import geom, qhyp
from extremal.geom import DomainError
from extremal.qhyp import (PolygonDomain, QhGrid, comb_domain, cusp_domain,
                           disk_domain, qh_distance, shadow_sum_diagnostic,
                           shadows, whitney_decompose)


DISK = disk_domain(1.0, 128)
# the unit square and the square [-1, 1]^2
SQUARE = PolygonDomain([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
SQUARE_2 = PolygonDomain([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


# ---------------------------------------------------------------------------
# Polygon domains

def test_polygon_contains_and_distance():
    pts = np.array([[0.0, 0.0], [0.9, 0.9], [1.5, 0.0]])
    assert list(SQUARE_2.contains(pts)) == [True, True, False]
    assert abs(SQUARE_2.boundary_distance(pts[:1])[0] - 1.0) < 1e-9


# The vectorized kernels against the per-edge formulas they replace, compared
# with ==: every membership bit and every distance must be the same float.

def _ref_crossing_number(pts, ring):
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), bool)
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < np.where(cond, xcross, np.inf))
    return inside


def _ref_points_segments_dist(pts, a, b):
    d = b - a
    L2 = (d ** 2).sum(1)
    L2 = np.where(L2 == 0, 1e-300, L2)
    w = pts[:, None, :] - a[None, :, :]
    t = np.clip((w * d[None]).sum(-1) / L2[None], 0.0, 1.0)
    proj = a[None] + t[..., None] * d[None]
    return np.sqrt(((pts[:, None, :] - proj) ** 2).sum(-1)).min(axis=1)


# the square and the comb have horizontal edges
_RINGS = [DISK.outer, SQUARE_2.outer,
          comb_domain(4).outer, cusp_domain(8.0).outer]


@st.composite
def _ring_and_points(draw):
    ring = _RINGS[draw(st.integers(0, len(_RINGS) - 1))]
    lo, hi = ring.min(axis=0) - 0.1, ring.max(axis=0) + 0.1
    pts = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["free", "vertex", "edge"]))
        i = draw(st.integers(0, len(ring) - 1))
        if kind == "vertex":
            pts.append(ring[i])
        elif kind == "edge":
            u = draw(st.floats(0.0, 1.0))
            pts.append(ring[i] + u * (ring[(i + 1) % len(ring)] - ring[i]))
        else:
            pts.append([draw(st.floats(lo[0], hi[0])), draw(st.floats(lo[1], hi[1]))])
    return ring, np.array(pts, float).reshape(-1, 2)


def _edge_points(ring):
    """41 points along every edge, vertices included: points on an edge are
    where a reordered crossing formula flips a membership bit."""
    u = np.linspace(0.0, 1.0, 41)[:, None, None]
    return (ring + u * (np.roll(ring, -1, axis=0) - ring)).reshape(-1, 2)


def _segments_and_a_point(ring):
    """The ring's edges plus one zero-length segment."""
    a = np.concatenate([ring, ring[:1]])
    b = np.concatenate([np.roll(ring, -1, axis=0), ring[:1]])
    return a, b


@settings(max_examples=60, deadline=None)
@given(case=_ring_and_points())
def test_crossing_number_bit_identical_to_per_edge_loop(case):
    ring, pts = case
    assert np.array_equal(qhyp._crossing_number(pts, ring),
                          _ref_crossing_number(pts, ring))


@settings(max_examples=60, deadline=None)
@given(case=_ring_and_points())
def test_points_segments_dist_bit_identical_to_2vector_formula(case):
    ring, pts = case
    a, b = _segments_and_a_point(ring)
    assert np.array_equal(qhyp._points_segments_dist(pts, a, b),
                          _ref_points_segments_dist(pts, a, b))


@pytest.mark.parametrize("ring", _RINGS, ids=["disk", "square", "comb", "cusp"])
def test_kernels_bit_identical_on_vertices_edges_and_chunks(ring):
    rng = np.random.default_rng(5)
    lo, hi = ring.min(axis=0), ring.max(axis=0)
    many = rng.uniform(lo, hi, size=(5000, 2))   # several chunks on disk and cusp
    a, b = _segments_and_a_point(ring)
    for pts in (_edge_points(ring), ring[:1], np.empty((0, 2)), many):
        assert np.array_equal(qhyp._crossing_number(pts, ring),
                              _ref_crossing_number(pts, ring))
        assert np.array_equal(qhyp._points_segments_dist(pts, a, b),
                              _ref_points_segments_dist(pts, a, b))


# The mechanism of the two kernels: the crossing test runs on the run of
# y-sorted points each edge straddles, and the distance kernel keeps, per
# bucket of points, only the segments that can be nearest.  Each case is one
# where a wrong run or a wrong prune would flip a bit.

def _assert_kernels_match(pts, rings):
    segs = np.concatenate([qhyp._ring_segments(r) for r in rings])
    a, b = segs[:, 0], segs[:, 1]
    for ring in rings:
        assert np.array_equal(qhyp._crossing_number(pts, ring),
                              _ref_crossing_number(pts, ring))
    assert np.array_equal(qhyp._points_segments_dist(pts, a, b),
                          _ref_points_segments_dist(pts, a, b))


def _lattice(lo, hi, n):
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n),
                       indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


@pytest.mark.parametrize("ring", _RINGS, ids=["disk", "square", "comb", "cusp"])
def test_kernels_on_a_lattice_with_many_points_per_row(ring):
    lo, hi = ring.min(axis=0) - 0.05, ring.max(axis=0) + 0.05
    pts = _lattice(lo, hi, 150)                 # 150 points on each of 150 rows
    _assert_kernels_match(pts, [ring])


@pytest.mark.parametrize("ring", _RINGS, ids=["disk", "square", "comb", "cusp"])
def test_kernels_at_crossing_abscissae_and_vertices(ring):
    # on every vertex row and every row halfway between two of them, each
    # edge's crossing abscissa itself and its two float neighbours, plus
    # every vertex
    x1, y1 = ring[:, 0], ring[:, 1]
    nxt = np.roll(ring, -1, axis=0)
    dx, dy = nxt[:, 0] - x1, nxt[:, 1] - y1
    vy = np.unique(y1)
    y = np.concatenate([vy, (vy[1:] + vy[:-1]) / 2])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = x1 + (y - y1) * dx / dy
    on = ((y1 > y) != (nxt[:, 1] > y)) & np.isfinite(xc)
    xs = xc[on]
    ys = np.broadcast_to(y, xc.shape)[on]
    pts = np.concatenate([np.stack([np.nextafter(xs, -np.inf), ys], axis=1),
                          np.stack([xs, ys], axis=1),
                          np.stack([np.nextafter(xs, np.inf), ys], axis=1), ring])
    assert len(xs) >= 2 * len(vy)
    _assert_kernels_match(pts, [ring])


def test_kernels_on_rows_through_horizontal_edges():
    comb = comb_domain(4)
    # rows at the comb's floor, slit bottoms and top, the three heights of
    # its horizontal edges, each with points across the whole width
    flat = np.unique(comb.outer[:, 1])
    assert list(flat) == [0.0, 0.25, 1.0]
    xs = np.concatenate([np.linspace(-0.1, 2.1, 221), comb.outer[:, 0]])
    pts = np.array([(x, y) for y in flat for x in xs])
    _assert_kernels_match(pts, [comb.outer])


def test_kernels_on_a_domain_with_a_hole():
    ring = SQUARE_2.outer
    hole = disk_domain(0.5, 32).outer
    dom = PolygonDomain(ring, [hole])
    pts = np.concatenate([_lattice((-1.1, -1.1), (1.1, 1.1), 90), hole, _edge_points(hole)])
    _assert_kernels_match(pts, [dom.outer, dom.holes[0]])
    want = _ref_crossing_number(pts, dom.outer) & ~_ref_crossing_number(pts, dom.holes[0])
    assert np.array_equal(dom.contains(pts), want)
    assert not dom.contains([[0.0, 0.0]])[0] and dom.contains([[0.75, 0.0]])[0]


def test_distance_kernel_on_bucket_borders():
    # 4400 points whose bounding box is [0, 2] x [0, 1], 20 on every border
    # line between the g x g buckets, one at every bucket corner, and the
    # rest random
    n = 4400
    g = round(math.sqrt(n / qhyp._BUCKET_POINTS))
    assert g > 2
    gx, gy = np.linspace(0.0, 2.0, g + 1), np.linspace(0.0, 1.0, g + 1)
    t = np.linspace(0.0, 1.0, 20)
    border = [np.stack([np.full(20, x), t], axis=1) for x in gx]
    border += [np.stack([2 * t, np.full(20, y)], axis=1) for y in gy]
    border.append(np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2))
    border = np.concatenate(border)
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform((0.0, 0.0), (2.0, 1.0), size=(n - len(border), 2)),
                          border])
    for ring in _RINGS:
        _assert_kernels_match(pts, [ring])


def test_distance_prune_keeps_a_nearest_segment_far_from_the_centre():
    # one bucket, [0, 1]^2 with centre c and half-diagonal r = sqrt(2) / 2;
    # a point segment at c makes min_s dist(c, s) = 0.  The corner point
    # (0, 0) is nearest to a point segment t = 0.65 beyond it on the
    # diagonal, at r + t = 1.357 from c: inside the bound 2r = 1.414, so a
    # prune any tighter than 2r loses it
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2], [0.3, 0.9]])
    q = -0.65 / math.sqrt(2)
    a = np.array([[0.5, 0.5], [q, q], [3.0, 0.5]])
    got = qhyp._points_segments_dist(pts, a, a.copy())
    assert np.array_equal(got, _ref_points_segments_dist(pts, a, a.copy()))
    assert abs(got[0] - 0.65) < 1e-12


def test_kernels_with_one_far_outlier():
    # the outlier stretches the bucket grid, so nearly every point shares
    # one bucket whose centre is far from all of them
    rng = np.random.default_rng(12)
    for ring in _RINGS:
        lo, hi = ring.min(axis=0), ring.max(axis=0)
        pts = np.concatenate([rng.uniform(lo, hi, size=(3000, 2)), [[900.0, -700.0]]])
        _assert_kernels_match(pts, [ring])


def test_kernels_on_a_domain_far_from_the_origin():
    # coordinates near 1e6 round p - a to 2**-33: the prune margin scales
    # with the coordinates, not with the distances
    th = np.linspace(0, 2 * math.pi, 128, endpoint=False)
    far = PolygonDomain(np.array([1.0e6, -3.0e5])
                        + 0.5 * np.stack([np.cos(th), np.sin(th)], axis=1))
    lo, hi = far.bbox()
    pts = np.concatenate([_lattice(lo - 0.01, hi + 0.01, 120), _edge_points(far.outer),
                          np.random.default_rng(13).uniform(lo, hi, size=(3000, 2))])
    _assert_kernels_match(pts, [far.outer])


# ---------------------------------------------------------------------------
# Whitney decomposition

def test_whitney_square_invariants_exact():
    dec = whitney_decompose(SQUARE, max_depth=6)
    rep = dec.verify_exact()
    assert rep["cubes"] > 0
    assert rep["lower_violations"] == []
    assert rep["upper_violations"] == []
    assert rep["neighbor_ratio_ok"]


def test_whitney_disk_invariants_exact():
    dec = whitney_decompose(DISK, max_depth=6)
    rep = dec.verify_exact()
    assert rep["lower_violations"] == []
    assert rep["upper_violations"] == []
    assert rep["neighbor_ratio_ok"]
    assert dec.truncated > 0


def test_whitney_interiors_disjoint():
    dec = whitney_decompose(DISK, max_depth=6)
    unit = 2 ** dec.max_depth
    seen = set()
    for depth, qi, qj in dec.cubes.tolist():
        w = 2 ** (dec.max_depth - depth)
        for i in range(qi * w, (qi + 1) * w):
            for j in range(qj * w, (qj + 1) * w):
                assert (i, j) not in seen
                seen.add((i, j))


def test_whitney_cube_count_grows_near_boundary():
    counts = [len(whitney_decompose(DISK, max_depth=d).cubes) for d in (5, 6, 7)]
    assert counts[1] >= 2 * counts[0]
    assert counts[2] >= 2 * counts[1]


# The per-cube decomposition that the level-by-level frontier replaced: one
# cube popped off a stack at a time, with its own float distance and
# membership calls.  Every field of every cube must come out ==.

_RefCube = namedtuple("_RefCube", "depth ij corner side dist")

def _ref_any_segment_hits_box(a, b, lo, hi) -> bool:
    t0 = np.zeros(len(a))
    t1 = np.ones(len(a))
    d = b - a
    ok = np.ones(len(a), bool)
    for ax in range(2):
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo[ax] - a[:, ax]) / d[:, ax]
            tb = (hi[ax] - a[:, ax]) / d[:, ax]
        swap = ta > tb
        ta2 = np.where(swap, tb, ta)
        tb2 = np.where(swap, ta, tb)
        flat = d[:, ax] == 0
        outside_flat = flat & ((a[:, ax] < lo[ax]) | (a[:, ax] > hi[ax]))
        ok &= ~outside_flat
        t0 = np.where(flat, t0, np.maximum(t0, ta2))
        t1 = np.where(flat, t1, np.minimum(t1, tb2))
    return bool((ok & (t0 <= t1)).any())


def _ref_cube_boundary_dist_float(corner, side, domain) -> float:
    a, b = domain._seg_a, domain._seg_b
    lo = corner
    hi = corner + side
    if _ref_any_segment_hits_box(a, b, lo, hi):
        return 0.0
    corners = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
    best = float(_ref_points_segments_dist(corners, a, b).min())
    ends = np.concatenate([a, b], axis=0)
    for edge_a, edge_b in ((corners[0], corners[1]), (corners[1], corners[2]),
                           (corners[3], corners[2]), (corners[0], corners[3])):
        d = _ref_points_segments_dist(ends, edge_a[None], edge_b[None])
        best = min(best, float(d.min()))
    return best


def _ref_whitney_decompose(domain, max_depth):
    lo, hi = domain.bbox()
    span = float((hi - lo).max()) * 1.001
    root_side = 2.0 ** math.ceil(math.log2(span))
    root_corner = qhyp._snap(np.asarray(lo, float) - (root_side - span) / 2)
    bd = qhyp._DyadicBoundary(domain, root_corner, root_side, max_depth)
    cubes = []
    truncated = 0
    stack = [(0, (0, 0))]
    margin = 1e-9 * max(1.0, root_side)
    while stack:
        depth, ij = stack.pop()
        side = root_side / 2 ** depth
        corner = root_corner + np.array(ij, float) * side
        center = corner + side / 2
        d_cube = _ref_cube_boundary_dist_float(corner, side, domain)
        inside = bool(domain.contains(center[None])[0])
        if d_cube > 0 and not inside:
            continue
        diam = side * math.sqrt(2)
        if not inside:
            accept = False
        elif d_cube - diam > margin:
            accept = True
        elif d_cube - diam < -margin:
            accept = False
        else:
            num, den = bd.cube_dist2(depth, ij)
            s_int = bd.side(depth)
            accept = 2 * s_int * s_int * den <= num and num > 0
        if accept:
            cubes.append(_RefCube(depth, ij, corner, side, d_cube))
            continue
        if depth >= max_depth:
            truncated += 1
            continue
        for di in (0, 1):
            for dj in (0, 1):
                stack.append((depth + 1, (2 * ij[0] + di, 2 * ij[1] + dj)))
    if not cubes:
        raise DomainError("domain has no interior at this depth")
    cubes.sort(key=lambda q: (q.depth, q.ij))
    return cubes, truncated, _ref_adjacency(cubes, max_depth)


def _ref_adjacency(cubes, max_depth):
    """Every pair of cubes whose integer spans at scale 2**max_depth share a
    face of positive length, each pair checked against every other cube."""
    spans = []
    for q in cubes:
        w = 2 ** (max_depth - q.depth)
        spans.append((q.ij[0] * w, q.ij[1] * w, (q.ij[0] + 1) * w, (q.ij[1] + 1) * w))
    x0, y0, x1, y1 = np.array(spans, np.int64).T
    edges = []
    for k in range(len(cubes)):
        o = slice(k + 1, None)
        x_overlap = np.minimum(x1[k], x1[o]) - np.maximum(x0[k], x0[o])
        y_overlap = np.minimum(y1[k], y1[o]) - np.maximum(y0[k], y0[o])
        x_face = (x1[k] == x0[o]) | (x0[k] == x1[o])
        y_face = (y1[k] == y0[o]) | (y0[k] == y1[o])
        hit = (x_face & (y_overlap > 0)) | (y_face & (x_overlap > 0))
        edges += [[k, k + 1 + int(m)] for m in np.flatnonzero(hit)]
    return edges


def _cut_square():
    """The unit square cut along x + y = c, with c chosen so that some cube
    corners lie at distance exactly diam from the cut: those decisions fall
    to the exact path."""
    side7 = 2.0 / 2 ** 7                 # the root cube has side 2
    corner = qhyp._snap(np.array([-(2.0 - 1.001) / 2]))[0]
    c = 2 * corner + round((1.6 - 2 * corner) / side7) * side7
    return PolygonDomain([(0, 0), (1, 0), (1, c - 1), (c - 1, 1), (0, 1)])


# a square with a spike into the domain from each side: a spike's tip is
# nearest to the cubes beyond it, so each cube edge's distance decides some
SPIKES = PolygonDomain([(0, 0), (0.47, 0), (0.5, 0.3), (0.53, 0), (1, 0),
                        (1, 0.47), (0.7, 0.5), (1, 0.53), (1, 1), (0.53, 1),
                        (0.5, 0.7), (0.47, 1), (0, 1), (0, 0.53), (0.3, 0.5),
                        (0, 0.47)])


@pytest.mark.parametrize("name", ["disk", "cusp", "square", "comb", "cut", "spikes"])
def test_whitney_frontier_matches_per_cube_reference(name):
    domain = {"disk": DISK, "cusp": cusp_domain(8.0), "comb": comb_domain(4),
              "square": SQUARE, "cut": _cut_square(), "spikes": SPIKES}[name]
    # cubes per chunk of the frontier kernels
    rows = qhyp._CHUNK_PAIRS // (2 * len(domain.segments))
    chunked = False
    for depth in (6, 7) if name == "comb" else (5, 6, 7):
        dec = whitney_decompose(domain, max_depth=depth)
        cubes, truncated, adjacency = _ref_whitney_decompose(domain, depth)
        assert dec.cubes.dtype == np.int64 and dec.cubes.shape == (len(cubes), 3)
        assert dec.dist.dtype == np.float64 and dec.dist.shape == (len(cubes),)
        assert dec.cubes.tolist() == [[r.depth, *r.ij] for r in cubes]
        assert dec.side.tolist() == [r.side for r in cubes]
        assert dec.dist.tolist() == [r.dist for r in cubes]
        corners = np.array([r.corner for r in cubes])
        assert dec.corner.dtype == corners.dtype and np.array_equal(dec.corner, corners)
        assert dec.truncated == truncated
        assert dec.adjacency.dtype == np.int64
        assert dec.adjacency.shape == (len(adjacency), 2)
        assert dec.adjacency.tolist() == adjacency
        # the truncated cubes are all in the last frontier
        chunked |= truncated > rows
    assert chunked or name in ("square", "cut")   # 2,048 and 1,638 cubes a chunk
    if name == "comb":
        # no cube of the comb fits between its slits at depth 5
        for decompose in (whitney_decompose, _ref_whitney_decompose):
            with pytest.raises(DomainError):
                decompose(domain, 5)


@st.composite
def _quadtree(draw, max_depth=7, splits=48):
    """The leaves of a random quadtree of the root square, as (depth, i, j)
    rows in table order, some dropped to leave gaps as the domain's
    exterior does; leaves sharing a face may differ in depth by up to
    max_depth - 1."""
    leaves, stack = [], [(0, 0, 0)]
    while stack:
        depth, i, j = stack.pop()
        if depth < max_depth and splits and draw(st.booleans()):
            splits -= 1
            stack += [(depth + 1, 2 * i + a, 2 * j + c) for a in (0, 1) for c in (0, 1)]
        else:
            leaves.append((depth, i, j))
    kept = [q for q in leaves if draw(st.integers(0, 3))]
    return sorted(kept or leaves[:1])


@settings(max_examples=150, deadline=None)
@given(_quadtree())
def test_adjacency_by_address_lookup_matches_all_pairs_reference(leaves):
    cubes = np.array(leaves, np.int64)
    got = qhyp._build_adjacency(cubes, 7)
    ref = _ref_adjacency([_RefCube(d, (i, j), None, None, None) for d, i, j in leaves], 7)
    assert got.dtype == np.int64 and got.shape == (len(ref), 2)
    assert got.tolist() == ref


def _corner_split(depth):
    """The root square split into quadrants, and the quadrant (1, 1, 0) split
    again and again at its lower left corner down to ``depth``: the quadrant
    (1, 0, 0) meets the cube (depth, 2**(depth - 1), 0) across x = 1/2."""
    leaves = [(1, 0, 0), (1, 0, 1), (1, 1, 1)]
    for d in range(2, depth + 1):
        i = 2 ** (d - 1)
        leaves += [(d, i + 1, 0), (d, i, 1), (d, i + 1, 1)]
    return np.array(sorted(leaves + [(depth, 2 ** (depth - 1), 0)]), np.int64)


@pytest.mark.parametrize("depth, ok", [(3, True), (4, False)])
def test_neighbor_ratio_check_sees_every_depth_jump(depth, ok):
    cubes = _corner_split(depth)
    adjacency = qhyp._build_adjacency(cubes, depth)
    assert [0, cubes.tolist().index([depth, 2 ** (depth - 1), 0])] in adjacency.tolist()
    dec = qhyp.WhitneyDecomposition(SQUARE, cubes, np.ones(len(cubes)),
                                    adjacency, 0, np.zeros(2), 1.0, depth)
    assert dec.verify_exact()["neighbor_ratio_ok"] is ok


# Reference for the exact cube distance: every boundary segment, no prune,
# coordinates as integers at the fixed scale 2**40, a different formulation
# from qhyp's (box contact through endpoint-in-box or edge crossing, distances
# through the projection point).

_REF_SCALE = 2 ** 40


def _ref_int(v) -> int:
    f = Fraction(v) * _REF_SCALE
    assert f.denominator == 1
    return f.numerator


def _ref_orient(u, v, w) -> int:
    return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])


def _ref_on_segment(w, u, v) -> bool:
    return (min(u[0], v[0]) <= w[0] <= max(u[0], v[0])
            and min(u[1], v[1]) <= w[1] <= max(u[1], v[1]))


def _ref_segments_meet(p, q, a, b) -> bool:
    o1, o2 = _ref_orient(p, q, a), _ref_orient(p, q, b)
    o3, o4 = _ref_orient(a, b, p), _ref_orient(a, b, q)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and _ref_on_segment(a, p, q))
            or (o2 == 0 and _ref_on_segment(b, p, q))
            or (o3 == 0 and _ref_on_segment(p, a, b))
            or (o4 == 0 and _ref_on_segment(q, a, b)))


def _ref_point_seg_dist2(p, a, b):
    """|p - (a + t (b - a))|**2 with t clamped to [0, 1], as (num, den)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    L2 = dx * dx + dy * dy
    t = (p[0] - a[0]) * dx + (p[1] - a[1]) * dy       # parameter times L2
    if L2 == 0 or t <= 0:
        return (p[0] - a[0]) ** 2 + (p[1] - a[1]) ** 2, 1
    if t >= L2:
        return (p[0] - b[0]) ** 2 + (p[1] - b[1]) ** 2, 1
    ex = p[0] * L2 - (a[0] * L2 + t * dx)
    ey = p[1] * L2 - (a[1] * L2 + t * dy)
    return ex * ex + ey * ey, L2 * L2


def _ref_cube_dist2(dec, segs, depth, i, j):
    side = _ref_int(dec.root_side) >> depth
    x0 = _ref_int(dec.root_corner[0]) + i * side
    y0 = _ref_int(dec.root_corner[1]) + j * side
    corners = [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]
    edges = list(zip(corners, corners[1:] + corners[:1]))
    best = None
    for a, b in segs:
        if (any(x0 <= p[0] <= x0 + side and y0 <= p[1] <= y0 + side for p in (a, b))
                or any(_ref_segments_meet(e0, e1, a, b) for e0, e1 in edges)):
            return Fraction(0)
        cands = [_ref_point_seg_dist2(c, a, b) for c in corners]
        cands += [_ref_point_seg_dist2(p, e0, e1) for p in (a, b) for e0, e1 in edges]
        for num, den in cands:
            if best is None or num * best[1] < best[0] * den:
                best = (num, den)
    return Fraction(best[0], best[1] * _REF_SCALE ** 2)


@pytest.fixture(scope="module")
def depth6_decompositions():
    return {name: whitney_decompose(dom, max_depth=6)
            for name, dom in (("disk", DISK), ("cusp", cusp_domain(8.0)),
                              ("comb", comb_domain(4)))}


def test_exact_cube_dist2_matches_all_segment_brute_force(depth6_decompositions):
    for name, dec in depth6_decompositions.items():
        bd = qhyp._DyadicBoundary(dec.domain, dec.root_corner, dec.root_side,
                                  dec.max_depth)
        segs = [tuple((_ref_int(p[0]), _ref_int(p[1])) for p in seg)
                for seg in dec.domain.segments]
        wrong = []
        for k, (depth, i, j) in enumerate(dec.cubes.tolist()):
            num, den = bd.cube_dist2(depth, (i, j))
            if Fraction(num, den * 4 ** bd.shift) != _ref_cube_dist2(dec, segs, depth, i, j):
                wrong.append(k)
        assert wrong == [], f"{name}: {len(wrong)} cubes"


def test_whitney_cusp_and_comb_verify_clean(depth6_decompositions):
    for name in ("cusp", "comb"):
        rep = depth6_decompositions[name].verify_exact()
        assert rep["lower_violations"] == [], name
        assert rep["upper_violations"] == [], name
        assert rep["neighbor_ratio_ok"], name


def test_whitney_empty_domain_rejected():
    # a polygon with zero area after snapping has no interior cubes
    degenerate = PolygonDomain([(0, 0), (1, 0), (1, 1e-9), (0, 1e-9)])
    with pytest.raises(DomainError):
        whitney_decompose(degenerate, max_depth=4)


# ---------------------------------------------------------------------------
# Quasihyperbolic distance

def test_qh_distance_same_point_zero():
    res = qh_distance(DISK, (0.1, 0.2), (0.1, 0.2), pitch=0.02)
    assert res["value"] == 0.0


def test_qh_distance_disk_matches_radial_integral():
    res = qh_distance(DISK, (0.0, 0.0), (0.0, 0.9), pitch=0.01)
    exact = math.log(10)      # int_0^0.9 dt/(1-t)
    assert abs(res["value"] - exact) / exact < 0.05


def test_qh_distance_symmetric_exactly():
    a, b = (0.3, 0.4), (-0.5, 0.1)
    v1 = qh_distance(DISK, a, b, pitch=0.02)["value"]
    v2 = qh_distance(DISK, b, a, pitch=0.02)["value"]
    assert v1 == v2


def test_qh_distance_triangle_inequality():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.6, 0.6, size=(3, 2))
    d01 = qh_distance(DISK, pts[0], pts[1], pitch=0.02)["value"]
    d12 = qh_distance(DISK, pts[1], pts[2], pitch=0.02)["value"]
    d02 = qh_distance(DISK, pts[0], pts[2], pitch=0.02)["value"]
    assert d02 <= d01 + d12 + 1e-9


def test_qh_distance_unreachable_is_infeasible():
    # deep cusp point beyond the grid resolution: flagged, not crashed
    cusp = cusp_domain(8.0)
    res = qh_distance(cusp, (1.75, 0.0), (0.45, 0.0), pitch=0.05)
    assert res["infeasible"]
    assert res["value"] == math.inf


def test_qhgrid_and_qh_distance_build_no_tree(monkeypatch):
    # the nearest node and the resolution check read one row of distances
    # to every node; a kd-tree over the nodes is never built
    cusp = cusp_domain(8.0)
    queries = [(DISK, (0.3, 0.4), (-0.5, 0.1), 0.02),
               (cusp, (1.75, 0.0), (0.45, 0.0), 0.05)]
    want = [qh_distance(*q) for q in queries]

    def refuse(*args, **kwargs):
        raise AssertionError("kd-tree built")
    monkeypatch.setattr(qhyp, "cKDTree", refuse)
    assert [qh_distance(*q) for q in queries] == want
    assert [w["infeasible"] for w in want] == [False, True]
    grid = QhGrid(DISK, 0.02)
    for p in np.random.default_rng(5).uniform(-0.7, 0.7, size=(20, 2)):
        assert grid.nearest_node(p) == np.argmin(np.linalg.norm(grid.nodes - p, axis=1))


def test_qhgrid_lattice_is_bounded_before_allocation():
    # (2047 + 1)^2 = 2^22 lattice points fit the budget, (2048 + 1)^2 do not
    qhyp.check_lattice(PolygonDomain([(0, 0), (2047, 0), (2047, 2047), (0, 2047)]), 1.0)
    with pytest.raises(DomainError, match="gives a lattice of 4.198e[+]06 points"):
        qhyp.check_lattice(
            PolygonDomain([(0, 0), (2048, 0), (2048, 2048), (0, 2048)]), 1.0)
    # the quotient overflows to inf: this ended in an OverflowError from int()
    with pytest.raises(DomainError, match="gives a lattice of inf points"):
        QhGrid(DISK, 1e-320)


def test_qh_distance_rejects_exterior_points():
    with pytest.raises(DomainError):
        qh_distance(DISK, (0.0, 0.0), (2.0, 0.0), pitch=0.05)


# The QhGrid assembly that took boundary distances on the whole bounding-box
# lattice and evaluated each step direction's midpoints on its own (the two
# diagonals of a cell twice), dropping midpoints outside the domain or at
# distance 0; the node and CSR arrays must be ==.

def _ref_qhgrid_mat(domain, pitch):
    lo, hi = domain.bbox()
    nx = int(math.ceil((hi[0] - lo[0]) / pitch)) + 1
    ny = int(math.ceil((hi[1] - lo[1]) / pitch)) + 1
    xs = lo[0] + pitch * np.arange(nx)
    ys = lo[1] + pitch * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    delta = domain.boundary_distance(pts)
    ok = domain.contains(pts) & (delta > pitch)
    nodes = pts[ok]
    index = -np.ones(nx * ny, np.int64)
    index[ok] = np.arange(len(nodes))
    rows, cols, data = [], [], []
    grid_idx = index.reshape(nx, ny)
    for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        src = np.argwhere(grid_idx >= 0)
        dst = src + np.array([dx, dy])
        keep = np.all((dst >= 0) & (dst < np.array([nx, ny])), axis=1)
        src, dst = src[keep], dst[keep]
        si = grid_idx[src[:, 0], src[:, 1]]
        di = grid_idx[dst[:, 0], dst[:, 1]]
        keep2 = di >= 0
        si, di = si[keep2], di[keep2]
        mid = 0.5 * (nodes[si] + nodes[di])
        dmid = domain.boundary_distance(mid)
        inside = domain.contains(mid) & (dmid > 0)
        si, di, dmid = si[inside], di[inside], dmid[inside]
        w = math.hypot(dx, dy) * pitch / dmid
        rows += [si, di]
        cols += [di, si]
        data += [w, w]
    n = len(nodes)
    mat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return nodes, mat


_HOLED = PolygonDomain([(0, 0), (2, 0), (2, 2), (0, 2)],
                       holes=[[(0.6, 0.6), (0.6, 1.3), (1.4, 1.3), (1.4, 0.6)]])


@pytest.mark.parametrize("name,pitch,x1,x2", [
    ("disk", 0.02, (0.0, 0.0), (0.0, 0.9)),
    ("disk", 0.01, (0.3, 0.4), (-0.5, 0.1)),
    ("cusp", 0.02, (1.75, 0.0), (1.1, 0.02)),
    ("cusp", 0.005, (1.75, 0.0), (0.9, 0.0)),
    ("comb", 0.01, (0.1, 0.9), (1.9, 0.9)),
    ("comb", 0.02, (0.1, 0.9), (1.9, 0.9)),
    ("holed", 0.02, (0.3, 0.3), (1.7, 1.7)),
    ("holed", 0.01, (0.3, 1.0), (1.7, 1.0)),
])
def test_qhgrid_matches_per_direction_assembly(name, pitch, x1, x2):
    # every step midpoint lies within pitch * sqrt(2) / 2 of a node whose
    # boundary distance exceeds the pitch, so it is inside at positive
    # distance, holes included; exterior lattice points need no distance
    domain = {"disk": DISK, "cusp": cusp_domain(8.0), "comb": comb_domain(4),
              "holed": _HOLED}[name]
    grid = QhGrid(domain, pitch)
    nodes, mat = _ref_qhgrid_mat(domain, pitch)
    assert np.array_equal(grid.nodes, nodes)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(grid.mat, attr), getattr(mat, attr)), attr
    res = qh_distance(domain, x1, x2, pitch=pitch)
    grid.mat = mat
    a, b = sorted([x1, x2])                 # the order qh_distance queries in
    assert not res["infeasible"]
    assert res["value"] == grid.distance_field(a)[grid.nearest_node(b)]


# ---------------------------------------------------------------------------
# Shadows

@pytest.fixture(scope="module")
def disk_shadows():
    dec = whitney_decompose(DISK, max_depth=6)
    return dec, shadows(DISK, (0.0, 0.0), dec)


def test_shadow_of_root_is_whole_boundary(disk_shadows):
    dec, sh = disk_shadows
    assert len(sh["routes"][sh["root"]]) == len(sh["boundary_samples"])
    assert abs(sh["s"][sh["root"]] - 2.0) < 0.05        # diam of the disk boundary


def test_leaf_with_single_sample_has_zero_s(disk_shadows):
    dec, sh = disk_shadows
    assert any(len(r) == 1 and s == 0.0 for r, s in zip(sh["routes"], sh["s"]))


def test_shadow_diameters_bounded_by_boundary_diameter(disk_shadows):
    dec, sh = disk_shadows
    bd = 2.0 + 4 / 128
    assert all(s <= bd + 1e-9 for s in sh["s"])


def test_tree_paths_follow_adjacency(disk_shadows):
    dec, sh = disk_shadows
    adj = set(map(tuple, dec.adjacency.tolist()))
    parent = sh["parent"]
    for start in range(0, len(dec.cubes), 7):
        a = start
        while parent[a] != -1:
            b = parent[a]
            assert (min(a, b), max(a, b)) in adj
            a = b


def _centres(dec):
    """Each cube's corner plus half its side, cube by cube."""
    return np.array([c + s / 2 for c, s in zip(dec.corner, dec.side.tolist())])


def _heapq_tree(decomp, root):
    """Shortest-path tree over the cubes, one heap pop at a time (the
    reference form): ties within 1e-15 go to the smaller parent index."""
    n = len(decomp.cubes)
    centers = _centres(decomp)
    dists = np.array([max(d, 1e-12) for d in decomp.dist.tolist()])
    adj = [[] for _ in range(n)]
    for i, j in decomp.adjacency.tolist():
        adj[i].append(j)
        adj[j].append(i)
    dist, parent, done = [math.inf] * n, [-1] * n, [False] * n
    dist[root] = 0.0
    heap = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in sorted(adj[u]):
            w = float(np.linalg.norm(centers[u] - centers[v])) \
                * 0.5 * (1 / dists[u] + 1 / dists[v])
            nd = d + w
            if nd < dist[v] - 1e-15 or (abs(nd - dist[v]) <= 1e-15 and u < parent[v]):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return parent, dist


@pytest.mark.parametrize("name", ["disk", "cusp", "comb", "square"])
def test_shadow_tree_matches_heap_dijkstra(name):
    domain = {"disk": DISK, "cusp": cusp_domain(8.0), "comb": comb_domain(4),
              "square": SQUARE}[name]
    lo, hi = map(np.asarray, domain.bbox())
    # the comb has no interior at depth 5
    for depth in (6, 7) if name == "comb" else (5, 6, 7):
        dec = whitney_decompose(domain, max_depth=depth)
        roots = set()
        for x0 in (0.5 * (lo + hi), _centres(dec)[len(dec.cubes) // 3]):
            sh = shadows(domain, x0, dec)
            roots.add(sh["root"])
            parent, dist = _heapq_tree(dec, sh["root"])
            assert sh["parent"] == parent
            assert sh["tree_distances"] == dist
            if name == "comb" and depth == 6:
                assert math.inf in dist       # cubes that no path reaches
        assert len(roots) == 2


def _ref_shadow_routes(samples, dec, parent):
    """The per-sample routing loop (the reference form): the nearest cube by
    (math.hypot distance to the closed cube, side, index) among the 8
    nearest centres, then the parent pointers to the root, each cube once."""
    n = len(dec.cubes)
    centers = _centres(dec)
    corners, sides = dec.corner, dec.side.tolist()
    _, near = cKDTree(centers).query(samples, k=min(8, n))
    near = np.asarray(near).reshape(len(samples), -1)
    routes = [set() for _ in range(n)]
    for si in range(len(samples)):
        best_key = None
        for c in near[si]:
            corner, side = corners[int(c)], sides[int(c)]
            dx = max(corner[0] - samples[si, 0], 0,
                     samples[si, 0] - corner[0] - side)
            dy = max(corner[1] - samples[si, 1], 0,
                     samples[si, 1] - corner[1] - side)
            key = (math.hypot(dx, dy), side, int(c))
            if best_key is None or key < best_key:
                node, best_key = int(c), key
        seen = set()
        while node != -1 and node not in seen:
            routes[node].add(si)
            seen.add(node)
            node = parent[node]
    return [np.array(sorted(r), int) for r in routes]


@pytest.mark.parametrize("name", ["disk", "cusp", "comb", "square", "spikes", "cut"])
def test_shadow_routes_match_per_sample_loop(name):
    # np.hypot may differ from math.hypot in the last bit; the array routing
    # must still pick the same cube for every sample, so the routes match
    domain = {"disk": DISK, "cusp": cusp_domain(8.0), "comb": comb_domain(4),
              "square": SQUARE, "spikes": SPIKES, "cut": _cut_square()}[name]
    lo, hi = map(np.asarray, domain.bbox())
    for depth in (6, 7) if name == "comb" else (5, 6, 7):
        dec = whitney_decompose(domain, max_depth=depth)
        for x0 in (0.5 * (lo + hi), _centres(dec)[len(dec.cubes) // 3]):
            sh = shadows(domain, x0, dec)
            want = _ref_shadow_routes(sh["boundary_samples"], dec, sh["parent"])
            for route, s, idx in zip(sh["routes"], sh["s"], want, strict=True):
                assert route.dtype == idx.dtype
                assert np.array_equal(route, idx)
                pts = sh["boundary_samples"][idx]
                assert s == (geom._farthest(pts) if len(idx) else 0.0)


@st.composite
def _star_domains(draw):
    """A star polygon about its offset, at scales 1e-3 to 1e3 and offsets up
    to 1e5, with a smaller star cut out about the same point or not, and a
    Whitney depth."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def star(r_lo, r_hi):
        k = int(rng.integers(8, 24))
        theta = 2 * math.pi * (np.arange(k) + rng.uniform(0.1, 0.9, k)) / k
        r = rng.uniform(r_lo, r_hi, k)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = rng.uniform(-1e5, 1e5, 2) * draw(st.booleans())
    holes = [offset + scale * star(0.05, 0.15)] if draw(st.booleans()) else []
    return PolygonDomain(offset + scale * star(0.7, 1.0), holes), draw(st.integers(5, 7))


@settings(max_examples=40, deadline=None)
@given(_star_domains())
def test_shadow_diameters_are_the_all_pairs_diameters(case):
    # s(Q) is taken over the ends of the segment runs of SH(Q) only; it must
    # be the largest distance over all pairs of SH(Q)'s samples, to the bit
    domain, depth = case
    dec = whitney_decompose(domain, max_depth=depth)
    big = int(np.argmax(dec.side))
    sh = shadows(domain, dec.corner[big] + dec.side[big] / 2, dec)
    pts = sh["boundary_samples"]
    assert sh["s"] == [geom._farthest(pts[idx]) if len(idx) else 0.0
                       for idx in sh["routes"]]


def test_boundary_adjacent_shadows_comparable_to_side(disk_shadows):
    # s(Q) / side stays within a logged band for fine boundary cubes
    dec, sh = disk_shadows
    depth, side = dec.cubes[:, 0].tolist(), dec.side.tolist()
    finest = max(depth)
    ratios = [s / side[k] for k, (s, r) in enumerate(zip(sh["s"], sh["routes"]))
              if depth[k] == finest and len(r) > 1]
    assert ratios
    med = float(np.median(ratios))
    assert 0.2 <= med <= 30.0


def test_per_generation_shadow_sums_logged(disk_shadows):
    dec, sh = disk_shadows
    sums = {}
    for d, s in zip(dec.cubes[:, 0].tolist(), sh["s"], strict=True):
        sums[d] = sums.get(d, 0.0) + s ** 2
    assert sums  # recorded per generation; trend is informational


# ---------------------------------------------------------------------------
# Shadow-sum diagnostic

def test_disk_ratio_stable_under_quadrature_refinement():
    d1, d2 = shadow_sum_diagnostic(DISK, (0.0, 0.0), [(6, 0.02), (6, 0.01)])
    assert math.isfinite(d1["ratio"]) and math.isfinite(d2["ratio"])
    big, small = max(d1["ratio"], d2["ratio"]), min(d1["ratio"], d2["ratio"])
    assert big / small < 2.0


def test_comb_domain_ratio_finite():
    comb = comb_domain(4)
    [d] = shadow_sum_diagnostic(comb, (1.0, 0.12), [(7, 0.01)])
    assert math.isfinite(d["ratio"])
    assert d["rhs"] < math.inf


def test_cusp_rhs_outgrows_lhs():
    cusp = cusp_domain(8.0)
    levels = shadow_sum_diagnostic(cusp, (1.75, 0.0),
                                   [(6, p) for p in (0.02, 0.01, 0.005)])
    for a, b in zip(levels[:-1], levels[1:]):
        growth_rhs = b["rhs"] / a["rhs"]
        growth_lhs = b["lhs"] / a["lhs"]
        assert growth_rhs - 1 >= 2 * (growth_lhs - 1)
        assert growth_rhs > 1.1


def test_whitney_csv_and_shadow_table(tmp_path, disk_shadows):
    dec, sh = disk_shadows
    path = tmp_path / "cubes.csv"
    dec.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "corner_x,corner_y,side,dist"
    assert len(lines) == len(dec.cubes) + 1
    assert len(sh["s"]) == len(sh["routes"]) == len(dec.cubes)
