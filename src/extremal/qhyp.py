"""Quasihyperbolic-metric engine on polygonal domains.

Whitney cube decomposition with exactly verified two-sided distance bounds,
held as one table of dyadic addresses (depth, i, j); quasihyperbolic
distances on a fine grid graph; shadows of Whitney cubes under the
shortest-path tree; and the shadow-sum diagnostic comparing sum s(Q)^n with
the integral of the quasihyperbolic distance.

Domain boundaries are polygons whose vertices are snapped to a dyadic grid,
so all Whitney invariants are decided in exact integer arithmetic at the
dyadic scale, relative to the represented boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from .geom import DomainError, _cloud_diameter, _squared_distances
from .modfam import MAX_SCENE_CELLS

_SNAP = 2 ** 24   # vertex coordinates are multiples of 1/_SNAP
# pairs per chunk of the Whitney frontier's kernels, cube x segment end in
# _cube_boundary_dist and _segments_hit_boxes, and of _points_segments_dist,
# bucket centre x segment and point x kept segment.  The float temporaries (128 KB each) stay in cache
# and below glibc's heap trim threshold; at 2**16 pairs one chunk's
# temporaries were returned to the OS and faulted in again chunk after chunk
# early in a process (a fresh process building the 128-edge disk's grids at
# pitch 0.02, then 0.01: 0.99-1.05 s and 220k minor faults for the second,
# against 0.55-0.71 s and 5.6k at 2**14)
_CHUNK_PAIRS = 2 ** 14
# deepest Whitney generation a config may ask for: the decomposition's time
# about doubles per level (the disk took 1.8 s at depth 12 and 3.6 s at 13,
# the cusp 1.7 s and 3.3 s, plus 0.7-3.0 s of verify_exact; one run each,
# 2 cores, raw)
MAX_WHITNEY_DEPTH = 12


# ---------------------------------------------------------------------------
# Polygonal domains


class PolygonDomain:
    """Open region bounded by a simple polygon (optionally with holes)."""

    def __init__(self, outer, holes=()):
        with np.errstate(over="ignore"):          # refused below
            self.outer = _snap(np.asarray(outer, float))
            self.holes = [_snap(np.asarray(h, float)) for h in holes]
        rings = [self.outer, *self.holes]
        self.segments = np.concatenate([_ring_segments(r) for r in rings])
        if not np.isfinite(self.segments).all():
            raise DomainError("polygon vertices must be finite on the dyadic grid")
        if not np.ptp(self.outer, axis=0).max() > 0:
            raise DomainError("polygon outer ring snaps to a single point")
        self._seg_a = self.segments[:, 0, :]
        self._seg_b = self.segments[:, 1, :]

    def bbox(self):
        return self.outer.min(axis=0), self.outer.max(axis=0)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Crossing-number membership, vectorized over query points."""
        pts = np.atleast_2d(np.asarray(pts, float))
        inside = _crossing_number(pts, self.outer)
        for h in self.holes:
            inside &= ~_crossing_number(pts, h)
        return inside

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Euclidean distance to the boundary polygon(s), vectorized."""
        pts = np.atleast_2d(np.asarray(pts, float))
        return _points_segments_dist(pts, self._seg_a, self._seg_b)

    def boundary_samples(self, spacing: float) -> np.ndarray:
        pts = []
        for a, b in self.segments:
            L = float(np.linalg.norm(b - a))
            n = max(1, int(math.ceil(L / spacing)))
            t = np.arange(n) / n
            pts.append(a[None] + t[:, None] * (b - a)[None])
        return np.concatenate(pts, axis=0)


def _snap(v: np.ndarray) -> np.ndarray:
    return np.round(v * _SNAP) / _SNAP


def _ring_segments(ring: np.ndarray) -> np.ndarray:
    nxt = np.roll(ring, -1, axis=0)
    return np.stack([ring, nxt], axis=1)


def _crossing_number(pts: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd membership in one ring.

    The points are sorted by y once.  Edge k straddles the y with
    min(y1, y2) <= y < max(y1, y2), one contiguous run of the sorted points
    found by two binary searches, and its crossing test runs on that run
    only; a point's parity flips at each crossing strictly right of it.  The
    cost is one sort plus one comparison per point and straddling edge,
    where the all-pairs form paid one per point and edge.  The crossing
    abscissa keeps the expression x1 + (y - y1) * dx / dy, so every bit is
    the same as the all-pairs form gives.
    """
    x1, y1 = ring[:, 0], ring[:, 1]
    nxt = np.roll(ring, -1, axis=0)
    dx, dy = nxt[:, 0] - x1, nxt[:, 1] - y1
    order = np.argsort(pts[:, 1], kind="stable")
    x, y = pts[order, 0], pts[order, 1]
    first = np.searchsorted(y, np.minimum(y1, nxt[:, 1]), "left")
    stop = np.searchsorted(y, np.maximum(y1, nxt[:, 1]), "left")
    odd = np.zeros(len(pts), bool)
    for k in np.flatnonzero(stop > first).tolist():
        run = slice(first[k], stop[k])
        odd[run] ^= x[run] < x1[k] + (y[run] - y1[k]) * dx[k] / dy[k]
    inside = np.empty(len(pts), bool)
    inside[order] = odd
    return inside


# points per bucket of _points_segments_dist: on 100k-point clouds and
# lattices of the disk, the cusp and the comb, 256 to 512 were fastest; 64
# paid for its loop on the 20-edge comb (2x), 1024 kept too many of the
# disk's 128 segments per bucket
_BUCKET_POINTS = 256


def _points_segments_dist(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest segment [a_k, b_k].

    The points are bucketed on a uniform g x g grid over their bounding box,
    about _BUCKET_POINTS to a bucket.  A point p of a bucket with centre c
    and half-diagonal r has its nearest segment s* among those with
    dist(c, s) <= min_s dist(c, s) + 2r: dist(c, s*) <= dist(p, s*) + r and
    dist(p, s*) <= min_s dist(c, s) + r.  The margin of 1e-9 times the
    coordinate scale covers float rounding in both distances and in the
    bucket of a point on a border.  Each bucket's points then go through the
    element-wise _seg_dist2 against its kept segments only.  Both passes run
    in chunks of at most _CHUNK_PAIRS pairs, so a clustered cloud (one far
    outlier puts nearly every point in one bucket) stays in bounded memory.
    x and y stay separate (points, segments) arrays and p - (a + t d) keeps
    its order of operations, so every distance is the same float as the
    2-vector projection formula over all segments.
    """
    ax, ay, dx, dy, L2 = _seg_frame(a, b)
    out = np.empty(len(pts))
    if not len(pts):
        return out
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    g = max(1, round(math.sqrt(len(pts) / _BUCKET_POINTS)))
    w = (hi - lo) / g
    cell = np.minimum(((pts - lo) / np.where(w > 0, w, 1.0)).astype(np.int64), g - 1)
    bucket = cell[:, 0] * g + cell[:, 1]
    order = np.argsort(bucket)
    bucket = bucket[order]
    start = np.flatnonzero(np.diff(bucket, prepend=-1))
    ids = bucket[start]
    ends = np.append(start[1:], len(pts)).tolist()
    centres = lo + (np.stack([ids // g, ids % g], axis=1) + 0.5) * w
    slack = math.hypot(w[0], w[1]) + 1e-9 * max(np.abs(pts).max(), np.abs(a).max(),
                                                np.abs(b).max())
    keep = []
    step = max(1, _CHUNK_PAIRS // len(ax))
    for c in (centres[k:k + step] for k in range(0, len(centres), step)):
        dc = np.sqrt(_seg_dist2(c[:, 0:1], c[:, 1:2], ax, ay, dx, dy, L2))
        keep += list(dc <= dc.min(axis=1, keepdims=True) + slack)
    for kept, i0, i1 in zip(keep, start.tolist(), ends):
        s = np.flatnonzero(kept)
        seg = ax[s], ay[s], dx[s], dy[s], L2[s]
        rows = max(1, _CHUNK_PAIRS // len(s))
        for j in range(i0, i1, rows):
            i = order[j:min(j + rows, i1)]
            out[i] = np.sqrt(_seg_dist2(pts[i, 0:1], pts[i, 1:2], *seg).min(axis=1))
    return out


def _seg_frame(a: np.ndarray, b: np.ndarray):
    """x, y, direction and squared length (zero lengths floored) of the
    segments [a_k, b_k]."""
    ax, ay = a[..., 0], a[..., 1]
    dx, dy = b[..., 0] - ax, b[..., 1] - ay
    L2 = dx * dx + dy * dy
    return ax, ay, dx, dy, np.where(L2 == 0, 1e-300, L2)


def _seg_dist2(px, py, ax, ay, dx, dy, L2):
    """Squared distance from p to the segment a + t d, t clamped to [0, 1],
    element-wise over the broadcast of the point and segment arrays."""
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / L2, 0.0, 1.0)
    ex = px - (ax + t * dx)
    ey = py - (ay + t * dy)
    return ex * ex + ey * ey


# --- builders ---------------------------------------------------------------


def disk_domain(radius: float, n_vertices: int) -> PolygonDomain:
    th = np.linspace(0, 2 * math.pi, n_vertices, endpoint=False)
    return PolygonDomain(radius * np.stack([np.cos(th), np.sin(th)], axis=1))


def cusp_domain(exponent: float) -> PolygonDomain:
    """Square body with a power-law cusp: half-width (x/1.5)^exponent / 2.

    For exponent > 3 the quasihyperbolic distance fails to be square
    integrable on the ideal cusp, so the k^2 quadrature keeps growing as the
    grid resolves deeper into the corridor; the polygon truncates the tip at
    x = 0.35, which is beyond any resolution used here.
    """
    xs = np.geomspace(0.35, 1.5, 40)
    w = 0.5 * (xs / 1.5) ** exponent
    upper = np.stack([xs, w], axis=1)[::-1]
    lower = np.stack([xs, -w], axis=1)
    verts = [(2.0, 0.5), (1.5, 0.5)]
    verts += [tuple(p) for p in upper[1:]]
    verts += [tuple(p) for p in lower]
    verts += [(2.0, -0.5)]
    return PolygonDomain(list(reversed(verts)))


def comb_domain(teeth: int) -> PolygonDomain:
    """Rectangle [0,2] x [0,1] with slits 0.02 wide descending 0.75 from the
    top edge."""
    verts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0)]
    xs = np.linspace(0.25, 1.75, teeth)
    for x in sorted(xs, reverse=True):
        verts += [(x + 0.01, 1.0), (x + 0.01, 0.25), (x - 0.01, 0.25), (x - 0.01, 1.0)]
    verts += [(0.0, 1.0)]
    return PolygonDomain(verts)


# ---------------------------------------------------------------------------
# Whitney decomposition


@dataclass
class WhitneyDecomposition:
    """The Whitney cubes as a table: row k of ``cubes`` is the dyadic address
    (depth, i, j) of cube k, the rows in (depth, i, j) order, and ``dist[k]``
    its float distance to the boundary.  Cube k is
    ``root_corner + (i, j) * side`` with ``side = root_side / 2**depth``."""
    domain: PolygonDomain
    cubes: np.ndarray
    dist: np.ndarray
    adjacency: np.ndarray
    truncated: int
    root_corner: np.ndarray
    root_side: float
    max_depth: int

    @property
    def side(self) -> np.ndarray:
        return self.root_side / 2.0 ** self.cubes[:, 0]

    @property
    def corner(self) -> np.ndarray:
        return self.root_corner + self.cubes[:, 1:] * self.side[:, None]

    def to_csv(self, path) -> None:
        """One row per cube: corner, side, boundary distance."""
        with open(path, "w") as fh:
            fh.write("corner_x,corner_y,side,dist\n")
            for (x, y), side, dist in zip(self.corner.tolist(), self.side.tolist(),
                                          self.dist.tolist()):
                fh.write(f"{x:.12g},{y:.12g},{side:.12g},{dist:.12g}\n")

    def verify_exact(self) -> dict:
        """Exact integer check of both Whitney inequalities for every cube,
        plus the neighbor side-ratio bound (within a factor 4) over the
        adjacency edges."""
        bd = _DyadicBoundary(self.domain, self.root_corner, self.root_side,
                             self.max_depth)
        bad_low, bad_high = [], []
        for k, (depth, i, j) in enumerate(self.cubes.tolist()):
            num, den = bd.cube_dist2(depth, (i, j))
            side = bd.side(depth)
            diam2 = 2 * side * side
            if not diam2 * den <= num:
                bad_low.append(k)
            if not num <= 16 * diam2 * den:
                bad_high.append(k)
        steps = np.abs(np.diff(self.cubes[self.adjacency, 0], axis=1))
        return {"cubes": len(self.cubes),
                "lower_violations": bad_low,
                "upper_violations": bad_high,
                "neighbor_ratio_ok": bool((steps <= 2).all())}


_CHILDREN = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], np.int64)   # ij offsets


def whitney_decompose(domain: PolygonDomain, max_depth: int) -> WhitneyDecomposition:
    """Dyadic Whitney cubes of the domain: diam(Q) <= dist(Q, bd) <= 4 diam(Q).

    A cube is emitted at the first (coarsest) generation where
    diam <= dist(Q, boundary); since its parent failed that test, the upper
    bound dist <= 4 diam holds automatically.  Cubes still failing at
    max_depth are truncated (counted, not emitted).

    The pass goes level by level.  Each depth's frontier is one (m, 2) array
    of cube indices ij: one ``contains`` call takes all its centres and one
    chunked kernel all its float cube-to-boundary distances.  Only the
    decisions within the float precision margin fall back to exact integer
    arithmetic at the dyadic scale, cube by cube.  Cubes that are neither
    accepted nor entirely outside split into the next depth's frontier.  Each
    level's accepted addresses (depth, i, j) are appended as rows, and the
    table is sorted once.
    """
    lo, hi = domain.bbox()
    span = float((hi - lo).max()) * 1.001
    root_side = 2.0 ** math.ceil(math.log2(span))
    root_corner = _snap(np.asarray(lo, float) - (root_side - span) / 2)
    bd = _DyadicBoundary(domain, root_corner, root_side, max_depth)
    rows, dists = [], []
    truncated = 0
    margin = 1e-9 * max(1.0, root_side)
    ij = np.zeros((1, 2), np.int64)
    for depth in range(max_depth + 1):
        if not len(ij):
            break
        side = root_side / 2 ** depth
        corner = root_corner + ij * side
        d_cube = _cube_boundary_dist(corner, corner + side, domain._seg_a,
                                     domain._seg_b)
        inside = domain.contains(corner + side / 2)
        gap = d_cube - side * math.sqrt(2)
        accept = inside & (gap > margin)
        s_int = bd.side(depth)
        for k in np.flatnonzero(inside & (np.abs(gap) <= margin)):
            num, den = bd.cube_dist2(depth, ij[k].tolist())
            accept[k] = 2 * s_int * s_int * den <= num and num > 0
        rows.append(np.insert(ij[accept], 0, depth, axis=1))
        dists.append(d_cube[accept])
        # a cube with d > 0 whose centre is outside lies entirely outside
        split = ij[~accept & (inside | ~(d_cube > 0))]
        if depth == max_depth:
            truncated = len(split)
        ij = (2 * split[:, None, :] + _CHILDREN).reshape(-1, 2)
    cubes = np.concatenate(rows)
    if not len(cubes):
        raise DomainError("domain has no interior at this depth")
    order = np.lexsort(cubes.T[::-1])
    cubes = cubes[order]
    return WhitneyDecomposition(domain, cubes, np.concatenate(dists)[order],
                                _build_adjacency(cubes, max_depth), truncated,
                                root_corner, root_side, max_depth)


def _cube_boundary_dist(lo: np.ndarray, hi: np.ndarray, a: np.ndarray,
                        b: np.ndarray) -> np.ndarray:
    """Float distance from each closed cube [lo_k, hi_k] to the segments [a, b].

    The exact segment-to-segment formula up to float rounding: zero where
    some segment meets the cube (slab test), else the least of the
    corner-to-segment and segment-end-to-cube-edge distances.  Cubes go
    through in chunks of _CHUNK_PAIRS cube x segment-end pairs.
    """
    out = np.zeros(len(lo))
    ends = np.concatenate([a, b], axis=0)
    rows = max(1, _CHUNK_PAIRS // len(ends))
    for i in range(0, len(lo), rows):
        miss = ~_segments_hit_boxes(a, b, lo[i:i + rows], hi[i:i + rows])
        l, h = lo[i:i + rows][miss], hi[i:i + rows][miss]
        c = [l, np.stack([h[:, 0], l[:, 1]], axis=1), h,
             np.stack([l[:, 0], h[:, 1]], axis=1)]
        best = _points_segments_dist(np.concatenate(c), a, b).reshape(4, -1).min(axis=0)
        for ea, eb in ((c[0], c[1]), (c[1], c[2]), (c[3], c[2]), (c[0], c[3])):
            ax, ay, dx, dy, L2 = _seg_frame(ea[:, None], eb[:, None])
            d2 = _seg_dist2(ends[:, 0], ends[:, 1], ax, ay, dx, dy, L2)
            best = np.minimum(best, np.sqrt(d2.min(axis=1)))
        out[i:i + rows][miss] = best
    return out


def _segments_hit_boxes(a: np.ndarray, b: np.ndarray, lo: np.ndarray,
                        hi: np.ndarray) -> np.ndarray:
    """Does some segment [a, b] meet the closed box [lo_k, hi_k]?  Per box:
    clip each segment's parameter range to the slab of each axis; a segment
    flat in an axis must lie within that slab."""
    d = b - a
    t0 = np.zeros((len(lo), len(a)))
    t1 = np.ones((len(lo), len(a)))
    ok = np.ones((len(lo), len(a)), bool)
    for ax in range(2):
        l, h = lo[:, ax:ax + 1], hi[:, ax:ax + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (l - a[:, ax]) / d[:, ax]
            tb = (h - a[:, ax]) / d[:, ax]
        flat = d[:, ax] == 0
        ok &= ~(flat & ((a[:, ax] < l) | (a[:, ax] > h)))
        t0 = np.where(flat, t0, np.maximum(t0, np.minimum(ta, tb)))
        t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))
    return (ok & (t0 <= t1)).any(axis=1)


class _DyadicBoundary:
    """The boundary segments as integers at the dyadic scale 2**shift.

    Snapped vertices, the root corner and every cube side down to max_depth
    are integers at this scale, so a point-segment dist**2 is an integer or
    cross**2 / L**2, and every Whitney decision is an integer comparison.
    The segments are converted once; the float midpoints and half-lengths
    only prune segments that cannot realize the minimum.
    """

    def __init__(self, domain: PolygonDomain, root_corner, root_side: float,
                 max_depth: int):
        self.shift = max(24, max_depth - (math.frexp(root_side)[1] - 1))
        self.x0, self.y0, self.s0 = (_scaled_int(v, self.shift) for v in
                                     (root_corner[0], root_corner[1], root_side))
        self.segs = [tuple(_scaled_int(v, self.shift) for v in (*a, *b))
                     for a, b in domain.segments]
        a, b = domain._seg_a, domain._seg_b
        self.mids = (a + b) / 2
        self.half = np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]) / 2

    def side(self, depth: int) -> int:
        return self.s0 >> depth

    def cube_dist2(self, depth: int, ij) -> tuple[int, int]:
        """dist(Q, boundary)**2 of the closed cube, times 4**shift, as an
        exact fraction (num, den) with den > 0."""
        s = self.side(depth)
        x0, y0 = self.x0 + ij[0] * s, self.y0 + ij[1] * s
        x1, y1 = x0 + s, y0 + s
        # float prefilter: drop a segment only when its lower bound exceeds
        # the least upper bound |mid - c| + len/2 + side*sqrt(2)/2
        cx = math.ldexp(2 * x0 + s, -self.shift - 1)
        cy = math.ldexp(2 * y0 + s, -self.shift - 1)
        reach = self.half + math.ldexp(s, -self.shift) * math.sqrt(2) / 2
        dc = np.hypot(self.mids[:, 0] - cx, self.mids[:, 1] - cy)
        cutoff = float((dc + reach).min()) * (1 + 1e-9)
        corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
        best_num, best_den = 1, 0                 # +inf
        for k in np.flatnonzero(dc - reach <= cutoff):
            ax, ay, bx, by = self.segs[k]
            if _seg_meets_box(ax, ay, bx, by, x0, y0, x1, y1):
                return 0, 1
            # the segment misses the cube: the distance is attained at an
            # endpoint (to the box) or at a cube corner (to the segment)
            for px, py in ((ax, ay), (bx, by)):
                ex = max(x0 - px, 0, px - x1)
                ey = max(y0 - py, 0, py - y1)
                num = ex * ex + ey * ey
                if num * best_den < best_num:
                    best_num, best_den = num, 1
            for px, py in corners:
                num, den = _point_seg_dist2(px, py, ax, ay, bx, by)
                if num * best_den < best_num * den:
                    best_num, best_den = num, den
        return best_num, best_den


def _scaled_int(v: float, shift: int) -> int:
    """v * 2**shift, which must be an integer."""
    num, den = float(v).as_integer_ratio()
    q, r = divmod(num << shift, den)
    if r:
        raise ValueError(f"{v!r} is not a multiple of 2**-{shift}")
    return q


def _seg_meets_box(ax, ay, bx, by, x0, y0, x1, y1) -> bool:
    """Does the segment [a, b] meet the closed box [x0, x1] x [y0, y1]?

    Separating axes: the two box axes, then the segment's normal (the box
    corners all strictly on one side of the line through a and b).
    """
    if max(ax, bx) < x0 or min(ax, bx) > x1 or max(ay, by) < y0 or min(ay, by) > y1:
        return False
    dx, dy = bx - ax, by - ay
    side = [dx * (py - ay) - dy * (px - ax)
            for px, py in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]
    return min(side) <= 0 <= max(side)


def _point_seg_dist2(px, py, ax, ay, bx, by) -> tuple[int, int]:
    """Squared distance from p to the segment [a, b] as (num, den)."""
    dx, dy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    t = wx * dx + wy * dy
    if t <= 0:                                   # also a == b
        return wx * wx + wy * wy, 1
    L2 = dx * dx + dy * dy
    if t >= L2:
        ex, ey = px - bx, py - by
        return ex * ex + ey * ey, 1
    cross = wx * dy - wy * dx
    return cross * cross, L2


def _build_adjacency(cubes: np.ndarray, max_depth: int) -> np.ndarray:
    """Face-sharing cube pairs (k, l), k < l, as one (E, 2) int64 array in
    lexicographic order.  The cell of cube k's size across a face lies in one
    cube of the same or a coarser depth, found among the cell's ancestors by
    the keys depth << 2b | i << b | j (b = max_depth + 1) of the sorted table;
    or finer cubes tile it and find cube k so.  Cells off the root square (an
    index of -1 or 2**depth) and levels above the root get keys no cube has."""
    b = max_depth + 1
    keys = cubes[:, 0] << 2 * b | cubes[:, 1] << b | cubes[:, 2]
    across = [[0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1]]    # the four faces
    depth, i, j = (cubes[:, None] + across).reshape(-1, 3).T
    edges = []
    for up in range(max_depth + 1):
        key = (depth - up) << 2 * b | i >> up << b | j >> up
        at = np.searchsorted(keys, key).clip(max=len(keys) - 1)
        hit = np.flatnonzero(keys[at] == key)
        edges.append(np.stack([hit // 4, at[hit]], axis=1))
    return np.unique(np.sort(np.concatenate(edges), axis=1), axis=0)


# ---------------------------------------------------------------------------
# Quasihyperbolic grid metric


class QhGrid:
    """Fine grid graph with edge weight = length / boundary distance at the
    midpoint; Dijkstra fields reusable across queries."""

    def __init__(self, domain: PolygonDomain, pitch: float):
        check_lattice(domain, pitch)
        lo, hi = domain.bbox()
        nx = int(math.ceil((hi[0] - lo[0]) / pitch)) + 1
        ny = int(math.ceil((hi[1] - lo[1]) / pitch)) + 1
        xs = lo[0] + pitch * np.arange(nx)
        ys = lo[1] + pitch * np.arange(ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        inside = np.flatnonzero(domain.contains(pts))
        delta = domain.boundary_distance(pts[inside])
        # cells with delta below the pitch cannot support the midpoint
        # quadrature at this resolution; refinement admits them later
        far = delta > pitch
        ok = inside[far]
        if not len(ok):
            raise DomainError(f"qh pitch {pitch!r} leaves no grid node farther than "
                              "the pitch from the boundary")
        self.nodes = pts[ok]
        index = -np.ones(nx * ny, np.int64)
        index[ok] = np.arange(len(self.nodes))
        rows, cols, data = [], [], []
        for (dx, dy), si, di, dmid in _grid_steps(
                domain, pts.reshape(nx, ny, 2), index.reshape(nx, ny)):
            w = math.hypot(dx, dy) * pitch / dmid
            rows += [si, di]
            cols += [di, si]
            data += [w, w]
        n = len(self.nodes)
        self.mat = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))

    def node_distances(self, pts) -> np.ndarray:
        """Distances from each point to every node, one row per point."""
        return np.sqrt(_squared_distances(np.atleast_2d(pts), self.nodes))

    def nearest_node(self, p) -> int:
        return int(self.node_distances(p).argmin())   # the lowest index on a tie

    def distance_field(self, x0) -> np.ndarray:
        return dijkstra(self.mat, directed=False, indices=self.nearest_node(x0))


def check_lattice(domain: PolygonDomain, pitch: float) -> None:
    """Refuse a QhGrid pitch whose lattice over the domain's bounding box has
    more than MAX_SCENE_CELLS points, before anything is allocated.  The
    quotients are compared as floats: at a tiny pitch they overflow to inf."""
    lo, hi = domain.bbox()
    with np.errstate(over="ignore"):
        points = float(np.prod(np.ceil((hi - lo) / pitch) + 1))
    if points > MAX_SCENE_CELLS:
        raise DomainError(f"qh pitch {pitch!r} gives a lattice of {points:.4g} points, "
                          f"more than {MAX_SCENE_CELLS}")


def _grid_steps(domain: PolygonDomain, P: np.ndarray, g: np.ndarray):
    """Yield each step (dx, dy) of the grid graph with the node ids at its
    two ends and the boundary distance at its midpoint, in the row-major
    order of the source node.

    P holds the (nx, ny) grid points, g their node ids (-1 off the graph).
    A step joins two nodes.  Its midpoint lies within pitch * sqrt(2) / 2 of
    a node, whose boundary distance exceeds the pitch, so it is inside at
    positive distance from the boundary.  Both diagonals of a cell have the
    cell centre as midpoint, so the distances are taken once per x-step,
    y-step and cell centre.
    """
    steps = [((1, 0), g[:-1, :], g[1:, :]), ((0, 1), g[:, :-1], g[:, 1:]),
             ((1, 1), g[:-1, :-1], g[1:, 1:]), ((1, -1), g[:-1, 1:], g[1:, :-1])]
    both = [(src >= 0) & (dst >= 0) for _, src, dst in steps]
    ends = [(P[:-1, :], P[1:, :]), (P[:, :-1], P[:, 1:]), (P[:-1, :-1], P[1:, 1:])]
    used = [both[0], both[1], both[2] | both[3]]
    q = np.concatenate([0.5 * (p[u] + r[u]) for (p, r), u in zip(ends, used)])
    dq = domain.boundary_distance(q)
    dmid = [np.zeros(u.shape) for u in used]
    parts = np.split(dq, np.cumsum([u.sum() for u in used])[:-1])
    for d, u, part in zip(dmid, used, parts):
        d[u] = part
    for (step, src, dst), b, d in zip(steps, both, dmid + [dmid[2]]):
        yield step, src[b], dst[b], d[b]


def qh_distance(domain: PolygonDomain, x1, x2, pitch: float) -> dict:
    """Quasihyperbolic distance between two points.

    Upper estimate on the grid graph, converging under refinement; the metric
    is defined on unordered pairs, so the query is canonicalized and the
    result exactly symmetric.
    """
    a = np.asarray(x1, float)
    b = np.asarray(x2, float)
    if tuple(b.tolist()) < tuple(a.tolist()):
        a, b = b, a
    g = QhGrid(domain, pitch)
    if not (domain.contains(a[None])[0] and domain.contains(b[None])[0]):
        raise DomainError("query points must be interior to the domain")
    # endpoints whose neighborhood is unresolved at this pitch are flagged,
    # not silently snapped to a distant node
    near = g.node_distances(np.stack([a, b]))
    if (near.min(axis=1) > 1.6 * pitch).any():
        return {"value": math.inf, "infeasible": True}
    value = float(g.distance_field(a)[near[1].argmin()])
    return {"value": value, "infeasible": not math.isfinite(value)}


# ---------------------------------------------------------------------------
# Shadows


def shadows(domain: PolygonDomain, x0, decomp: WhitneyDecomposition) -> dict:
    """Shadow of each Whitney cube under the shortest-path tree from x0.

    The tree lives on the cube adjacency graph with quasihyperbolic edge
    weights; the parent of a cube is its least-index shortest-path
    predecessor within 1e-15 (-1 at the root and where unreachable).  The
    root is the first cube whose closed square holds x0, else the cube with
    the nearest centre.  Each boundary sample (spaced by the smallest cube
    side) is routed from its nearest cube to the root; SH(Q) collects the
    samples whose route passes through Q, and s(Q) = diam SH(Q).  Returns
    ``s`` and ``routes`` (the sorted sample indices of SH(Q)) as lists in
    cube order.
    """
    n = len(decomp.cubes)
    corner, side = decomp.corner, decomp.side
    centers = corner + (side / 2)[:, None]
    dists = np.maximum(decomp.dist, 1e-12)
    x0 = np.asarray(x0, float)
    holds = ((corner <= x0) & (x0 <= corner + side[:, None])).all(axis=1)
    root = int(holds.argmax() if holds.any()
               else np.linalg.norm(centers - x0, axis=1).argmin())
    i, j = decomp.adjacency.T
    w = np.linalg.norm(centers[i] - centers[j], axis=1) \
        * 0.5 * (1 / dists[i] + 1 / dists[j])
    u, v, w = np.concatenate([i, j]), np.concatenate([j, i]), np.concatenate([w, w])
    dist = dijkstra(sp.csr_matrix((w, (u, v)), shape=(n, n)), indices=root)
    # the finiteness guard keeps inf + w <= inf from parenting unreachable cubes
    tight = np.isfinite(dist[v]) & (dist[u] + w <= dist[v] + 1e-15)
    parent = np.full(n, n)
    np.minimum.at(parent, v[tight], u[tight])
    parent[parent == n] = -1
    parent[root] = -1
    samples = domain.boundary_samples(float(side.min()))
    routes = _route_samples(samples, centers, corner, side, parent)
    s = [float(_cloud_diameter(samples[idx])) if len(idx) >= 2 else 0.0
         for idx in routes]
    return {"s": s, "routes": routes, "parent": parent.tolist(), "root": root,
            "boundary_samples": samples, "tree_distances": dist.tolist()}


def _route_samples(samples: np.ndarray, centers: np.ndarray, corner: np.ndarray,
                   side: np.ndarray, parent: np.ndarray) -> list:
    """For each cube, the sorted indices of the boundary samples whose route
    to the root passes through it.

    A sample starts at the least of its 8 nearest cubes by centre under the
    key (distance from the sample to the closed cube, side, index), and
    walks the parent pointers to the root, all samples one tree level at a
    time.  A route visits each cube at most once, so n steps end every
    route; a sample is recorded once per cube even on a route that loops.
    """
    n = len(centers)
    near = cKDTree(centers).query(samples, k=min(8, n))[1].reshape(len(samples), -1)
    lo, side = corner[near], side[near]
    sx, sy = samples[:, 0:1], samples[:, 1:2]
    gx = np.maximum(np.maximum(lo[..., 0] - sx, 0), sx - lo[..., 0] - side)
    gy = np.maximum(np.maximum(lo[..., 1] - sy, 0), sy - lo[..., 1] - side)
    best = np.lexsort((near, side, np.hypot(gx, gy)), axis=-1)[:, 0]
    node = near[np.arange(len(samples)), best]
    sample = np.arange(len(samples))
    hops = []
    for _ in range(n):
        on = node != -1
        if not on.any():
            break
        node, sample = node[on], sample[on]
        hops.append(node * len(samples) + sample)
        node = parent[node]
    hops = np.unique(np.concatenate(hops))
    cube, idx = np.divmod(hops, len(samples))
    return np.split(idx, np.searchsorted(cube, np.arange(1, n)))


# ---------------------------------------------------------------------------
# Shadow-sum diagnostic


def shadow_sum_diagnostic(domain: PolygonDomain, x0, levels) -> list[dict]:
    """Compare sum_Q s(Q)^n against the quasihyperbolic integral, one dict
    per ``(max_depth, qh_pitch)`` level.

    lhs: shadow diameters from the tree on the Whitney cubes at max_depth,
    decomposed once per distinct max_depth.
    rhs: midpoint quadrature of k(x, x0)^n over the cells of the metric grid
    at qh_pitch (full domain coverage; cells the grid cannot reach are
    skipped and counted -- their k is beyond the resolution of this level).
    """
    if not domain.contains(np.asarray(x0, float)[None])[0]:
        raise DomainError("x0 must be interior to the domain")
    n = 2
    whitney_side = {}
    out = []
    for max_depth, qh_pitch in levels:
        if max_depth not in whitney_side:
            decomp = whitney_decompose(domain, max_depth=max_depth)
            sh = shadows(domain, x0, decomp)
            whitney_side[max_depth] = (float(sum(s ** n for s in sh["s"])),
                                       len(decomp.cubes), decomp.truncated)
        lhs, cubes, truncated = whitney_side[max_depth]
        grid = QhGrid(domain, qh_pitch)
        dist = grid.distance_field(x0)
        ok = np.isfinite(dist)
        rhs = float((dist[ok] ** n).sum() * qh_pitch ** n)
        out.append({"lhs": lhs, "rhs": rhs,
                    "ratio": lhs / rhs if rhs > 0 else math.inf,
                    "cubes": cubes,
                    "unreachable_nodes": int((~ok).sum()),
                    "truncated": truncated,
                    "max_depth": max_depth,
                    "qh_pitch": qh_pitch})
    return out
