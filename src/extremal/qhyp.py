"""Quasihyperbolic-metric engine on polygonal domains.

Whitney cube decomposition with exactly verified two-sided distance bounds,
quasihyperbolic distances and geodesics on a fine grid graph, shadows of
Whitney cubes under the shortest-path tree, and the shadow-sum diagnostic
comparing sum s(Q)^n with the integral of the quasihyperbolic distance.

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

from .geom import DomainError, PolyCurve, _cloud_diameter

_SNAP = 2 ** 24   # vertex coordinates are multiples of 1/_SNAP
# pairs per chunk of the array kernels: point x edge in _crossing_number and
# _points_segments_dist, cube x segment end in the Whitney frontier's
# _cube_boundary_dist and _segments_hit_boxes.  The float temporaries (128 KB
# each) stay in cache and below glibc's heap trim threshold; at 2**16 pairs
# one chunk's temporaries were returned to the OS and faulted in again chunk
# after chunk early in a process (a fresh process building the 128-edge
# disk's grids at pitch 0.02, then 0.01: 0.99-1.05 s and 220k minor faults
# for the second, against 0.55-0.71 s and 5.6k at 2**14), and at 2**18 the
# point kernels ran 1.5-2.7x slower on 200k points
_CHUNK_PAIRS = 2 ** 14


# ---------------------------------------------------------------------------
# Polygonal domains


class PolygonDomain:
    """Open region bounded by a simple polygon (optionally with holes)."""

    def __init__(self, outer, holes=(), name: str = ""):
        self.outer = _snap(np.asarray(outer, float))
        self.holes = [_snap(np.asarray(h, float)) for h in holes]
        self.name = name
        segs = [_ring_segments(self.outer)]
        segs += [_ring_segments(h) for h in self.holes]
        self.segments = np.concatenate(segs, axis=0)
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

    def to_json(self) -> dict:
        return {"outer": self.outer.tolist(),
                "holes": [h.tolist() for h in self.holes],
                "orientation": "ccw", "name": self.name}

    @staticmethod
    def from_json(obj: dict) -> "PolygonDomain":
        return PolygonDomain(obj["outer"], obj.get("holes", ()),
                             obj.get("name", ""))


def _snap(v: np.ndarray) -> np.ndarray:
    return np.round(v * _SNAP) / _SNAP


def _ring_segments(ring: np.ndarray) -> np.ndarray:
    nxt = np.roll(ring, -1, axis=0)
    return np.stack([ring, nxt], axis=1)


def _crossing_number(pts: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd membership in one ring, vectorized over points x edges.

    The parity of the crossings right of each point is one xor-reduction
    per chunk of points.
    """
    x1, y1 = ring[:, 0], ring[:, 1]
    nxt = np.roll(ring, -1, axis=0)
    x2, y2 = nxt[:, 0], nxt[:, 1]
    dx, dy = x2 - x1, y2 - y1
    inside = np.zeros(len(pts), bool)
    rows = max(1, _CHUNK_PAIRS // len(ring))
    for i in range(0, len(pts), rows):
        x = pts[i:i + rows, 0:1]
        y = pts[i:i + rows, 1:2]
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x1 + (y - y1) * dx / dy
        inside[i:i + rows] = np.logical_xor.reduce(cond & (x < xcross), axis=1)
    return inside


def _points_segments_dist(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest segment [a_k, b_k].

    x and y are kept as separate (points, segments) arrays per chunk of
    points; p - (a + t d) keeps this order of operations, so every distance
    is the same float as the 2-vector projection formula gives.
    """
    ax, ay, dx, dy, L2 = _seg_frame(a, b)
    out = np.empty(len(pts))
    rows = max(1, _CHUNK_PAIRS // len(a))
    for i in range(0, len(pts), rows):
        px, py = pts[i:i + rows, 0:1], pts[i:i + rows, 1:2]
        out[i:i + rows] = np.sqrt(_seg_dist2(px, py, ax, ay, dx, dy, L2).min(axis=1))
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


def disk_domain(radius: float = 1.0, n_vertices: int = 128,
                center=(0.0, 0.0)) -> PolygonDomain:
    th = np.linspace(0, 2 * math.pi, n_vertices, endpoint=False)
    c = np.asarray(center, float)
    return PolygonDomain(c + radius * np.stack([np.cos(th), np.sin(th)], axis=1),
                         name=f"disk(r={radius})")


def square_domain(side: float = 1.0, corner=(0.0, 0.0)) -> PolygonDomain:
    x0, y0 = corner
    s = side
    return PolygonDomain([(x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)],
                         name="square")


def cusp_domain(exponent: float = 8.0, x_min: float = 0.35,
                mouth: float = 1.5, n_profile: int = 40) -> PolygonDomain:
    """Square body with a power-law cusp: half-width (x/mouth)^exponent / 2.

    For exponent > 3 the quasihyperbolic distance fails to be square
    integrable on the ideal cusp, so the k^2 quadrature keeps growing as the
    grid resolves deeper into the corridor; the polygon truncates the tip at
    x_min, which is beyond any resolution used here.
    """
    xs = np.geomspace(x_min, mouth, n_profile)
    w = 0.5 * (xs / mouth) ** exponent
    upper = np.stack([xs, w], axis=1)[::-1]
    lower = np.stack([xs, -w], axis=1)
    verts = [(mouth + 0.5, 0.5), (mouth, 0.5)]
    verts += [tuple(p) for p in upper[1:]]
    verts += [tuple(p) for p in lower]
    verts += [(mouth + 0.5, -0.5)]
    return PolygonDomain(list(reversed(verts)), name="cusp")


def comb_domain(teeth: int = 4, slit_width: float = 0.02,
                slit_depth: float = 0.75) -> PolygonDomain:
    """Rectangle [0,2] x [0,1] with thin slits descending from the top edge."""
    verts = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0)]
    xs = np.linspace(0.25, 1.75, teeth)
    for x in sorted(xs, reverse=True):
        verts += [(x + slit_width / 2, 1.0),
                  (x + slit_width / 2, 1.0 - slit_depth),
                  (x - slit_width / 2, 1.0 - slit_depth),
                  (x - slit_width / 2, 1.0)]
    verts += [(0.0, 1.0)]
    return PolygonDomain(verts, name="comb")


# ---------------------------------------------------------------------------
# Whitney decomposition


@dataclass
class WhitneyCube:
    depth: int
    ij: tuple
    corner: np.ndarray
    side: float
    dist: float

    @property
    def diam(self) -> float:
        return self.side * math.sqrt(2)

    @property
    def center(self) -> np.ndarray:
        return self.corner + self.side / 2


@dataclass
class WhitneyDecomposition:
    domain: PolygonDomain
    cubes: list
    adjacency: list
    truncated: int
    root_corner: np.ndarray
    root_side: float
    max_depth: int

    def to_csv(self, path) -> None:
        """One row per cube: corner, side, boundary distance."""
        with open(path, "w") as fh:
            fh.write("corner_x,corner_y,side,dist\n")
            for q in self.cubes:
                fh.write(f"{q.corner[0]:.12g},{q.corner[1]:.12g},"
                         f"{q.side:.12g},{q.dist:.12g}\n")

    def verify_exact(self) -> dict:
        """Exact integer check of both Whitney inequalities for every cube,
        plus the neighbor side-ratio bound over the adjacency edges."""
        bd = _DyadicBoundary(self.domain, self.root_corner, self.root_side,
                             self.max_depth)
        bad_low, bad_high = [], []
        for k, q in enumerate(self.cubes):
            num, den = bd.cube_dist2(q.depth, q.ij)
            side = bd.side(q.depth)
            diam2 = 2 * side * side
            if not diam2 * den <= num:
                bad_low.append(k)
            if not num <= 16 * diam2 * den:
                bad_high.append(k)
        ratio_ok = all(0.25 <= 2.0 ** (self.cubes[i].depth - self.cubes[j].depth) <= 4
                       for i, j in self.adjacency)
        return {"cubes": len(self.cubes),
                "lower_violations": bad_low,
                "upper_violations": bad_high,
                "neighbor_ratio_ok": bool(ratio_ok)}


_CHILDREN = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], np.int64)   # ij offsets


def whitney_decompose(domain: PolygonDomain, max_depth: int = 7) -> WhitneyDecomposition:
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
    accepted nor entirely outside split into the next depth's frontier.
    """
    lo, hi = domain.bbox()
    span = float((hi - lo).max()) * 1.001
    root_side = 2.0 ** math.ceil(math.log2(span))
    root_corner = _snap(np.asarray(lo, float) - (root_side - span) / 2)
    bd = _DyadicBoundary(domain, root_corner, root_side, max_depth)
    cubes: list[WhitneyCube] = []
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
        acc = np.flatnonzero(accept)
        cubes += [WhitneyCube(depth, tuple(q), c, side, d)
                  for q, c, d in zip(ij[acc].tolist(), corner[acc],
                                     d_cube[acc].tolist())]
        # a cube with d > 0 whose centre is outside lies entirely outside
        split = ij[~accept & (inside | ~(d_cube > 0))]
        if depth == max_depth:
            truncated = len(split)
        ij = (2 * split[:, None, :] + _CHILDREN).reshape(-1, 2)
    if not cubes:
        raise DomainError("domain has no interior at this depth")
    cubes.sort(key=lambda q: (q.depth, q.ij))
    adjacency = _build_adjacency(cubes, max_depth)
    return WhitneyDecomposition(domain, cubes, adjacency, truncated,
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


def _build_adjacency(cubes: list, max_depth: int) -> list:
    """Face-sharing cube pairs via integer interval matching at unit scale."""
    unit = 2 ** max_depth
    spans = []
    for q in cubes:
        w = 2 ** (max_depth - q.depth)
        spans.append((q.ij[0] * w, (q.ij[0] + 1) * w, q.ij[1] * w, (q.ij[1] + 1) * w))
    edges = []
    by_xface: dict = {}
    by_yface: dict = {}
    for k, (x0, x1, y0, y1) in enumerate(spans):
        by_xface.setdefault(x0, []).append((k, y0, y1, "lo"))
        by_xface.setdefault(x1, []).append((k, y0, y1, "hi"))
        by_yface.setdefault(y0, []).append((k, x0, x1, "lo"))
        by_yface.setdefault(y1, []).append((k, x0, x1, "hi"))
    for table in (by_xface, by_yface):
        for coord, items in table.items():
            los = [(k, a, b) for k, a, b, s in items if s == "lo"]
            his = [(k, a, b) for k, a, b, s in items if s == "hi"]
            for k1, a1, b1 in his:
                for k2, a2, b2 in los:
                    if k1 != k2 and min(b1, b2) - max(a1, a2) > 0:
                        edges.append((min(k1, k2), max(k1, k2)))
    return sorted(set(edges))


# ---------------------------------------------------------------------------
# Quasihyperbolic grid metric


class QhGrid:
    """Fine grid graph with edge weight = length / boundary distance at the
    midpoint; Dijkstra fields reusable across queries."""

    def __init__(self, domain: PolygonDomain, pitch: float):
        self.domain = domain
        self.pitch = pitch
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
        self.nodes = pts[ok]
        self.delta = delta[far]
        self.index = -np.ones(nx * ny, np.int64)
        self.index[ok] = np.arange(len(self.nodes))
        self._shape = (nx, ny)
        self._tree = cKDTree(self.nodes)
        rows, cols, data = [], [], []
        for (dx, dy), si, di, dmid in _grid_steps(
                domain, pts.reshape(nx, ny, 2), self.index.reshape(nx, ny)):
            w = math.hypot(dx, dy) * pitch / dmid
            rows += [si, di]
            cols += [di, si]
            data += [w, w]
        n = len(self.nodes)
        self.mat = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n))

    def nearest_node(self, p) -> int:
        return int(self._tree.query(np.asarray(p, float))[1])

    def distance_field(self, x0) -> tuple[np.ndarray, np.ndarray]:
        src = self.nearest_node(x0)
        dist, pred = dijkstra(self.mat, directed=False, indices=src,
                              return_predecessors=True)
        return dist, pred


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


def qh_distance(domain: PolygonDomain, x1, x2, pitch: float = 0.01,
                grid: QhGrid | None = None) -> dict:
    """Quasihyperbolic distance and polygonal geodesic between two points.

    Upper estimate on the grid graph, converging under refinement; the metric
    is defined on unordered pairs, so the query is canonicalized and the
    result exactly symmetric.
    """
    a = np.asarray(x1, float)
    b = np.asarray(x2, float)
    if tuple(b.tolist()) < tuple(a.tolist()):
        a, b = b, a
    g = grid if grid is not None else QhGrid(domain, pitch)
    if not (g.domain.contains(a[None])[0] and g.domain.contains(b[None])[0]):
        raise DomainError("query points must be interior to the domain")
    # endpoints whose neighborhood is unresolved at this pitch are flagged,
    # not silently snapped to a distant node
    for p in (a, b):
        snap = float(g._tree.query(p)[0])
        if snap > 1.6 * g.pitch:
            return {"value": math.inf, "geodesic": None, "infeasible": True}
    dist, pred = g.distance_field(a)
    tgt = g.nearest_node(b)
    if not np.isfinite(dist[tgt]):
        return {"value": math.inf, "geodesic": None, "infeasible": True}
    path = [tgt]
    while pred[path[-1]] >= 0:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return {"value": float(dist[tgt]),
            "geodesic": PolyCurve(g.nodes[path]),
            "infeasible": False}


# ---------------------------------------------------------------------------
# Shadows


@dataclass
class ShadowRecord:
    cube_index: int
    shadow_indices: np.ndarray
    s: float


def shadows(domain: PolygonDomain, x0, decomp: WhitneyDecomposition,
            boundary_spacing: float | None = None) -> dict:
    """Shadow of each Whitney cube under the shortest-path tree from x0.

    The tree lives on the cube adjacency graph with quasihyperbolic edge
    weights; the parent of a cube is its least-index shortest-path
    predecessor within 1e-15 (-1 at the root and where unreachable).  Each
    boundary sample is routed from its nearest cube to the root; SH(Q)
    collects the samples whose route passes through Q, and s(Q) = diam SH(Q).
    """
    cubes = decomp.cubes
    n = len(cubes)
    if n == 0:
        raise DomainError("empty decomposition")
    centers = np.array([q.center for q in cubes])
    dists = np.array([max(q.dist, 1e-12) for q in cubes])
    x0 = np.asarray(x0, float)
    root = _cube_containing(cubes, x0)
    if root is None:
        root = int(np.linalg.norm(centers - x0, axis=1).argmin())
    i, j = np.array(decomp.adjacency, np.int64).reshape(-1, 2).T
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
    parent = parent.tolist()
    if boundary_spacing is None:
        boundary_spacing = min(q.side for q in cubes)
    samples = domain.boundary_samples(boundary_spacing)
    tree = cKDTree(centers)
    _, near = tree.query(samples, k=min(8, n))
    near = np.atleast_2d(near)
    shadow_sets: list[list[int]] = [[] for _ in range(n)]
    for si in range(len(samples)):
        cands = near[si]
        best, best_key = None, None
        for c in cands:
            q = cubes[int(c)]
            dx = max(q.corner[0] - samples[si, 0], 0,
                     samples[si, 0] - q.corner[0] - q.side)
            dy = max(q.corner[1] - samples[si, 1], 0,
                     samples[si, 1] - q.corner[1] - q.side)
            key = (math.hypot(dx, dy), q.side, int(c))
            if best_key is None or key < best_key:
                best, best_key = int(c), key
        node = best
        seen = set()
        while node != -1 and node not in seen:
            shadow_sets[node].append(si)
            seen.add(node)
            node = parent[node]
    records = []
    for k in range(n):
        idx = np.array(sorted(set(shadow_sets[k])), int)
        if len(idx) >= 2:
            s = _cloud_diameter(samples[idx])
        else:
            s = 0.0
        records.append(ShadowRecord(k, idx, float(s)))
    return {"records": records, "parent": parent, "root": root,
            "boundary_samples": samples, "tree_distances": dist.tolist()}


def _cube_containing(cubes, p) -> int | None:
    for k, q in enumerate(cubes):
        if (q.corner[0] <= p[0] <= q.corner[0] + q.side
                and q.corner[1] <= p[1] <= q.corner[1] + q.side):
            return k
    return None


def tree_path_cubes(parent: list, start: int) -> list:
    out = [start]
    while parent[out[-1]] != -1:
        out.append(parent[out[-1]])
    return out


def shadow_table_json(decomp: WhitneyDecomposition, shadow_result: dict) -> dict:
    """Serializable shadow table: per cube, s(Q) and the sample count."""
    rows = []
    for rec in shadow_result["records"]:
        q = decomp.cubes[rec.cube_index]
        rows.append({"cube": rec.cube_index, "depth": q.depth,
                     "side": q.side, "s": rec.s,
                     "shadow_samples": int(len(rec.shadow_indices))})
    return {"root": shadow_result["root"],
            "boundary_samples": int(len(shadow_result["boundary_samples"])),
            "table": rows}


# ---------------------------------------------------------------------------
# Shadow-sum diagnostic


def shadow_sum_diagnostic(domain: PolygonDomain, x0, max_depth: int = 6,
                          qh_pitch: float = 0.02) -> dict:
    """Compare sum_Q s(Q)^n against the quasihyperbolic integral.

    lhs: shadow diameters from the tree on the Whitney cubes at this depth.
    rhs: midpoint quadrature of k(x, x0)^n over the cells of the metric grid
    (full domain coverage; cells the grid cannot reach are skipped and
    counted -- their k is beyond the resolution of this level).
    """
    decomp = whitney_decompose(domain, max_depth=max_depth)
    sh = shadows(domain, x0, decomp)
    n = 2
    lhs = float(sum(rec.s ** n for rec in sh["records"]))
    grid = QhGrid(domain, qh_pitch)
    dist, _ = grid.distance_field(x0)
    ok = np.isfinite(dist)
    rhs = float((dist[ok] ** n).sum() * qh_pitch ** n)
    return {"lhs": lhs, "rhs": rhs,
            "ratio": lhs / rhs if rhs > 0 else math.inf,
            "cubes": len(decomp.cubes),
            "unreachable_nodes": int((~ok).sum()),
            "truncated": decomp.truncated,
            "max_depth": max_depth,
            "qh_pitch": qh_pitch}
