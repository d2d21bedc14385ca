"""Core geometric types and functionals.

Ball disjointness, sampled regions, polygonal curves, boundary eccentricity,
Hausdorff content, and line integrals.  Everything here is a pure function of
immutable inputs; regions and curves are safe to share across threads once
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree


class DomainError(ValueError):
    """Raised when an operation's geometric preconditions are violated."""


# ---------------------------------------------------------------------------
# Balls


def balls_disjoint_matrix(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Exact disjointness of every pair of the balls (centers[i], radii[i]):
    entry (i, j) is |c_i - c_j| >= r_i + r_j, as an (n, n) bool array.

    d2 = sum (c_i - c_j)^2 and s2 = (r_i + r_j)^2 are formed in floats first.
    Each term goes through at most dim + 1 correctly rounded operations and
    the summed terms are nonnegative, so either value is off by a relative
    error below (dim + 2) 2^-53 (under 6e-16 in 2D and 3D), plus an
    absolute error below (dim + 1) 2^-1074 where a square underflows.  So
    where both are finite, the larger is at least 1e-250 and they differ by
    more than 1e-12 of the larger, the float comparison is the exact one.
    Every other pair (a near tie, a value near underflow, or a non-finite
    value) is decided in integers: every float is an integer over a power of
    two, so the pair's values are scaled to the largest denominator.
    """
    centers = np.asarray(centers, float)
    radii = np.asarray(radii, float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        s2 = (radii[:, None] + radii[None, :]) ** 2
        big = np.maximum(d2, s2)
        sure = np.isfinite(big) & (big >= 1e-250) & (np.abs(d2 - s2) > 1e-12 * big)
    out = d2 > s2
    dim = centers.shape[1]
    for i, j in zip(*np.nonzero(np.triu(~sure))):
        ratios = [float(v).as_integer_ratio()
                  for v in (*centers[i], *centers[j], radii[i], radii[j])]
        scale = max(den for _, den in ratios)
        ints = [num * (scale // den) for num, den in ratios]
        c1, c2, (r1, r2) = ints[:dim], ints[dim:-2], ints[-2:]
        d2_int = sum((a - b) ** 2 for a, b in zip(c1, c2))
        out[i, j] = out[j, i] = d2_int >= (r1 + r2) ** 2
    return out


# ---------------------------------------------------------------------------
# Sampled regions


@dataclass(frozen=True)
class Region:
    """Bounded open set represented by a point cloud on a regular lattice.

    ``samples`` are lattice points lying in the set.  A containment check
    takes its tolerance from the caller.
    """

    samples: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.samples, float)
        if pts.ndim != 2 or len(pts) == 0:
            raise DomainError("region needs a nonempty (N, dim) sample array")
        object.__setattr__(self, "samples", pts)

    @cached_property
    def _tree(self) -> cKDTree:
        # built on the first query: a covering queries only the regions its
        # subset screen cannot rule out; the nearest distances are exact
        # whatever the tree's shape, and an unbalanced tree builds and
        # queries faster on lattice clouds
        return cKDTree(self.samples, balanced_tree=False)

    def diameter(self) -> float:
        """Exact diameter of the sample cloud, over its convex hull."""
        return _cloud_diameter(self.samples)

    def contains_points(self, pts: np.ndarray, tol: float) -> np.ndarray:
        """True where each query point lies within tol of some sample."""
        d, _ = self._tree.query(np.atleast_2d(np.asarray(pts, float)), k=1)
        return d <= tol + 1e-12


def _hull_points(pts: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull, which carry the diameter and every
    farthest point of the cloud (Preparata-Shamos); the whole cloud when
    Qhull cannot build a hull (flat, too small or one-dimensional)."""
    try:
        return pts[ConvexHull(pts).vertices]
    except (QhullError, ValueError):
        return pts


def _cloud_diameter(pts: np.ndarray) -> float:
    """Exact diameter over the samples whose farthest hull vertex is within a
    rounding slack of the largest such distance: both ends of a diameter are,
    even one that Qhull drops as lying within its precision of a vertex."""
    if not len(pts):
        return 0.0
    far = np.sqrt(_squared_distances(pts, _hull_points(pts)).max(axis=1))
    slack = 1e-9 * (1 + np.abs(pts).max())
    return float(_farthest(pts[far >= far.max() - slack]))


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., k, m) squared distances between the rows of (..., k, dim) and
    (..., m, dim) stacks, summed in axis order: the square root of an entry
    is the distance ``np.linalg.norm`` and a kd-tree query give."""
    return sum((p[..., :, None] - q[..., None, :]) ** 2
               for p, q in zip(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)))


def _farthest(clouds: np.ndarray) -> np.ndarray:
    """Largest pairwise distance within each (k, dim) cloud of a (..., k, dim)
    stack, k >= 1: one arithmetic for every exact diameter (the square root
    is monotone, so it is taken once, of the largest squared distance)."""
    return np.sqrt(_squared_distances(clouds, clouds).max(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# Polygonal curves


class PolyCurve:
    """Finite polygonal path; its length is summed once, in vertex order."""

    def __init__(self, vertices):
        v = np.asarray(vertices, float)
        if v.ndim != 2 or len(v) < 1:
            raise DomainError("polycurve needs an (N, dim) vertex array")
        self.vertices = v
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
        self._length = float(np.cumsum(seg)[-1]) if len(seg) else 0.0

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def length(self) -> float:
        return self._length

    def segments(self) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        for a, b in zip(self.vertices[:-1], self.vertices[1:]):
            yield a, b


# ---------------------------------------------------------------------------
# Eccentricity


def eccentricity_of_boundary(boundary: np.ndarray, centers: np.ndarray):
    """Least max/min distance ratio to a sampled boundary over candidate centers.

    For an open set A with boundary cloud ``boundary`` and a center c inside A,
    the largest inscribed ball has radius dist(c, bd A) and the smallest
    circumscribed one max dist; their ratio bounds the eccentricity from above.
    Both radii are exact, read off one centers x samples distance array.
    Stacks (..., m, dim) and (..., k, dim) give one value per set, as its own
    call would; one set gives a float.
    """
    d = np.sqrt(_squared_distances(np.atleast_2d(np.asarray(centers, float)),
                                   np.asarray(boundary, float)))
    r_in, r_out = d.min(axis=-1), d.max(axis=-1)
    ratio = np.where(r_in > 1e-12, r_out / np.maximum(r_in, 1e-300), np.inf)
    return np.maximum(1.0, ratio.min(axis=-1))


# ---------------------------------------------------------------------------
# Hausdorff content


def hausdorff_normalization(s: float) -> float:
    """c(s): volume of the s-dimensional ball of diameter 1.

    Fixes c(1) = 1 and makes the n-dimensional content agree with Lebesgue
    measure; intermediate s interpolate through the same formula.
    """
    return math.pi ** (s / 2) / (2 ** s * math.gamma(s / 2 + 1))


def hausdorff_content(set_model, s: float, delta: float = math.inf) -> float:
    """Upper estimate of the s-dimensional Hausdorff delta-content.

    Covers by axis-aligned dyadic cubes of diameter <= delta (deterministic),
    refined while the cube count stays within 400,000.  When the model
    exposes exact components, covering by the components themselves is also
    tried; for s equal to the ambient dimension the Lebesgue volume of the
    dyadic cover is an additional valid upper bound (fine covers by balls
    realize it).  The reported value is the least of these upper bounds, hence
    monotone in the set and nonincreasing in delta.
    """
    if s < 0:
        raise DomainError("dimension exponent must be >= 0")
    if delta <= 0:
        raise DomainError("cover gauge must be positive")
    c_s = hausdorff_normalization(s)
    dim = set_model.dim
    best = math.inf

    comps = getattr(set_model, "components", None)
    if callable(comps):
        diams = comps()
        if diams and all(d <= delta + 1e-15 for d in diams):
            best = min(best, c_s * sum(d ** s for d in diams))

    lo, hi = set_model.bbox()
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    side0 = float(max(hi - lo)) or 1.0
    corners = lo[None, :].copy()
    side = side0
    child_offs = np.array([[(k >> a) & 1 for a in range(dim)]
                           for k in range(2 ** dim)], float)
    while True:
        diam = side * math.sqrt(dim)
        if diam <= delta + 1e-15:
            best = min(best, c_s * len(corners) * diam ** s)
            if abs(s - dim) < 1e-12:
                best = min(best, len(corners) * side ** dim)
        if len(corners) * (2 ** dim) > 400_000 or side < 1e-12:
            break
        half = side / 2
        kids = (corners[:, None, :] + child_offs[None] * half).reshape(-1, dim)
        keep = set_model.intersects_boxes_batch(kids, kids + half)
        if not keep.any():
            best = min(best, 0.0)
            break
        corners = kids[keep]
        side = half
    return best


# ---------------------------------------------------------------------------
# Line integrals


def _cell_traversal(a: np.ndarray, b: np.ndarray, origin: np.ndarray,
                    h: float) -> Iterable[tuple[tuple, float]]:
    """Yield (cell_index, length) for the cells a->b crosses (grid walk)."""
    d = b - a
    seg_len = float(np.linalg.norm(d))
    if seg_len == 0:
        return
    # parameter values where the segment crosses any grid plane
    ts = [0.0, 1.0]
    for ax in range(len(a)):
        if d[ax] == 0:
            continue
        k0 = math.floor((min(a[ax], b[ax]) - origin[ax]) / h)
        k1 = math.ceil((max(a[ax], b[ax]) - origin[ax]) / h)
        for k in range(k0, k1 + 1):
            t = (origin[ax] + k * h - a[ax]) / d[ax]
            if 0.0 < t < 1.0:
                ts.append(t)
    ts = sorted(set(ts))
    for t0, t1 in zip(ts[:-1], ts[1:]):
        mid = a + (t0 + t1) / 2 * d
        cell = tuple(int(math.floor((m - o) / h)) for m, o in zip(mid, origin))
        yield cell, (t1 - t0) * seg_len


def translate_line_integrals(rho, curve: PolyCurve, offsets) -> np.ndarray:
    """Integral of a callable density over curve + x for each row x of offsets.

    Composite Simpson quadrature with 64 panels per segment; each segment's
    nodes of every translate go through one ``rho`` call.  ``rho`` maps an
    (N, dim) point array to N values.
    """
    offsets = np.atleast_2d(np.asarray(offsets, float))
    m = 64
    t = np.linspace(0.0, 1.0, m + 1)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    totals = np.zeros(len(offsets))
    for va, vb in curve.segments():
        a, b = va + offsets, vb + offsets
        seg_len = np.array([float(np.linalg.norm(d)) for d in b - a])
        on = seg_len != 0
        if not on.any():
            continue
        a, b = a[on], b[on]
        pts = (a[:, None] + t[None, :, None] * (b - a)[:, None]).reshape(-1, curve.dim)
        vals = np.asarray(rho(pts), float)
        # never broadcast a scalar: that is how a pointwise density fails
        if vals.shape != (len(pts),):
            raise DomainError(f"density must map {len(pts)} points to "
                              f"{len(pts)} values, got shape {vals.shape}")
        vals = vals.reshape(len(a), m + 1)
        totals[on] += (vals * w).sum(axis=1) * seg_len[on] / (3 * m)
    return totals


def line_integral(rho, curve: PolyCurve) -> float:
    """Exact integral along a polygonal curve of a density that is constant on
    each grid cell, such as a ``DensityField``: the curve is split at every
    cell boundary it crosses.  ``rho`` gives ``value_at_cell(cell)``,
    ``origin`` and ``spacing``.  A callable density is integrated by
    ``translate_line_integrals``.
    """
    origin = np.asarray(rho.origin, float)
    h = float(rho.spacing)
    total = 0.0
    for a, b in curve.segments():
        for cell, length in _cell_traversal(a, b, origin, h):
            total += rho.value_at_cell(cell) * length
    return total
