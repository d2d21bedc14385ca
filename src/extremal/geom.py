"""Core geometric types and functionals.

Balls, sampled regions, polygonal curves, boundary eccentricity, Hausdorff
content, and line integrals.  Everything here is a pure function of immutable
inputs; regions and curves are safe to share across threads once built.
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


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball given by center and positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, float))
        if not self.radius > 0:
            raise DomainError(f"ball radius must be positive, got {self.radius}")


def balls_disjoint(b1: Ball, b2: Ball) -> bool:
    """Exact disjointness test: |c1-c2| >= r1+r2, decided in integers (every
    float is an integer over a power of two; scale all to the largest one)."""
    dim = len(b1.center)
    ratios = [float(v).as_integer_ratio()
              for v in (*b1.center, *b2.center, b1.radius, b2.radius)]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    c1, c2, (r1, r2) = ints[:dim], ints[dim:-2], ints[-2:]
    d2 = sum((a - b) ** 2 for a, b in zip(c1, c2))
    return d2 >= (r1 + r2) ** 2


# ---------------------------------------------------------------------------
# Sampled regions


@dataclass(frozen=True)
class Region:
    """Bounded open set represented by a point cloud on a regular lattice.

    ``samples`` are lattice points lying in the set, ``pitch`` is the lattice
    spacing.  Containment checks use a half-pitch tolerance: the region is
    identified with the union of pitch-sized cells around its samples.
    """

    samples: np.ndarray
    pitch: float

    def __post_init__(self):
        pts = np.asarray(self.samples, float)
        if pts.ndim != 2 or len(pts) == 0:
            raise DomainError("region needs a nonempty (N, dim) sample array")
        object.__setattr__(self, "samples", pts)

    @cached_property
    def _tree(self) -> cKDTree:
        # built on the first query: a covering's merged clusters never query
        return cKDTree(self.samples)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.samples.min(axis=0), self.samples.max(axis=0)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    @cached_property
    def _diameter(self) -> float:
        return _cloud_diameter(self.samples)

    def diameter(self) -> float:
        """Exact diameter of the sample cloud, its hull taken once."""
        return self._diameter

    def contains_points(self, pts: np.ndarray, tol: float | None = None) -> np.ndarray:
        """True where each query point lies within tol of some sample."""
        if tol is None:
            tol = 0.5 * self.pitch * math.sqrt(self.dim)
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
    """Exact diameter: the largest pairwise distance among hull vertices."""
    hull = _hull_points(pts)
    if len(hull) < 2:
        return 0.0
    diff = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())


# ---------------------------------------------------------------------------
# Polygonal curves


class PolyCurve:
    """Finite polygonal path with cached arclength parametrization."""

    def __init__(self, vertices):
        v = np.asarray(vertices, float)
        if v.ndim != 2 or len(v) < 1:
            raise DomainError("polycurve needs an (N, dim) vertex array")
        self.vertices = v
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1) if len(v) > 1 else np.zeros(0)
        self._seg_lengths = seg
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def length(self) -> float:
        return float(self._cum[-1])

    def point_at(self, s: float) -> np.ndarray:
        """Point at arclength s in [0, length]."""
        s = min(max(s, 0.0), self.length())
        i = int(np.searchsorted(self._cum, s, side="right") - 1)
        i = min(i, len(self.vertices) - 2) if len(self.vertices) > 1 else 0
        if len(self.vertices) == 1 or self._seg_lengths[i] == 0:
            return self.vertices[i].copy()
        t = (s - self._cum[i]) / self._seg_lengths[i]
        return (1 - t) * self.vertices[i] + t * self.vertices[i + 1]

    def sample_arclength(self, n: int) -> np.ndarray:
        """n points uniformly spaced in arclength (endpoints included)."""
        if self.length() == 0:
            return np.repeat(self.vertices[:1], n, axis=0)
        return np.array([self.point_at(s) for s in np.linspace(0, self.length(), n)])

    def translate(self, x) -> "PolyCurve":
        return PolyCurve(self.vertices + np.asarray(x, float))

    def subcurve(self, s0: float, s1: float) -> "PolyCurve":
        """Strong subpath between arclengths s0 <= s1."""
        s0 = min(max(s0, 0.0), self.length())
        s1 = min(max(s1, s0), self.length())
        keep = (self._cum > s0) & (self._cum < s1)
        pts = [self.point_at(s0)] + list(self.vertices[keep]) + [self.point_at(s1)]
        return PolyCurve(np.array(pts))

    def concatenate(self, other: "PolyCurve") -> "PolyCurve":
        if not np.allclose(self.vertices[-1], other.vertices[0]):
            raise DomainError("concatenation requires matching endpoints")
        return PolyCurve(np.vstack([self.vertices, other.vertices[1:]]))

    def segments(self) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        for a, b in zip(self.vertices[:-1], self.vertices[1:]):
            yield a, b

    @staticmethod
    def segment(a, b) -> "PolyCurve":
        return PolyCurve(np.array([a, b], float))

    @staticmethod
    def circle(center, radius: float, n: int = 256) -> "PolyCurve":
        th = np.linspace(0, 2 * math.pi, n + 1)
        c = np.asarray(center, float)
        pts = c + radius * np.stack([np.cos(th), np.sin(th)], axis=1)
        return PolyCurve(pts)


# ---------------------------------------------------------------------------
# Eccentricity


def eccentricity_of_boundary(boundary: np.ndarray,
                             centers: np.ndarray) -> tuple[float, np.ndarray]:
    """Least max/min distance ratio to a sampled boundary over candidate centers.

    For an open set A with boundary cloud ``boundary`` and a center c inside A,
    the largest inscribed ball has radius dist(c, bd A) and the smallest
    circumscribed one max dist; their ratio bounds the eccentricity from above.
    Returns (ratio, best_center).
    """
    centers = np.atleast_2d(np.asarray(centers, float))
    tree = cKDTree(boundary)
    r_in, _ = tree.query(centers, k=1)
    r_out = np.zeros(len(centers))
    for p in _hull_points(boundary):
        r_out = np.maximum(r_out, np.linalg.norm(centers - p, axis=1))
    ok = r_in > 1e-12
    if not ok.any():
        return math.inf, centers[0]
    ratio = np.where(ok, r_out / np.maximum(r_in, 1e-300), np.inf)
    best = int(np.argmin(ratio))
    return float(max(1.0, ratio[best])), centers[best]


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
    """Integral of a nonnegative density along a polygonal curve.

    ``rho`` is either a callable from an (N, dim) point array to N values
    (composite Simpson quadrature per segment, ``translate_line_integrals``
    at offset 0) or an object with ``value_at_cell(cell) / origin / spacing``
    (exact for densities piecewise constant on grid cells: the curve is split
    at every cell boundary it crosses).
    """
    if curve.length() == 0:
        return 0.0
    if not hasattr(rho, "value_at_cell"):
        return float(translate_line_integrals(rho, curve, np.zeros((1, curve.dim)))[0])
    origin = np.asarray(rho.origin, float)
    h = float(rho.spacing)
    total = 0.0
    for a, b in curve.segments():
        for cell, length in _cell_traversal(a, b, origin, h):
            total += rho.value_at_cell(cell) * length
    return total
