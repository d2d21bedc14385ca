"""Core geometric types and functionals.

Balls, sampled regions, polygonal curves, eccentricity and relative-distance
estimators, Hausdorff content, and line integrals.  Everything here is a pure
function of immutable inputs; regions and curves are safe to share across
threads once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

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

    @property
    def dim(self) -> int:
        return len(self.center)

    def dilate(self, lam: float) -> "Ball":
        """lam*B: same center, radius multiplied by lam."""
        return Ball(self.center, lam * self.radius)

    def contains_point(self, p, tol: float = 0.0) -> bool:
        return float(np.linalg.norm(np.asarray(p, float) - self.center)) < self.radius + tol


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
    _tree: cKDTree = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        pts = np.asarray(self.samples, float)
        if pts.ndim != 2 or len(pts) == 0:
            raise DomainError("region needs a nonempty (N, dim) sample array")
        object.__setattr__(self, "samples", pts)
        object.__setattr__(self, "_tree", cKDTree(pts))

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

    def center_of_mass(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def contains_points(self, pts: np.ndarray, tol: float | None = None) -> np.ndarray:
        """True where each query point lies within tol of some sample."""
        if tol is None:
            tol = 0.5 * self.pitch * math.sqrt(self.dim)
        d, _ = self._tree.query(np.atleast_2d(np.asarray(pts, float)), k=1)
        return d <= tol + 1e-12

    def boundary_samples(self) -> np.ndarray:
        """Samples with at least one missing lattice neighbor."""
        offsets = []
        dim = self.dim
        for ax in range(dim):
            for s in (-1.0, 1.0):
                off = np.zeros(dim)
                off[ax] = s * self.pitch
                offsets.append(off)
        inside = np.ones(len(self.samples), bool)
        for off in offsets:
            d, _ = self._tree.query(self.samples + off, k=1)
            inside &= d <= 0.25 * self.pitch
        bnd = self.samples[~inside]
        return bnd if len(bnd) else self.samples

    def covers_ball(self, center, radius: float) -> bool:
        """B(center, radius) inside the region, up to half-pitch tolerance.

        Probe points on a pitch lattice across the ball must all sit within
        a cell of some sample; robust for regions assembled from several
        sample clouds.
        """
        center = np.asarray(center, float)
        if not self.contains_points(center[None])[0]:
            return False
        g = self.pitch
        n = int(math.ceil(2 * radius / g)) + 1
        axes = [center[ax] - radius + g * np.arange(n + 1) for ax in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        probes = np.stack([gg.ravel() for gg in grids], axis=1)
        inside = np.linalg.norm(probes - center, axis=1) <= radius - 0.26 * g
        if not inside.any():
            return True
        tol = 0.75 * g * math.sqrt(self.dim)
        return bool(self.contains_points(probes[inside], tol=tol).all())


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


def region_from_mask(mask: Callable[[np.ndarray], np.ndarray], lo, hi,
                     pitch: float) -> Region:
    """Sample a membership predicate on a lattice of the given pitch."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    axes = [np.arange(l + pitch / 2, h, pitch) for l, h in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = mask(pts)
    if not keep.any():
        raise DomainError("mask selected no lattice points")
    return Region(pts[keep], pitch)


def disk_region(center, radius: float, pitch: float) -> Region:
    center = np.asarray(center, float)
    return region_from_mask(
        lambda p: np.linalg.norm(p - center, axis=1) < radius,
        center - radius, center + radius, pitch)


def rect_region(lo, hi, pitch: float) -> Region:
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    return region_from_mask(
        lambda p: np.all((p > lo) & (p < hi), axis=1), lo, hi, pitch)


def ellipse_region(center, semi_axes, pitch: float) -> Region:
    center = np.asarray(center, float)
    semi = np.asarray(semi_axes, float)
    return region_from_mask(
        lambda p: (((p - center) / semi) ** 2).sum(axis=1) < 1.0,
        center - semi, center + semi, pitch)


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

    @property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices[0], self.vertices[-1]

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

    def reverse(self) -> "PolyCurve":
        return PolyCurve(self.vertices[::-1])

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

    def to_json(self) -> dict:
        return {"vertices": self.vertices.tolist(), "unit_scale": 1.0}

    @staticmethod
    def from_json(obj: dict) -> "PolyCurve":
        scale = float(obj.get("unit_scale", 1.0))
        return PolyCurve(np.asarray(obj["vertices"], float) * scale)

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


def eccentricity_of_boundary(boundary: np.ndarray, centers: np.ndarray,
                             inner_tol: float = 0.0) -> tuple[float, np.ndarray]:
    """Least max/min distance ratio to a sampled boundary over candidate centers.

    For an open set A with boundary cloud ``boundary`` and a center c inside A,
    the largest inscribed ball has radius dist(c, bd A) and the smallest
    circumscribed one max dist; their ratio bounds the eccentricity from above.
    Returns (ratio, best_center).
    """
    centers = np.atleast_2d(np.asarray(centers, float))
    tree = cKDTree(boundary)
    r_in, _ = tree.query(centers, k=1)
    r_in = r_in - inner_tol
    r_out = np.zeros(len(centers))
    for p in _hull_points(boundary):
        r_out = np.maximum(r_out, np.linalg.norm(centers - p, axis=1))
    ok = r_in > 1e-12
    if not ok.any():
        return math.inf, centers[0]
    ratio = np.where(ok, r_out / np.maximum(r_in, 1e-300), np.inf)
    best = int(np.argmin(ratio))
    return float(max(1.0, ratio[best])), centers[best]


def eccentricity(region: Region, search_resolution: float) -> float:
    """Upper estimate of the eccentricity E(A) = inf {M : B c A c M B}.

    Ball centers are searched on a grid of pitch ``search_resolution`` inside
    the region's bounding box; for each center the inscribed radius comes from
    the distance to the sampled boundary.  The estimate decreases (toward the
    true infimum) as the resolution and the region's sampling pitch shrink.
    """
    if search_resolution <= 0:
        raise DomainError("search_resolution must be positive")
    lo, hi = region.bbox
    axes = [np.arange(l, h + search_resolution / 2, search_resolution)
            for l, h in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    inside = region.contains_points(centers)
    centers = centers[inside]
    if len(centers) == 0:
        centers = region.center_of_mass()[None]
    bnd = region.boundary_samples()
    # half-pitch inflation keeps the ratio an upper estimate for the sampled set
    pad = 0.5 * region.pitch * math.sqrt(region.dim)
    tree = cKDTree(bnd)
    r_in, _ = tree.query(centers, k=1)
    r_in = r_in - 0.5 * region.pitch
    r_out = np.zeros(len(centers))
    for p in _hull_points(region.samples):
        r_out = np.maximum(r_out, np.linalg.norm(centers - p, axis=1))
    r_out = r_out + pad
    ok = r_in > 1e-12
    if not ok.any():
        raise DomainError("region too thin for its sampling pitch")
    ratio = np.where(ok, r_out / np.maximum(r_in, 1e-300), np.inf)
    return float(max(1.0, ratio.min()))


# ---------------------------------------------------------------------------
# Relative distance


def _as_cloud(obj) -> np.ndarray:
    if isinstance(obj, Region):
        return obj.samples
    if isinstance(obj, PolyCurve):
        n = max(len(obj.vertices) * 4, 64)
        return obj.sample_arclength(min(n, 2048))
    return np.atleast_2d(np.asarray(obj, float))


def relative_distance(f1, f2) -> float:
    """dist(F1, F2) / min(diam F1, diam F2) for curves or regions."""
    c1, c2 = _as_cloud(f1), _as_cloud(f2)
    d1, d2 = _cloud_diameter(c1), _cloud_diameter(c2)
    if d1 <= 0 or d2 <= 0:
        raise DomainError("relative distance needs non-degenerate sets")
    dist = float(cKDTree(c1).query(c2, k=1)[0].min())
    return dist / min(d1, d2)


# ---------------------------------------------------------------------------
# Hausdorff content


def hausdorff_normalization(s: float) -> float:
    """c(s): volume of the s-dimensional ball of diameter 1.

    Fixes c(1) = 1 and makes the n-dimensional content agree with Lebesgue
    measure; intermediate s interpolate through the same formula.
    """
    return math.pi ** (s / 2) / (2 ** s * math.gamma(s / 2 + 1))


def hausdorff_content(set_model, s: float, delta: float = math.inf,
                      budget: int = 400_000) -> float:
    """Upper estimate of the s-dimensional Hausdorff delta-content.

    Covers by axis-aligned dyadic cubes of diameter <= delta (deterministic),
    refined while the cube count stays within ``budget``.  When the model
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
        diams = [d for d in comps() if d <= delta + 1e-15]
        if diams and len(diams) == len(list(set_model.components())):
            best = min(best, c_s * sum(d ** s for d in diams))

    lo, hi = set_model.bbox()
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    side0 = float(max(hi - lo)) or 1.0
    corners = lo[None, :].copy()
    side = side0
    child_offs = np.array([[(k >> a) & 1 for a in range(dim)]
                           for k in range(2 ** dim)], float)
    batch = getattr(set_model, "intersects_boxes_batch", None)
    while True:
        diam = side * math.sqrt(dim)
        if diam <= delta + 1e-15:
            best = min(best, c_s * len(corners) * diam ** s)
            if abs(s - dim) < 1e-12:
                best = min(best, len(corners) * side ** dim)
        if len(corners) * (2 ** dim) > budget or side < 1e-12:
            break
        half = side / 2
        kids = (corners[:, None, :] + child_offs[None] * half).reshape(-1, dim)
        if callable(batch):
            keep = batch(kids, kids + half)
        else:
            keep = np.array([set_model.intersects_box(c, c + half) for c in kids])
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


def translate_line_integrals(rho, curve: PolyCurve, offsets,
                             samples_per_segment: int = 64) -> np.ndarray:
    """Integral of a callable density over curve + x for each row x of offsets.

    Composite Simpson quadrature per segment; each segment's nodes of every
    translate go through one ``rho`` call.  ``rho`` maps an (N, dim) point
    array to N values.
    """
    offsets = np.atleast_2d(np.asarray(offsets, float))
    m = samples_per_segment + (samples_per_segment % 2)  # even panels
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


def line_integral(rho, curve: PolyCurve, samples_per_segment: int = 64) -> float:
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
        return float(translate_line_integrals(rho, curve, np.zeros((1, curve.dim)),
                                              samples_per_segment)[0])
    origin = np.asarray(rho.origin, float)
    h = float(rho.spacing)
    total = 0.0
    for a, b in curve.segments():
        for cell, length in _cell_traversal(a, b, origin, h):
            total += rho.value_at_cell(cell) * length
    return total
