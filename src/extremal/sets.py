"""Canonical set constructions and set-curve interaction.

Cantor sets, their products, unions of segments, points and circles, and the
constrained-modulus probe.  Linear sets carry exact rational endpoints, so
their measures are exact at the represented depth and their float queries
round the endpoints outward; floating point only enters the Monte Carlo
surveys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geom import DomainError
from . import modfam
from .modfam import CurveConstraint, GridScene


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(float(x))


def _round_float(x: Fraction, up: bool) -> float:
    """The least float >= x (up) or the greatest float <= x (down)."""
    f = float(x)
    if (f < x) if up else (f > x):
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


# ---------------------------------------------------------------------------
# 1D interval unions (Cantor-type sets, primitive unions on a line)


@dataclass
class IntervalUnionSet:
    """Finite union of closed intervals with exact rational endpoints.

    ``limit_measure_zero`` records whether the idealized construction the
    depth-limited representation stands for has zero length (e.g. the
    middle-thirds Cantor set) or positive length (a fat Cantor set).
    """

    intervals: list
    limit_measure_zero: bool | None = None
    dim = 1

    def __post_init__(self):
        iv = sorted(((_frac(a), _frac(b)) for a, b in self.intervals),
                    key=lambda t: t[0])
        for (a, b) in iv:
            if b < a:
                raise DomainError("interval endpoints out of order")
        merged = []
        for a, b in iv:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self.intervals = merged
        # a float lies in [a, b] exactly when it lies between the least float
        # >= a and the greatest float <= b, so the float queries are exact
        self._lo = np.array([_round_float(a, up=True) for a, _ in merged])
        self._hi = np.array([_round_float(b, up=False) for _, b in merged])

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def contains_fraction(self, x: Fraction) -> bool:
        for a, b in self.intervals:
            if a <= x <= b:
                return True
            if a > x:
                break
        return False

    def contains(self, p) -> bool:
        x = p[0] if np.ndim(p) else p
        return self.contains_fraction(_frac(x))

    def contains_float_batch(self, xs: np.ndarray) -> np.ndarray:
        if len(self._lo) == 0:
            return np.zeros(len(xs), bool)
        idx = np.searchsorted(self._lo, xs, side="right") - 1
        ok = idx >= 0
        out = np.zeros(len(xs), bool)
        out[ok] = xs[ok] <= self._hi[idx[ok]]
        return out

    def intersect_interval(self, a, b) -> list:
        """Exact intersection with [a, b] as a list of rational intervals."""
        a, b = _frac(a), _frac(b)
        if b < a:
            a, b = b, a
        out = []
        for lo, hi in self.intervals:
            lo2, hi2 = max(lo, a), min(hi, b)
            if lo2 <= hi2:
                out.append((lo2, hi2))
        return out

    def intersects_interval(self, a, b) -> bool:
        return bool(self.intersect_interval(a, b))

    def bbox(self):
        if not self.intervals:
            return np.zeros(1), np.zeros(1)
        return (np.array([float(self.intervals[0][0])]),
                np.array([float(self.intervals[-1][1])]))

    def intersects_intervals_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Float interval-stabbing: does [a_i, b_i] meet the union?"""
        if len(self._lo) == 0:
            return np.zeros(len(a), bool)
        i0 = np.searchsorted(self._hi, a, side="left")
        ok = i0 < len(self._lo)
        out = np.zeros(len(a), bool)
        out[ok] = self._lo[i0[ok]] <= b[ok]
        return out

    def intersects_boxes_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self.intersects_intervals_batch(np.atleast_2d(lo)[:, 0],
                                               np.atleast_2d(hi)[:, 0])

    def components(self):
        return [float(b - a) for a, b in self.intervals]

    def is_finite_point_set(self) -> bool:
        return all(a == b for a, b in self.intervals)

    @staticmethod
    def points(xs) -> "IntervalUnionSet":
        return IntervalUnionSet([(x, x) for x in xs], limit_measure_zero=True)


@dataclass(frozen=True)
class CantorSpec:
    """Cantor construction: per-level removed middle fractions, finite depth."""

    base: tuple = (Fraction(0), Fraction(1))
    fractions: tuple = (Fraction(1, 3),)
    depth: int = 6
    limit_measure_zero: bool | None = None

    def fraction_at(self, level: int) -> Fraction:
        f = self.fractions[min(level, len(self.fractions) - 1)]
        return _frac(f)

    def expected_measure(self) -> Fraction:
        length = _frac(self.base[1]) - _frac(self.base[0])
        for k in range(self.depth):
            length *= (1 - self.fraction_at(k))
        return length

    def infer_limit_zero(self) -> bool:
        if self.limit_measure_zero is not None:
            return self.limit_measure_zero
        # constant removed fraction: the infinite product (1-f)^k vanishes
        return len(self.fractions) == 1 and self.fractions[0] > 0

    @staticmethod
    def middle_thirds(depth: int) -> "CantorSpec":
        return CantorSpec(depth=depth, limit_measure_zero=True)

    @staticmethod
    def fat(depth: int, base: int = 4) -> "CantorSpec":
        """Removed fractions base**-k, k = 1..depth: positive limit measure."""
        fr = tuple(Fraction(1, base ** k) for k in range(1, depth + 1))
        return CantorSpec(fractions=fr, depth=depth, limit_measure_zero=False)


def make_cantor(spec: CantorSpec) -> IntervalUnionSet:
    """Exact interval-union representation of the construction at its depth."""
    a, b = _frac(spec.base[0]), _frac(spec.base[1])
    if b <= a:
        raise DomainError("cantor base interval must be nondegenerate")
    iv = [(a, b)]
    for k in range(spec.depth):
        f = spec.fraction_at(k)
        if not 0 < f < 1:
            raise DomainError("removed fractions must lie in (0, 1)")
        keep = (1 - f) / 2
        nxt = []
        for lo, hi in iv:
            length = hi - lo
            nxt.append((lo, lo + keep * length))
            nxt.append((hi - keep * length, hi))
        iv = nxt
    out = IntervalUnionSet(iv, limit_measure_zero=spec.infer_limit_zero())
    assert out.measure() == spec.expected_measure()
    return out


# ---------------------------------------------------------------------------
# Products of linear sets


@dataclass
class ProductSet:
    """Cartesian product G x F of two linear sets, embedded in the plane."""

    gx: IntervalUnionSet
    fy: IntervalUnionSet
    dim = 2

    def bbox(self):
        (gl, gh), (fl, fh) = self.gx.bbox(), self.fy.bbox()
        return np.array([gl[0], fl[0]]), np.array([gh[0], fh[0]])

    def intersects_boxes_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return (self.gx.intersects_intervals_batch(lo[:, 0], hi[:, 0])
                & self.fy.intersects_intervals_batch(lo[:, 1], hi[:, 1]))

    def raster_mask(self, scene: GridScene) -> np.ndarray:
        """Cells of a 2D scene whose closed box meets the product set."""
        if scene.dim != 2:
            raise DomainError("product sets live in the plane")
        h, (ox, oy) = scene.spacing, scene.origin
        nx, ny = scene.shape
        xs_lo = ox + np.arange(nx) * h
        ys_lo = oy + np.arange(ny) * h
        col = np.array([self.gx.intersects_interval(x, x + h) for x in xs_lo])
        row = np.array([self.fy.intersects_interval(y, y + h) for y in ys_lo])
        return np.outer(col, row)

    def count_segment_hits_batch(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Hits of each segment on G x F for a finite point set F (float
        path): one per crossing of a row of F inside G, inf for a segment
        lying in a row."""
        if not self.fy.is_finite_point_set():
            raise DomainError("segment counts need a product whose second "
                              "factor is a finite point set")
        starts = np.atleast_2d(np.asarray(starts, float))
        ends = np.atleast_2d(np.asarray(ends, float))
        counts = np.zeros(len(starts), float)
        ys = np.array([float(a) for a, _ in self.fy.intervals])
        dy = ends[:, 1] - starts[:, 1]
        for y0 in ys:
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (y0 - starts[:, 1]) / dy
            on = (dy != 0) & (t >= 0) & (t <= 1)
            xs = starts[on, 0] + t[on] * (ends[on, 0] - starts[on, 0])
            counts[on] += self.gx.contains_float_batch(xs)
            flat = (dy == 0) & (np.abs(starts[:, 1] - y0) < 1e-15)
            counts[flat] += np.inf
        return counts


def product_set(g: IntervalUnionSet, f: IntervalUnionSet) -> ProductSet:
    if g.dim != 1 or f.dim != 1:
        raise DomainError("product_set expects two linear sets")
    return ProductSet(g, f)


def interval_set(a, b) -> IntervalUnionSet:
    return IntervalUnionSet([(a, b)], limit_measure_zero=False)


# ---------------------------------------------------------------------------
# Primitive unions (segments, points, circles)


@dataclass(frozen=True)
class Segment:
    a: tuple
    b: tuple


@dataclass(frozen=True)
class PointPrim:
    p: tuple


@dataclass(frozen=True)
class CirclePrim:
    center: tuple
    radius: float


@dataclass
class PrimitiveUnionSet:
    """Union of segments, points and circles in the plane."""

    primitives: list
    dim = 2

    def bbox(self):
        los, his = [], []
        for pr in self.primitives:
            if isinstance(pr, Segment):
                pts = np.array([pr.a, pr.b], float)
            elif isinstance(pr, PointPrim):
                pts = np.array([pr.p], float)
            else:
                c = np.asarray(pr.center, float)
                pts = np.array([c - pr.radius, c + pr.radius])
            los.append(pts.min(axis=0))
            his.append(pts.max(axis=0))
        return np.min(los, axis=0), np.max(his, axis=0)

    def h_n1_measure(self) -> float:
        total = 0.0
        for pr in self.primitives:
            if isinstance(pr, Segment):
                total += float(np.linalg.norm(np.subtract(pr.b, pr.a)))
            elif isinstance(pr, CirclePrim):
                total += 2 * math.pi * pr.radius
        return total

    def count_segment_hits_batch(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        starts = np.atleast_2d(np.asarray(starts, float))
        ends = np.atleast_2d(np.asarray(ends, float))
        counts = np.zeros(len(starts), float)
        for pr in self.primitives:
            if isinstance(pr, Segment):
                counts += _seg_seg_hits_float(starts, ends,
                                              np.asarray(pr.a, float),
                                              np.asarray(pr.b, float))
            elif isinstance(pr, CirclePrim):
                counts += _seg_circle_hits_float(starts, ends,
                                                 np.asarray(pr.center, float),
                                                 pr.radius)
            else:
                counts += _seg_point_hits_float(starts, ends, np.asarray(pr.p, float))
        return counts


def _seg_seg_hits_float(starts, ends, a, b):
    """1 per crossing or touch; inf for a positive-length collinear overlap."""
    d1 = ends - starts
    d2 = b - a
    rxs = d1[:, 0] * d2[1] - d1[:, 1] * d2[0]
    qp = a[None] - starts
    qpxr = qp[:, 0] * d1[:, 1] - qp[:, 1] * d1[:, 0]
    out = np.zeros(len(starts), float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qp[:, 0] * d2[1] - qp[:, 1] * d2[0]) / rxs
        s = qpxr / rxs
    cross = (rxs != 0) & (t >= 0) & (t <= 1) & (s >= 0) & (s <= 1)
    out[cross] = 1.0
    col = (rxs == 0) & (qpxr == 0)
    if col.any():
        axis = int(np.argmax(np.abs(d2)))
        lo1 = np.minimum(starts[col, axis], ends[col, axis])
        hi1 = np.maximum(starts[col, axis], ends[col, axis])
        lo2, hi2 = min(a[axis], b[axis]), max(a[axis], b[axis])
        ov = np.minimum(hi1, hi2) - np.maximum(lo1, lo2)
        sub = np.zeros(int(col.sum()), float)
        sub[ov > 0] = np.inf
        sub[ov == 0] = 1.0
        out[col] = sub
    return out


def _seg_circle_hits_float(starts, ends, c, r):
    d = ends - starts
    f = starts - c[None]
    A = (d ** 2).sum(1)
    B = 2 * (f * d).sum(1)
    C = (f ** 2).sum(1) - r * r
    disc = B * B - 4 * A * C
    out = np.zeros(len(starts), float)
    ok = (disc >= 0) & (A > 0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-B - sq) / (2 * A)
        t2 = (-B + sq) / (2 * A)
    out += (ok & (t1 >= 0) & (t1 <= 1)).astype(float)
    out += (ok & (disc > 0) & (t2 >= 0) & (t2 <= 1)).astype(float)
    return out


def _seg_point_hits_float(starts, ends, p):
    d = ends - starts
    q = p[None] - starts
    cross = d[:, 0] * q[:, 1] - d[:, 1] * q[:, 0]
    dot = (q * d).sum(1)
    L2 = (d ** 2).sum(1)
    on = (cross == 0) & (dot >= 0) & (dot <= L2)
    return on.astype(float)


# ---------------------------------------------------------------------------
# NED/CNED probe


def raster_mask(E, scene: GridScene) -> np.ndarray:
    """Cells of the scene whose closed box meets E (supercover raster).

    Callers go through this module-level name, which ``perfbench`` traces as
    its own layer.
    """
    return E.raster_mask(scene)


def circle_obstacle_mask(scene: GridScene, center, radius: float) -> np.ndarray:
    """Cells whose closed box meets the circle |x - center| = radius."""
    h = scene.spacing
    idx = np.indices(scene.shape).astype(float)
    lo = scene.origin[:, None, None] + idx * h
    c = np.asarray(center, float)[:, None, None]
    ax = np.abs(lo + h / 2 - c)
    dmin = np.sqrt((np.maximum(ax - h / 2, 0) ** 2).sum(0))
    dmax = np.sqrt(((ax + h / 2) ** 2).sum(0))
    return (dmin <= radius) & (dmax >= radius)


def cned_probe(mask: np.ndarray, scene: GridScene, budgets: Sequence[int]) -> dict:
    """Constrained-modulus signature of the obstacle raster ``mask``.

    Certifies the Dirichlet candidates of the scene (with the obstacle, and
    without it when a path still joins the marked sets) on one
    ``ModulusProblem``: unconstrained, under avoidance of E, and under
    crossing budgets K, keeping the least energy in each mode.  Every mode
    sees the same pool, so the relaxation ordering
    mod_avoid <= mod_budget(K) <= mod_budget(K+1) <= mod_full
    holds structurally.  The ratios to mod_full quantify NED/CNED behavior
    at this resolution; a mode is infeasible when no candidate certifies.
    """
    flags = []
    if (mask & (scene.f1 | scene.f2)).any():
        flags.append("obstacle raster touches a marked continuum")

    constraints = {"full": modfam.UNCONSTRAINED,
                   "avoid": CurveConstraint("avoid", mask)}
    for K in budgets:
        constraints[f"budget({K})"] = CurveConstraint("budget", mask, K)

    pool = modfam.dirichlet_candidates(scene, [scene.u, scene.u & ~mask])
    problem = modfam.ModulusProblem(scene)
    values, infeasible = {}, {}
    for name, cons in constraints.items():
        feasible = [v for v, ok in (certify_value(problem, rho, cons)
                                    for rho in pool) if ok]
        values[name], infeasible[name] = min(feasible, default=0.0), not feasible
    full = values["full"]
    out = {
        "mod_full": full,
        "mod_avoid": values["avoid"],
        "mod_budget": {K: values[f"budget({K})"] for K in budgets},
        "infeasible": infeasible,
        "flags": flags,
    }
    if full > 0:
        out["avoid_ratio"] = values["avoid"] / full
        out["budget_ratios"] = {K: values[f"budget({K})"] / full for K in budgets}
    return out


def certify_value(problem: modfam.ModulusProblem, rho_grid: np.ndarray,
                  constraint=modfam.UNCONSTRAINED) -> tuple[float, bool]:
    """Energy of rho normalized to admissibility under the constraint."""
    value = problem.certify(rho_grid, constraint)[0]
    return (value, True) if math.isfinite(value) else (0.0, False)
