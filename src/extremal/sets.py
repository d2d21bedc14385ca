"""Canonical set constructions and set-curve interaction.

Cantor sets, their products, unions of segments, points and circles, and the
constrained-modulus probe.  A linear set stores its endpoints exactly, as
Python-int numerators over one common denominator; every query compares
floats with the endpoints rounded outward, which decides it exactly.
Floating point only enters the Monte Carlo surveys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geom import DomainError
from . import modfam
from .modfam import CurveConstraint, GridScene

MAX_CANTOR_DEPTH = 16      # make_cantor builds 2**depth exact intervals


def _round_float(num: int, den: int, up: bool) -> float:
    """The least float >= num/den (up) or the greatest float <= num/den
    (down), for den > 0."""
    f = num / den       # int true division rounds correctly
    n, d = f.as_integer_ratio()
    if (n * den < num * d) if up else (n * den > num * d):
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


# ---------------------------------------------------------------------------
# 1D interval unions (Cantor-type sets, primitive unions on a line)


@dataclass
class IntervalUnionSet:
    """Finite union of the closed intervals [lo/den, hi/den] for sorted,
    disjoint int pairs (lo, hi)."""

    intervals: list
    den: int
    dim = 1

    def __post_init__(self):
        # a float lies in [a, b] exactly when it lies between the least float
        # >= a and the greatest float <= b, so the float queries are exact;
        # both arrays ascend, so the first _hi >= a decides if [a, b] meets E
        self._lo = np.array([_round_float(a, self.den, True) for a, _ in self.intervals])
        self._hi = np.array([_round_float(b, self.den, False) for _, b in self.intervals])

    @staticmethod
    def of(pairs) -> "IntervalUnionSet":
        """The union of the closed intervals [a, b] with int or float ends,
        exactly: each end is scaled to the lcm of their denominators."""
        ratios = [(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in pairs]
        den = math.lcm(*(d for ab in ratios for _, d in ab))
        merged = []
        for a, b in sorted(tuple(n * (den // d) for n, d in ab) for ab in ratios):
            if b < a:
                raise DomainError("interval endpoints out of order")
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return IntervalUnionSet(merged, den)

    def contains_float_batch(self, xs: np.ndarray) -> np.ndarray:
        return self.intersects_intervals_batch(xs, xs)

    def bbox(self):
        if not self.intervals:
            return np.zeros(1), np.zeros(1)
        return (np.array([self.intervals[0][0] / self.den]),
                np.array([self.intervals[-1][1] / self.den]))

    def intersects_intervals_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Float interval-stabbing: does [a_i, b_i] meet the union?"""
        i0 = np.searchsorted(self._hi, a, side="left")
        ok = i0 < len(self._lo)
        out = np.zeros(len(a), bool)
        out[ok] = self._lo[i0[ok]] <= b[ok]
        return out

    def intersects_boxes_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self.intersects_intervals_batch(np.atleast_2d(lo)[:, 0],
                                               np.atleast_2d(hi)[:, 0])

    def components(self):
        return [(b - a) / self.den for a, b in self.intervals]

    def is_finite_point_set(self) -> bool:
        return all(a == b for a, b in self.intervals)

    @staticmethod
    def points(xs) -> "IntervalUnionSet":
        return IntervalUnionSet.of([(x, x) for x in xs])


def make_cantor(depth: int, fat: bool) -> IntervalUnionSet:
    """The Cantor construction on [0, 1] at ``depth``, exactly.

    Level k removes the open middle 1/q of each interval, with q = 3 for the
    middle-thirds set and q = 4**(k + 1) for the fat set, whose limit has
    positive measure.
    """
    if not 0 <= depth <= MAX_CANTOR_DEPTH:
        raise DomainError(f"cantor depth {depth} outside [0, {MAX_CANTOR_DEPTH}]")
    iv, den = [(0, 1)], 1
    for k in range(depth):
        q = 4 ** (k + 1) if fat else 3
        # scaled by 2q, each interval keeps (q - 1)/(2q) of its length at
        # both ends
        iv = [piece for lo, hi in iv
              for piece in ((2 * q * lo, 2 * q * lo + (q - 1) * (hi - lo)),
                            (2 * q * hi - (q - 1) * (hi - lo), 2 * q * hi))]
        den *= 2 * q
    return IntervalUnionSet(iv, den)


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
        return np.outer(self.gx.intersects_intervals_batch(xs_lo, xs_lo + h),
                        self.fy.intersects_intervals_batch(ys_lo, ys_lo + h))

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
        ys = np.array([a / self.fy.den for a, _ in self.fy.intervals])
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
    return IntervalUnionSet.of([(a, b)])


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
    """Cells of a 2D scene whose closed box meets |x - center| = radius."""
    if scene.dim != 2:
        raise DomainError("circle obstacles live in the plane")
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
    crossing budgets K, keeping the least energy in each mode.  Each
    candidate gets one unconstrained pass and one crossing sweep to the
    largest K: budget(K) reads the sweep's entry after pass K, and avoid its
    pass 0, which never enters E, with the energy taken off E.  Every mode
    sees the same pool, so the relaxation ordering
    mod_avoid <= mod_budget(K) <= mod_budget(K+1) <= mod_full
    holds structurally.  The ratios to mod_full quantify NED/CNED behavior
    at this resolution; a mode is infeasible when no candidate certifies.
    """
    flags = []
    if (mask & (scene.f1 | scene.f2)).any():
        flags.append("obstacle raster touches a marked continuum")
    # every K is checked as a budget before the first solve
    sweep = CurveConstraint("budget", mask, max(
        [CurveConstraint("budget", mask, K).budget for K in budgets], default=0))

    pool = modfam.dirichlet_candidates(scene, [scene.u, scene.u & ~mask])
    problem = modfam.ModulusProblem(scene)
    energies = {"full": [], "avoid": [], **{f"budget({K})": [] for K in budgets}}
    for rho in pool:
        w = problem.weights(rho)
        value, ok = certify_value(problem, rho, w)
        energies["full"].append(value if ok else math.inf)
        ladder = problem._distance(w, sweep)[0] or [math.inf]
        energies["avoid"].append(problem.normalize(rho, scene.u & ~mask, ladder[0])[0])
        for K in budgets:
            d = ladder[min(K, len(ladder) - 1)]
            energies[f"budget({K})"].append(problem.normalize(rho, scene.u, d)[0])
    least = {name: min(es, default=math.inf) for name, es in energies.items()}
    infeasible = {name: not math.isfinite(v) for name, v in least.items()}
    values = {name: 0.0 if infeasible[name] else v for name, v in least.items()}
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
                  w: np.ndarray) -> tuple[float, bool]:
    """Energy of rho normalized to admissibility for every path, given the
    step weights ``w`` of rho (``problem.weights(rho_grid)``)."""
    ladder = problem._distance(w)[0]
    value = problem.normalize(rho_grid, problem.scene.u,
                              ladder[-1] if ladder else math.inf)[0]
    return (value, True) if math.isfinite(value) else (0.0, False)
