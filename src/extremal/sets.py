"""Canonical set constructions and set-curve interaction.

Cantor sets, products, packing residuals, exact intersection classification,
and the constrained-modulus probe.  Set models carry dyadic/rational
endpoints so that the distinction between avoiding a set, meeting it finitely
often, and meeting it in positive length is decided exactly at the
represented depth; floating point only enters the Monte Carlo surveys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geom import DomainError, PolyCurve
from . import modfam
from .modfam import CurveConstraint, GridScene


class UnsupportedIntersection(NotImplementedError):
    """Raised when an exact classification is not available for a case.

    Never guesses: callers get an explicit error instead of a wrong class.
    """


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(float(x))


# ---------------------------------------------------------------------------
# 1D interval unions (Cantor-type sets, primitive unions on a line)


@dataclass
class IntervalUnionSet:
    """Finite union of closed intervals with exact rational endpoints.

    ``limit_measure_zero`` records whether the idealized construction the
    depth-limited representation stands for has zero length (e.g. the
    middle-thirds Cantor set) or positive length (a fat Cantor set); the
    intersection classifier consults it to name Cantor-type slices.
    """

    intervals: list
    limit_measure_zero: bool | None = None
    dim: int = 1

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
        self._lo = np.array([float(a) for a, _ in merged])
        self._hi = np.array([float(b) for _, b in merged])

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

    def intersects_box(self, lo, hi) -> bool:
        return self.intersects_interval(np.asarray(lo).ravel()[0],
                                        np.asarray(hi).ravel()[0])

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

    def to_json(self) -> dict:
        return {"kind": "interval_union",
                "intervals": [[str(a), str(b)] for a, b in self.intervals],
                "limit_measure_zero": self.limit_measure_zero}

    @staticmethod
    def from_json(obj) -> "IntervalUnionSet":
        iv = [(Fraction(a), Fraction(b)) for a, b in obj["intervals"]]
        return IntervalUnionSet(iv, obj.get("limit_measure_zero"))

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
    dim: int = 2

    def contains(self, p) -> bool:
        return (self.gx.contains_fraction(_frac(p[0]))
                and self.fy.contains_fraction(_frac(p[1])))

    def bbox(self):
        (gl, gh), (fl, fh) = self.gx.bbox(), self.fy.bbox()
        return np.array([gl[0], fl[0]]), np.array([gh[0], fh[0]])

    def intersects_box(self, lo, hi) -> bool:
        return (self.gx.intersects_interval(lo[0], hi[0])
                and self.fy.intersects_interval(lo[1], hi[1]))

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
        """Component counts for segments against the product (float path).

        Supported when one factor is a finite point set or the segments are
        axis-parallel; the oblique-versus-fat case has no finite count and
        raises instead of guessing.
        """
        starts = np.atleast_2d(np.asarray(starts, float))
        ends = np.atleast_2d(np.asarray(ends, float))
        counts = np.zeros(len(starts), float)
        if self.fy.is_finite_point_set():
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
        if self.gx.is_finite_point_set():
            sw = ProductSet(self.fy, self.gx)
            return sw.count_segment_hits_batch(starts[:, ::-1], ends[:, ::-1])
        raise UnsupportedIntersection(
            "oblique counting against a two-dimensionally fat product")

    def to_json(self) -> dict:
        return {"kind": "product", "gx": self.gx.to_json(), "fy": self.fy.to_json()}


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
    """Union of geometric primitives with exact per-segment intersection."""

    primitives: list
    dim: int = 2

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

    def contains(self, p) -> bool:
        p = tuple(_frac(v) for v in np.asarray(p, float))
        for pr in self.primitives:
            if isinstance(pr, PointPrim):
                if all(_frac(a) == b for a, b in zip(pr.p, p)):
                    return True
            elif isinstance(pr, Segment):
                aa = tuple(_frac(v) for v in pr.a)
                bb = tuple(_frac(v) for v in pr.b)
                d = (bb[0] - aa[0], bb[1] - aa[1])
                q = (p[0] - aa[0], p[1] - aa[1])
                if d[0] * q[1] - d[1] * q[0] == 0:
                    dot = q[0] * d[0] + q[1] * d[1]
                    if 0 <= dot <= d[0] ** 2 + d[1] ** 2:
                        return True
        return False

    def intersects_box(self, lo, hi) -> bool:
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        for pr in self.primitives:
            if isinstance(pr, PointPrim):
                p = np.asarray(pr.p, float)
                if np.all(p >= lo) and np.all(p <= hi):
                    return True
            elif isinstance(pr, Segment):
                if _segment_hits_box_float(np.asarray(pr.a, float),
                                           np.asarray(pr.b, float), lo, hi):
                    return True
            else:
                c = np.asarray(pr.center, float)
                dmin = float(np.linalg.norm(np.maximum(lo - c, 0) + np.maximum(c - hi, 0)))
                dmax = float(np.linalg.norm(np.maximum(np.abs(lo - c), np.abs(hi - c))))
                if dmin <= pr.radius <= dmax:
                    return True
        return False

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

    def to_json(self) -> dict:
        out = []
        for pr in self.primitives:
            if isinstance(pr, Segment):
                out.append({"segment": [list(pr.a), list(pr.b)]})
            elif isinstance(pr, PointPrim):
                out.append({"point": list(pr.p)})
            else:
                out.append({"circle": [list(pr.center), pr.radius]})
        return {"kind": "primitive_union", "primitives": out}


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


def _segment_hits_box_float(a, b, lo, hi) -> bool:
    t0, t1 = 0.0, 1.0
    d = b - a
    for ax in range(len(a)):
        if d[ax] == 0:
            if a[ax] < lo[ax] or a[ax] > hi[ax]:
                return False
            continue
        ta = (lo[ax] - a[ax]) / d[ax]
        tb = (hi[ax] - a[ax]) / d[ax]
        ta, tb = min(ta, tb), max(ta, tb)
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return False
    return True


def _segment_segment_exact(p, q, a, b):
    """Exact intersection of [p,q] with [a,b] in the plane.

    Returns (point_params, overlap_intervals) as Fractions along [p, q].
    """
    p = tuple(_frac(v) for v in p)
    q = tuple(_frac(v) for v in q)
    a = tuple(_frac(v) for v in a)
    b = tuple(_frac(v) for v in b)
    d1 = (q[0] - p[0], q[1] - p[1])
    d2 = (b[0] - a[0], b[1] - a[1])
    rxs = d1[0] * d2[1] - d1[1] * d2[0]
    qp = (a[0] - p[0], a[1] - p[1])
    qpxr = qp[0] * d1[1] - qp[1] * d1[0]
    pts, ivs = [], []
    if rxs != 0:
        t = (qp[0] * d2[1] - qp[1] * d2[0]) / rxs
        s = qpxr / rxs
        if 0 <= t <= 1 and 0 <= s <= 1:
            pts.append(t)
        return pts, ivs
    if qpxr != 0:
        return pts, ivs
    L2 = d1[0] ** 2 + d1[1] ** 2
    if L2 == 0:
        M2 = d2[0] ** 2 + d2[1] ** 2
        if M2 == 0:
            if p == a:
                pts.append(Fraction(0))
            return pts, ivs
        s = ((p[0] - a[0]) * d2[0] + (p[1] - a[1]) * d2[1]) / M2
        if 0 <= s <= 1:
            pts.append(Fraction(0))
        return pts, ivs
    ta = ((a[0] - p[0]) * d1[0] + (a[1] - p[1]) * d1[1]) / L2
    tb = ((b[0] - p[0]) * d1[0] + (b[1] - p[1]) * d1[1]) / L2
    lo, hi = min(ta, tb), max(ta, tb)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo < hi:
        ivs.append((lo, hi))
    elif lo == hi:
        pts.append(lo)
    return pts, ivs


# ---------------------------------------------------------------------------
# Packing residuals


@dataclass(frozen=True)
class BoxRegion:
    lo: tuple
    hi: tuple

    def area(self) -> Fraction:
        return ((_frac(self.hi[0]) - _frac(self.lo[0]))
                * (_frac(self.hi[1]) - _frac(self.lo[1])))

    def contains_open(self, p) -> bool:
        return all(_frac(self.lo[i]) < _frac(p[i]) < _frac(self.hi[i]) for i in range(2))

    def contains_closed(self, p) -> bool:
        return all(_frac(self.lo[i]) <= _frac(p[i]) <= _frac(self.hi[i]) for i in range(2))

    def edges(self):
        (x0, y0), (x1, y1) = self.lo, self.hi
        return [((x0, y0), (x1, y0)), ((x1, y0), (x1, y1)),
                ((x1, y1), (x0, y1)), ((x0, y1), (x0, y0))]

    def clip_params(self, p, q):
        """Exact parameter interval of [p,q] inside the closed box."""
        t0, t1 = Fraction(0), Fraction(1)
        p = tuple(_frac(v) for v in p)
        q = tuple(_frac(v) for v in q)
        for ax in range(2):
            d = q[ax] - p[ax]
            lo, hi = _frac(self.lo[ax]), _frac(self.hi[ax])
            if d == 0:
                if p[ax] < lo or p[ax] > hi:
                    return None
                continue
            ta, tb = (lo - p[ax]) / d, (hi - p[ax]) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
            if t0 > t1:
                return None
        return (t0, t1)


@dataclass(frozen=True)
class TriangleRegion:
    v0: tuple
    v1: tuple
    v2: tuple

    def _verts(self):
        return [tuple(_frac(c) for c in v) for v in (self.v0, self.v1, self.v2)]

    def area(self) -> Fraction:
        (x0, y0), (x1, y1), (x2, y2) = self._verts()
        return abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2

    def _signs(self, p):
        p = tuple(_frac(v) for v in p)
        vs = self._verts()
        out = []
        for i in range(3):
            a, b = vs[i], vs[(i + 1) % 3]
            out.append((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]))
        return out

    def contains_open(self, p) -> bool:
        s = self._signs(p)
        return all(v > 0 for v in s) or all(v < 0 for v in s)

    def contains_closed(self, p) -> bool:
        s = self._signs(p)
        return all(v >= 0 for v in s) or all(v <= 0 for v in s)

    def edges(self):
        vs = [self.v0, self.v1, self.v2]
        return [(vs[i], vs[(i + 1) % 3]) for i in range(3)]

    def clip_params(self, p, q):
        """Exact parameter interval of [p,q] inside the closed triangle."""
        p = tuple(_frac(v) for v in p)
        q = tuple(_frac(v) for v in q)
        t0, t1 = Fraction(0), Fraction(1)
        vs = self._verts()
        (x0, y0), (x1, y1), (x2, y2) = vs
        orient = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if orient == 0:
            return None
        for i in range(3):
            a, b = vs[i], vs[(i + 1) % 3]
            nx, ny = (b[1] - a[1]), -(b[0] - a[0])
            if orient < 0:
                nx, ny = -nx, -ny
            fp = nx * (p[0] - a[0]) + ny * (p[1] - a[1])
            fq = nx * (q[0] - a[0]) + ny * (q[1] - a[1])
            d = fq - fp
            if d == 0:
                if fp > 0:
                    return None
                continue
            t_cross = -fp / d
            if d > 0:
                t1 = min(t1, t_cross)
            else:
                t0 = max(t0, t_cross)
            if t0 > t1:
                return None
        return (t0, t1)


@dataclass
class PackingSpec:
    """Outer region with packed, pairwise disjoint open subregions."""

    outer: object
    packed: list
    boundary_intersection_bound: int = 0

    def validate(self) -> None:
        for i, d in enumerate(self.packed):
            for v in _region_vertices(d):
                if not self.outer.contains_closed(v):
                    raise DomainError(f"packed region {i} leaves the outer region")
        for i in range(len(self.packed)):
            for j in range(i + 1, len(self.packed)):
                if _regions_overlap(self.packed[i], self.packed[j]):
                    raise DomainError(f"packed regions {i}, {j} overlap")


def _region_vertices(region):
    if isinstance(region, BoxRegion):
        (x0, y0), (x1, y1) = region.lo, region.hi
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    return [region.v0, region.v1, region.v2]


def _regions_overlap(r1, r2) -> bool:
    """Open-interior overlap, decided by exact vertex and edge-midpoint tests."""
    for v in _region_vertices(r1):
        if r2.contains_open(v):
            return True
    for v in _region_vertices(r2):
        if r1.contains_open(v):
            return True
    for (a, b) in r1.edges():
        clip = r2.clip_params(a, b)
        if clip is not None and clip[1] > clip[0]:
            tm = (clip[0] + clip[1]) / 2
            mid = tuple(_frac(a[i]) + tm * (_frac(b[i]) - _frac(a[i])) for i in range(2))
            if r2.contains_open(mid):
                return True
    return False


@dataclass
class PackingResidualSet:
    """closure(outer) minus the packed open regions."""

    spec: PackingSpec
    dim: int = 2

    def contains(self, p) -> bool:
        if not self.spec.outer.contains_closed(p):
            return False
        return not any(d.contains_open(p) for d in self.spec.packed)

    def residual_area(self) -> Fraction:
        return self.spec.outer.area() - sum((d.area() for d in self.spec.packed),
                                            Fraction(0))

    def bbox(self):
        vs = np.array([[float(_frac(c)) for c in v]
                       for v in _region_vertices(self.spec.outer)])
        return vs.min(axis=0), vs.max(axis=0)

    def intersects_box(self, lo, hi) -> bool:
        box = BoxRegion(tuple(lo), tuple(hi))
        touches = any(box.contains_closed(v)
                      for v in _region_vertices(self.spec.outer))
        if not touches:
            center = tuple((_frac(lo[i]) + _frac(hi[i])) / 2 for i in range(2))
            if not self.spec.outer.contains_closed(center):
                if not any(self.spec.outer.clip_params(a, b) for a, b in box.edges()):
                    return False
        for d in self.spec.packed:
            if all(d.contains_open(v) for v in _region_vertices(box)):
                return False
        return True

    def intersects_boxes_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized over query boxes when all regions are axis boxes."""
        regs = [self.spec.outer, *self.spec.packed]
        if not all(isinstance(r, BoxRegion) for r in regs):
            return np.array([self.intersects_box(l, h) for l, h in zip(lo, hi)])
        olo = np.array([float(_frac(c)) for c in self.spec.outer.lo])
        ohi = np.array([float(_frac(c)) for c in self.spec.outer.hi])
        out = np.all(hi >= olo, axis=1) & np.all(lo <= ohi, axis=1)
        for d in self.spec.packed:
            plo = np.array([float(_frac(c)) for c in d.lo])
            phi = np.array([float(_frac(c)) for c in d.hi])
            swallowed = np.all(lo > plo, axis=1) & np.all(hi < phi, axis=1)
            out &= ~swallowed
        return out

    def segment_leftover(self, p, q):
        """Exact parameter intervals/points of [p,q] in the residual."""
        clip = self.spec.outer.clip_params(p, q)
        if clip is None:
            return [], []
        intervals = [clip]
        for d in self.spec.packed:
            cut = d.clip_params(p, q)
            if cut is None:
                continue
            c0, c1 = cut
            nxt = []
            for (a0, a1) in intervals:
                if c1 <= a0 or c0 >= a1:
                    nxt.append((a0, a1))
                    continue
                if a0 < c0:
                    nxt.append((a0, min(c0, a1)))
                if c1 < a1:
                    nxt.append((max(c1, a0), a1))
            intervals = nxt
        pts = [a for (a, b) in intervals if a == b]
        ivs = [(a, b) for (a, b) in intervals if b > a]
        return pts, ivs

    def to_json(self) -> dict:
        def enc(r):
            if isinstance(r, BoxRegion):
                return {"box": [list(map(float, r.lo)), list(map(float, r.hi))]}
            return {"triangle": [list(map(float, r.v0)), list(map(float, r.v1)),
                                 list(map(float, r.v2))]}
        return {"kind": "packing_residual", "outer": enc(self.spec.outer),
                "packed": [enc(d) for d in self.spec.packed],
                "boundary_intersection_bound": self.spec.boundary_intersection_bound}


def packing_residual(spec: PackingSpec) -> PackingResidualSet:
    spec.validate()
    return PackingResidualSet(spec)


def sierpinski_carpet_spec(generations: int) -> PackingSpec:
    """Removed middle-ninth squares of the unit square, exact coordinates."""
    outer = BoxRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    packed = []

    def recurse(x0, y0, size, gen):
        third = size / 3
        packed.append(BoxRegion((x0 + third, y0 + third),
                                (x0 + 2 * third, y0 + 2 * third)))
        if gen > 1:
            for i in range(3):
                for j in range(3):
                    if i == j == 1:
                        continue
                    recurse(x0 + i * third, y0 + j * third, third, gen - 1)

    recurse(Fraction(0), Fraction(0), Fraction(1), generations)
    return PackingSpec(outer, packed, boundary_intersection_bound=0)


def gasket_spec(generations: int) -> PackingSpec:
    """Right-triangle gasket: removed open medial triangles, exact coordinates."""
    packed = []

    def mid(a, b):
        return ((_frac(a[0]) + _frac(b[0])) / 2, (_frac(a[1]) + _frac(b[1])) / 2)

    def recurse(v0, v1, v2, gen):
        m01, m12, m20 = mid(v0, v1), mid(v1, v2), mid(v2, v0)
        packed.append(TriangleRegion(m01, m12, m20))
        if gen > 1:
            recurse(v0, m01, m20, gen - 1)
            recurse(m01, v1, m12, gen - 1)
            recurse(m20, m12, v2, gen - 1)

    outer = TriangleRegion((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                           (Fraction(0), Fraction(1)))
    recurse((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)), generations)
    return PackingSpec(outer, packed, boundary_intersection_bound=3 ** generations)


# ---------------------------------------------------------------------------
# Intersection classification


@dataclass
class IntersectionClass:
    kind: str           # empty | finite | infinite-nulllength | positive-length
    count: int | None = None
    detail: list = field(default_factory=list)


def curve_intersection_class(E, curve: PolyCurve) -> IntersectionClass:
    """Exact classification of |curve| cap E at the represented depth.

    "positive-length" means the 1-measure of the intersection is exactly
    positive; "infinite-nulllength" marks Cantor-type slices whose idealized
    construction has zero length.  Cases without an exact routine raise
    UnsupportedIntersection rather than return a wrong class.
    """
    kinds = []
    points = set()
    detail = []
    for a, b in curve.segments():
        k, pts, note = _classify_segment(E, a, b)
        for _, pt in pts:
            points.add(pt)
        kinds.append(k)
        detail.append({"segment": [list(map(float, a)), list(map(float, b))],
                       "class": k, "note": note})
    if "positive-length" in kinds:
        return IntersectionClass("positive-length", None, detail)
    if "infinite-nulllength" in kinds:
        return IntersectionClass("infinite-nulllength", None, detail)
    if points:
        return IntersectionClass("finite", len(points), detail)
    return IntersectionClass("empty", 0, detail)


def _classify_segment(E, a, b):
    if isinstance(E, ProductSet):
        return _classify_product_segment(E, a, b)
    if isinstance(E, PackingResidualSet):
        pts, ivs = E.segment_leftover(tuple(a), tuple(b))
        if ivs:
            return "positive-length", [], "interval overlap"
        return ("finite" if pts else "empty",
                [(t, _param_point(a, b, t)) for t in pts], "points")
    if isinstance(E, PrimitiveUnionSet):
        pts = []
        for pr in E.primitives:
            if isinstance(pr, Segment):
                ps, ivs = _segment_segment_exact(tuple(a), tuple(b), pr.a, pr.b)
                if ivs:
                    return "positive-length", [], "collinear overlap"
                pts.extend(ps)
            elif isinstance(pr, PointPrim):
                p = tuple(_frac(v) for v in pr.p)
                aa = tuple(_frac(v) for v in a)
                bb = tuple(_frac(v) for v in b)
                d = (bb[0] - aa[0], bb[1] - aa[1])
                q = (p[0] - aa[0], p[1] - aa[1])
                cr = d[0] * q[1] - d[1] * q[0]
                L2 = d[0] * d[0] + d[1] * d[1]
                dot = q[0] * d[0] + q[1] * d[1]
                if cr == 0 and 0 <= dot <= L2:
                    pts.append(dot / L2 if L2 else Fraction(0))
            else:
                raise UnsupportedIntersection(
                    f"exact classification against {type(pr).__name__}")
        return ("finite" if pts else "empty",
                [(t, _param_point(a, b, t)) for t in pts], "primitives")
    raise UnsupportedIntersection(f"no exact routine for {type(E).__name__}")


def _classify_product_segment(E: ProductSet, a, b):
    ax, ay = _frac(a[0]), _frac(a[1])
    bx, by = _frac(b[0]), _frac(b[1])
    if ax == bx:
        if not E.gx.contains_fraction(ax):
            return "empty", [], "abscissa misses G"
        hits = E.fy.intersect_interval(min(ay, by), max(ay, by))
        return _linear_hits_class(E.fy, hits, a, b, axis=1)
    if ay == by:
        if not E.fy.contains_fraction(ay):
            return "empty", [], "ordinate misses F"
        hits = E.gx.intersect_interval(min(ax, bx), max(ax, bx))
        return _linear_hits_class(E.gx, hits, a, b, axis=0)
    raise UnsupportedIntersection("oblique segment against a product set")


def _linear_hits_class(factor: IntervalUnionSet, hits, a, b, axis):
    if not hits:
        return "empty", [], "gap"
    if any(hi > lo for lo, hi in hits):
        if factor.limit_measure_zero:
            return "infinite-nulllength", [], "Cantor-type slice"
        return "positive-length", [], "fat slice"
    pts = []
    a_ax, b_ax = _frac(a[axis]), _frac(b[axis])
    for lo, _ in hits:
        t = (lo - a_ax) / (b_ax - a_ax) if b_ax != a_ax else Fraction(0)
        pts.append((t, _param_point(a, b, t)))
    return "finite", pts, "isolated points"


def _param_point(a, b, t):
    return (float(a[0]) + float(t) * (float(b[0]) - float(a[0])),
            float(a[1]) + float(t) * (float(b[1]) - float(a[1])))


# ---------------------------------------------------------------------------
# NED/CNED probe


def raster_mask(E, scene: GridScene) -> np.ndarray:
    """Cells of the scene whose closed box meets E (supercover raster)."""
    own = getattr(E, "raster_mask", None)
    if callable(own):
        return own(scene)
    h = scene.spacing
    mask = np.zeros(scene.shape, bool)
    elo, ehi = E.bbox()
    for cell in np.argwhere(scene.u):
        lo = scene.origin + cell * h
        hi = lo + h
        if np.any(hi < elo) or np.any(lo > ehi):
            continue
        if E.intersects_box(lo, hi):
            mask[tuple(cell)] = True
    return mask


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


def cned_probe(E_or_mask, scene: GridScene, budgets: Sequence[int]) -> dict:
    """Constrained-modulus signature of a set at grid scale.

    Certifies the Dirichlet candidates of the scene (with the obstacle, and
    without it when a path still joins the marked sets) on one
    ``ModulusProblem``: unconstrained, under avoidance of E, and under
    crossing budgets K, keeping the least energy in each mode.  Every mode
    sees the same pool, so the relaxation ordering
    mod_avoid <= mod_budget(K) <= mod_budget(K+1) <= mod_full
    holds structurally.  The ratios to mod_full quantify NED/CNED behavior
    at this resolution; a mode is infeasible when no candidate certifies.
    """
    if isinstance(E_or_mask, np.ndarray):
        mask = E_or_mask.astype(bool)
    else:
        mask = raster_mask(E_or_mask, scene)
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
