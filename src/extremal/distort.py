"""Distortion functionals for sampled homeomorphisms.

Metric distortion (max/min image displacement over the circles of a radius
ladder), the eccentric-distortion estimator over uncentered candidate sets,
and the ring-modulus quasiconformality test.  The eccentric estimator
searches two candidate families, Euclidean balls and pullbacks of range
balls, so the reported number is always a certified upper estimate of the
infimum over all open sets; for anisotropic affine maps both families meet
at the singular value ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .geom import DomainError, _cloud_diameter, eccentricity_of_boundary
from .modfam import GridScene, check_scene_cells, discrete_modulus, ring_modulus_exact


# ---------------------------------------------------------------------------
# Sampled maps


class SampledMap:
    """Forward point correspondences on a regular grid, bilinear in between.

    Stores node values f(x) on an (nx+1) x (ny+1) lattice over a box; the
    Jacobian is the exact derivative of the bilinear patch of each cell, and
    the inverse is evaluated by nearest-image lookup refined with Newton steps
    on that patch.
    """

    def __init__(self, origin, pitch: float, values: np.ndarray):
        self.origin = np.asarray(origin, float)
        self.pitch = float(pitch)
        self.values = np.asarray(values, float)
        if self.values.ndim != 3 or self.values.shape[2] != 2:
            raise DomainError("sampled maps store (nx, ny, 2) node values")
        self._node_pts = self.node_points().reshape(-1, 2)
        self._img_tree = cKDTree(self.values.reshape(-1, 2))

    @staticmethod
    def from_function(f: Callable, lo, hi, pitch: float) -> "SampledMap":
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        nx = int(round((hi[0] - lo[0]) / pitch)) + 1
        ny = int(round((hi[1] - lo[1]) / pitch)) + 1
        xs = lo[0] + pitch * np.arange(nx)
        ys = lo[1] + pitch * np.arange(ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        vals = np.asarray(f(pts), float).reshape(nx, ny, 2)
        return SampledMap(lo, pitch, vals)

    @property
    def shape(self) -> tuple:
        return self.values.shape[:2]

    def node_points(self) -> np.ndarray:
        nx, ny = self.shape
        xs = self.origin[0] + self.pitch * np.arange(nx)
        ys = self.origin[1] + self.pitch * np.arange(ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([X, Y], axis=-1)

    @property
    def domain_lo(self) -> np.ndarray:
        return self.origin

    @property
    def domain_hi(self) -> np.ndarray:
        return self.origin + self.pitch * (np.array(self.shape) - 1)

    def in_domain(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.domain_lo) & (pts <= self.domain_hi), axis=1)

    def _corners(self, pts) -> tuple:
        """Cell coordinates (s, t) of each point and the node values at the
        four corners of its cell, clamped to the sampled box."""
        pts = np.atleast_2d(np.asarray(pts, float))
        rel = (pts - self.origin) / self.pitch
        nx, ny = self.shape
        i = np.clip(np.floor(rel[:, 0]).astype(int), 0, nx - 2)
        j = np.clip(np.floor(rel[:, 1]).astype(int), 0, ny - 2)
        s = np.clip(rel[:, 0] - i, 0.0, 1.0)[:, None]
        t = np.clip(rel[:, 1] - j, 0.0, 1.0)[:, None]
        return (s, t, self.values[i, j], self.values[i + 1, j],
                self.values[i, j + 1], self.values[i + 1, j + 1])

    @staticmethod
    def _value(s, t, v00, v10, v01, v11) -> np.ndarray:
        return ((1 - s) * (1 - t) * v00 + s * (1 - t) * v10
                + (1 - s) * t * v01 + s * t * v11)

    def _derivative(self, s, t, v00, v10, v01, v11) -> np.ndarray:
        """Exact (N, 2, 2) Jacobian of the bilinear patch, J[:, :, axis]."""
        return np.stack([(1 - t) * (v10 - v00) + t * (v11 - v01),
                         (1 - s) * (v01 - v00) + s * (v11 - v10)],
                        axis=2) / self.pitch

    def forward(self, pts) -> np.ndarray:
        """Bilinear interpolation of the node values."""
        return self._value(*self._corners(pts))

    def jacobian(self, pts) -> np.ndarray:
        """Jacobians (N, 2, 2) of the interpolant: the exact derivative of the
        bilinear patch of the cell that ``forward`` evaluates at each point."""
        return self._derivative(*self._corners(pts))

    def inverse(self, pts) -> np.ndarray:
        """Preimages under the interpolated map: nearest node, then 8 Newton
        steps, each taking value and exact Jacobian from one corner gather."""
        pts = np.atleast_2d(np.asarray(pts, float))
        _, nearest = self._img_tree.query(pts, k=1)
        x = self._node_pts[nearest].copy()
        for _ in range(8):
            corners = self._corners(x)
            r = self._value(*corners) - pts
            J = self._derivative(*corners)
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            det = np.where(np.abs(det) < 1e-300, 1e-300, det)
            dx = np.empty_like(x)
            dx[:, 0] = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
            dx[:, 1] = (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / det
            x = x - dx
            x = np.clip(x, self.domain_lo, self.domain_hi)
        return x

    def inverse_lipschitz(self) -> float:
        """Upper estimate of Lip(f^{-1}) from grid-edge image lengths."""
        return self._inverse_lipschitz

    @cached_property
    def _inverse_lipschitz(self) -> float:
        # one edge pass per map, on the first call; a map that is not
        # injective on its grid edges raises on every call
        dx = np.linalg.norm(np.diff(self.values, axis=0), axis=2)
        dy = np.linalg.norm(np.diff(self.values, axis=1), axis=2)
        m = min(dx.min(initial=np.inf), dy.min(initial=np.inf))
        if m <= 0:
            raise DomainError("sampled map is not injective on grid edges")
        return self.pitch / m


# ---------------------------------------------------------------------------
# Metric distortion


@dataclass
class DistortionProbe:
    big_l: list          # L_f(x, r)
    small_l: list        # l_f(x, r)
    h_estimate: float


# points sampled on each circle |y - x| = r of the radius ladder
CIRCLE_SAMPLES = 720


def metric_distortion(f: SampledMap, x, ladder) -> DistortionProbe:
    """Per-radius max/min image displacement over the circle |y - x| = r;
    limsup proxied by the two finest radii of the ladder."""
    x = np.asarray(x, float)
    ladder = sorted(float(r) for r in ladder)
    if ladder[0] < 2 * f.pitch:
        raise DomainError("smallest ladder radius must be at least two cells")
    theta = np.linspace(0, 2 * math.pi, CIRCLE_SAMPLES, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    fx = f.forward(x[None])[0]
    big, small = [], []
    for r in ladder:
        ring = x + r * circle
        if not f.in_domain(ring).all():
            raise DomainError(f"circle of radius {r} leaves the sampled domain")
        disp = np.linalg.norm(f.forward(ring) - fx, axis=1)
        big.append(float(disp.max()))
        small.append(float(disp.min()))
    ratios = [L / max(s, 1e-300) for L, s in zip(big, small)]
    h_est = max(ratios[:2]) if len(ratios) >= 2 else ratios[0]
    return DistortionProbe(big, small, h_est)


# ---------------------------------------------------------------------------
# Eccentric distortion


# nested scales r, r/2, r/4 of each candidate family, and the points sampled
# on each candidate's boundary circle
ECCENTRIC_LADDER = 3
BOUNDARY_SAMPLES = 96


def eccentric_distortion(f: SampledMap, x, r: float) -> float:
    """Upper estimate of the eccentric distortion at x and scale r.

    Minimizes max(E(A), E(f(A))) over two candidate families of open sets A
    containing x with diam(A) <= 2r: (a) Euclidean balls around x and
    (b) pullbacks of range balls around f(x).  Eccentricities of the curved
    side are estimated from mapped boundary clouds.  Estimates are
    nondecreasing as r decreases because the candidate ladder is nested.
    """
    x = np.asarray(x, float)
    lo_margin = min((x - f.domain_lo).min(), (f.domain_hi - x).min())
    if not (0 < r < lo_margin / 3):
        raise DomainError("scale must satisfy 0 < r < dist(x, boundary)/3")
    fx = f.forward(x[None])[0]
    theta = np.linspace(0, 2 * math.pi, BOUNDARY_SAMPLES, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    best = math.inf

    # (a) balls around x; image eccentricity via mapped boundary
    for k in range(ECCENTRIC_LADDER):
        s = r * 2.0 ** (-k)
        img_bnd = f.forward(x + s * circle)
        centers = f.forward(x[None] + s * 0.25 * np.vstack([[0, 0], circle[::8]]))
        best = min(best, eccentricity_of_boundary(img_bnd, centers))

    # (b) pullbacks of range balls around f(x); the boundary circle and the
    # centre probes of every level go through one inverse call (Newton steps
    # are pointwise, so each row is what a call of its own would give)
    s_img = r / max(f.inverse_lipschitz(), 1e-300)
    scales = [s_img * 2.0 ** (-k) for k in range(ECCENTRIC_LADDER)]
    levels = [np.vstack([fx + s * circle,
                         fx[None] + s * 0.25 * np.vstack([[0, 0], circle[::8]])])
              for s in scales]
    for level in np.split(f.inverse(np.vstack(levels)), len(levels)):
        dom_bnd, centers = level[:BOUNDARY_SAMPLES], level[BOUNDARY_SAMPLES:]
        if _cloud_diameter(dom_bnd) <= 2 * r:
            best = min(best, eccentricity_of_boundary(dom_bnd, centers))
    return best


# ---------------------------------------------------------------------------
# Ring-modulus quasiconformality test


def ring_qc_test(f: SampledMap, rings, c1: float, grid_n: int) -> dict:
    """Discrete modulus of the image of each ring family, against C1.

    Each ring (center, r, R) must have analytic modulus at most C1 and a
    closure inside the sampled domain.  The image family's modulus comes from
    a grid scene rasterized by inverse lookup; the maximum over rings is
    reported as C2_observed.  Rings failing preconditions get error entries
    instead of poisoning the maximum.
    """
    table = []
    c2 = 0.0
    for ring in rings:
        center, r, R = np.asarray(ring[0], float), float(ring[1]), float(ring[2])
        entry = {"center": center.tolist(), "r": r, "R": R}
        try:
            md_in = ring_modulus_exact(2, r, R)
            entry["input_modulus"] = md_in
            if md_in > c1 + 1e-12:
                raise DomainError(f"ring modulus {md_in:.4f} exceeds C1={c1}")
            pad = np.array([R, R])
            if not (f.in_domain((center - pad)[None])[0]
                    and f.in_domain((center + pad)[None])[0]):
                raise DomainError("ring closure not inside the sampled domain")
            scene = image_ring_scene(f, center, r, R, grid_n)
            res = discrete_modulus(scene)
            entry["image_modulus"] = res.value
            c2 = max(c2, res.value)
        except DomainError as exc:
            entry["error"] = str(exc)
        table.append(entry)
    return {"C2_observed": c2, "C1": c1, "table": table}


def image_ring_scene(f: SampledMap, center, r: float, R: float,
                     grid_n: int) -> GridScene:
    """Rasterize the image of a spherical ring onto a fresh grid scene."""
    center = np.asarray(center, float)
    theta = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    img_outer = f.forward(center + R * circle)
    lo = img_outer.min(axis=0)
    hi = img_outer.max(axis=0)
    pad = 0.04 * (hi - lo).max()
    lo, hi = lo - pad, hi + pad
    h = float((hi - lo).max() / grid_n)
    nx = grid_n
    ny = max(8, int(math.ceil((hi[1] - lo[1]) / h)))
    check_scene_cells([nx, ny])
    xs = lo[0] + (np.arange(nx) + 0.5) * h
    ys = lo[1] + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([X.ravel(), Y.ravel()], axis=1)
    pre = f.inverse(centers)
    rad = np.linalg.norm(pre - center, axis=1).reshape(nx, ny)
    # local band width: the image-space cell size h pulled back through the
    # smallest singular value of the local Jacobian
    J = f.jacobian(pre)
    jtj_tr = (J ** 2).sum(axis=(1, 2))
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    disc = np.sqrt(np.maximum(jtj_tr ** 2 - 4 * det ** 2, 0.0))
    smin = np.sqrt(np.maximum((jtj_tr - disc) / 2, 1e-12)).reshape(nx, ny)
    w_local = 0.75 * h / smin
    for attempt in range(4):
        f1 = np.abs(rad - r) <= w_local
        f2 = np.abs(rad - R) <= w_local
        u = ((rad > r - w_local) & (rad < R + w_local)) | f1 | f2
        try:
            return GridScene(h, lo, u, f1, f2)
        except DomainError:
            w_local = w_local * 1.6
    raise DomainError("could not rasterize connected image plates")


def linear_sampled_map(matrix, pitch: float) -> SampledMap:
    """The linear map sampled on the box [-4, 4]^2."""
    mat = np.asarray(matrix, float)
    return SampledMap.from_function(lambda p: p @ mat.T, (-4.0, -4.0), (4.0, 4.0), pitch)
