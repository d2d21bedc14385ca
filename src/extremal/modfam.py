"""Curve families on sampling grids and the discrete conformal modulus solver.

The modulus of the family of grid paths joining two marked cell sets is the
minimum of the cell energy  sum rho^p h^n  over densities admissible for every
path (8-neighbor paths in 2D, 26-neighbor in 3D).  Admissibility over all
paths collapses to the single condition that the rho-shortest-path distance
between the marked sets is at least 1, which the scene's one
``ModulusProblem`` certifies under any constraint.  It stores its steps once
in CSR order, so its search takes the step weights as they are, in that
order: one Dijkstra pass, or under a crossing budget K a sweep of at
most K + 1 passes that drops each seed an earlier pass reached no farther, so
its memory does not grow with K.  The sweep records the best distance after
each pass, so one sweep to the largest K answers every smaller budget too.
Avoiding E is its pass 0, which never enters E, with the energy off E.

``dirichlet_candidates`` gives one near-extremal density per active mask in
which a path joins the marked sets (the gradient magnitude of its capacity
potential): the solver uses the cells that carry energy, in budget mode also
the scene with the obstacle removed, certifies each through
``ModulusProblem.certify`` (scale it so its shortest constrained path has
length 1, then take its energy) and keeps the best; ``sets.cned_probe``
certifies the same pool under every constraint, with one unconstrained pass
and one sweep per candidate.  Every reported value is the energy of an
exactly admissible density, hence a certified upper estimate of the discrete
optimum.

The capacity potential solves the graph Laplacian of the face-neighbour
conductances on the free cells, in 2D and 3D and at every size, with one
solver: conjugate gradients (relative residual 1e-10) preconditioned by a
smoothed-aggregation multigrid V-cycle whose aggregates are the 3^dim boxes of
the grid.  Its memory is O(cells); a CG that does not converge warns and falls
back to a sparse LU solve.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy import ndimage
from scipy.sparse.csgraph import dijkstra, laplacian
from scipy.sparse.linalg import LinearOperator, spsolve, splu

from .geom import DomainError, PolyCurve, line_integral, translate_line_integrals


# ---------------------------------------------------------------------------
# Scene and density types


@dataclass
class GridScene:
    """Axis-aligned sampling grid with ambient mask and two marked continua."""

    spacing: float
    origin: np.ndarray
    u: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, bool)
        self.f1 = np.asarray(self.f1, bool) & self.u
        self.f2 = np.asarray(self.f2, bool) & self.u
        if self.dim not in (2, 3):
            raise DomainError("grid scenes support dimensions 2 and 3")
        if not (_is_finite_number(self.spacing) and self.spacing > 0):
            raise DomainError(f"spacing must be positive and finite, got {self.spacing!r}")
        o = self.origin
        if not (isinstance(o, (list, tuple, np.ndarray)) and len(o) == self.dim
                and all(map(_is_finite_number, o))):
            raise DomainError(f"origin must be {self.dim} finite numbers, got {o!r}")
        self.origin = np.asarray(o, float)
        if not self.f1.any() or not self.f2.any():
            raise DomainError("marked continua must be nonempty")
        if (self.f1 & self.f2).any():
            raise DomainError("marked continua must be disjoint")
        structure = np.ones((3,) * self.dim, int)
        for mask, label in ((self.f1, "F1"), (self.f2, "F2")):
            _, num = ndimage.label(mask, structure=structure)
            if num != 1:
                raise DomainError(f"{label} must be connected in the grid graph")

    @property
    def dim(self) -> int:
        return self.u.ndim

    @property
    def shape(self) -> tuple:
        return self.u.shape

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "dimension": self.dim,
            "spacing": self.spacing,
            "origin": self.origin.tolist(),
            "shape": list(self.shape),
            "masks": {k: _rle_encode(getattr(self, k)) for k in ("u", "f1", "f2")},
        }

    @staticmethod
    def from_json(obj: dict) -> "GridScene":
        """The scene of a ``to_json`` record; a malformed one raises DomainError."""
        try:
            spacing, origin, shape = obj["spacing"], obj["origin"], obj["shape"]
            runs = [obj["masks"][k] for k in ("u", "f1", "f2")]
        except (KeyError, TypeError) as exc:
            raise DomainError("a scene file is an object with spacing, origin, shape "
                              f"and masks u, f1, f2; got {exc!r}") from exc
        if not (isinstance(shape, list) and len(shape) in (2, 3)
                and all(type(n) is int and n > 0 for n in shape)):
            raise DomainError(f"scene shape must be 2 or 3 positive integers, got {shape!r}")
        check_scene_cells(shape)
        u, f1, f2 = (_rle_decode(r, tuple(shape)) for r in runs)
        return GridScene(spacing, origin, u, f1, f2)


# cells of a scene, read from a file or built, checked before its masks are
# allocated: 16 times the catalog's largest grid (512^2), so about 1.7 GB of
# solver memory at the 400 bytes per grid cell that the 512^2 annulus solve
# peaks at
MAX_SCENE_CELLS = 1 << 22


def check_scene_cells(shape: list) -> None:
    """Refuse a scene shape of more than MAX_SCENE_CELLS cells."""
    if math.prod(shape) > MAX_SCENE_CELLS:
        raise DomainError(f"scene shape {shape!r} has more than "
                          f"{MAX_SCENE_CELLS} cells")


def _is_finite_number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


def _rle_encode(mask: np.ndarray) -> list:
    edges = np.diff(np.concatenate([[0], mask.ravel().astype(np.int8), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    return np.stack([starts, ends - starts], axis=1).tolist()


def _rle_decode(runs: list, shape: tuple) -> np.ndarray:
    if not isinstance(runs, list):
        raise DomainError(f"mask runs must be a list, got {runs!r}")
    size = int(np.prod(shape))
    flat = np.zeros(size, bool)
    for run in runs:
        # JSON gives lists of ints; bool is an int subclass but no index
        if not (isinstance(run, list) and len(run) == 2
                and all(type(v) is int for v in run)):
            raise DomainError(f"mask run {run!r} is not a pair of integers")
        start, length = run
        if not (0 <= start and 0 <= length and start + length <= size):
            raise DomainError(f"mask run [{start}, {length}] does not fit "
                              f"{size} cells")
        flat[start:start + length] = True
    return flat.reshape(shape)


@dataclass
class DensityField:
    """Nonnegative per-cell density on a grid."""

    values: np.ndarray
    spacing: float
    origin: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        self.origin = np.asarray(self.origin, float)
        if (self.values < 0).any() or not np.isfinite(self.values).all():
            raise DomainError("density values must be finite and nonnegative")

    def value_at_cell(self, cell: tuple) -> float:
        if any(c < 0 or c >= s for c, s in zip(cell, self.values.shape)):
            return 0.0
        return float(self.values[cell])

    def to_csv(self, path) -> None:
        """One row per positive cell, written one slab ``values[i]`` at a
        time so that the cell lists hold one slab, not the whole field."""
        dim = self.values.ndim
        row = "%d," * dim + "%.12g\n"
        with open(path, "w") as fh:
            fh.write(",".join(f"i{k}" for k in range(dim)) + ",value\n")
            for i, slab in enumerate(self.values):
                mask = slab > 0
                # one % per slab over its (m, dim + 1) cells of Python numbers
                cols = np.empty((int(mask.sum()), dim + 1), object)
                cols[:, 0] = i
                cols[:, 1:dim] = np.argwhere(mask)
                cols[:, dim] = slab[mask]
                fh.write(row * len(cols) % tuple(cols.ravel()))


@dataclass(frozen=True)
class CurveConstraint:
    """Path constraint mode: unconstrained, avoid(E), or budget(E, K).

    ``cells`` rasterizes the obstacle set onto the scene grid.  In budget mode
    every step into an obstacle cell costs one unit (a path starting in one
    pays for it too), so crossing a wall eight cells thick costs 8; a path may
    spend at most the integer ``budget``.  This is the grid-scale surrogate
    for families meeting a set in finitely many points.  Avoid mode is budget
    0 with the energy taken off the obstacle.
    """

    mode: str = "unconstrained"
    cells: np.ndarray | None = None
    budget: int = 0

    def __post_init__(self):
        if self.mode not in ("unconstrained", "avoid", "budget"):
            raise DomainError(f"unknown constraint mode {self.mode!r}")
        if self.mode != "unconstrained" and self.cells is None:
            raise DomainError(f"{self.mode} mode needs an obstacle raster")
        if isinstance(self.budget, bool) or not isinstance(self.budget, Integral):
            raise DomainError(f"budget must be an integer, not {self.budget!r}")
        if self.budget < 0:
            raise DomainError("budget must be >= 0")

    def carrier(self, u: np.ndarray) -> np.ndarray:
        """The cells of ``u`` that carry energy: all but the obstacle in avoid
        mode, all of them otherwise."""
        return u & ~self.cells if self.mode == "avoid" else u


UNCONSTRAINED = CurveConstraint()


# ---------------------------------------------------------------------------
# Analytic reference formulas


_SPHERE_AREA = {2: 2 * math.pi, 3: 4 * math.pi}


def ring_modulus_exact(n: int, r: float, R: float) -> float:
    """Modulus of the family joining the boundary spheres of A(x; r, R)."""
    if n not in _SPHERE_AREA:
        raise DomainError("ring modulus implemented for n in {2, 3}")
    if not 0 < r < R:
        raise DomainError("need 0 < r < R")
    return _SPHERE_AREA[n] * math.log(R / r) ** (1 - n)


def square_ring_lower_bound(r: float, R: float) -> float:
    """Certified lower bound log(R/r)/4 for square-ring families (n = 2)."""
    if not 0 < r < R:
        raise DomainError("need 0 < r < R")
    return 0.25 * math.log(R / r)


# ---------------------------------------------------------------------------
# Scene builders


def annulus_scene(r: float, R: float, n_cells: int,
                  half: float | None = None) -> GridScene:
    """2D annulus about the origin, marked bands centered on its boundary circles."""
    half = half if half is not None else R * 1.04
    check_scene_cells([n_cells, n_cells])
    h = 2 * half / n_cells
    xs = (np.arange(n_cells) + 0.5) * h - half
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rad = np.hypot(X, Y)
    f1 = np.abs(rad - r) <= h / 2
    f2 = np.abs(rad - R) <= h / 2
    u = ((rad < R + h) & (rad > r - h)) | f1 | f2
    return GridScene(h, np.array([-half, -half]), u, f1, f2)


def rectangle_scene(width: float, height: float, n_cells: int) -> GridScene:
    """Rectangle with the family joining the two sides of length ``height``."""
    h = width / n_cells
    rows = height / h if h > 0 else math.inf     # h may underflow to 0
    ny = max(2, round(rows)) if rows < math.inf else rows   # inf is refused
    check_scene_cells([n_cells, ny])
    u = np.ones((n_cells, ny), bool)
    f1 = np.zeros_like(u)
    f2 = np.zeros_like(u)
    f1[0, :] = True
    f2[-1, :] = True
    return GridScene(h, np.zeros(2), u, f1, f2)


def square_ring_scene(r: float, R: float, n_cells: int) -> GridScene:
    """Region between concentric axis-aligned squares of half-sides r < R."""
    half = R * 1.04
    check_scene_cells([n_cells, n_cells])
    h = 2 * half / n_cells
    xs = (np.arange(n_cells) + 0.5) * h - half
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    sup = np.maximum(np.abs(X), np.abs(Y))
    f1 = np.abs(sup - r) <= h / 2
    f2 = np.abs(sup - R) <= h / 2
    u = ((sup < R + h) & (sup > r - h)) | f1 | f2
    return GridScene(h, np.array([-half, -half]), u, f1, f2)


def annulus_scene_3d(r: float, R: float, n_cells: int) -> GridScene:
    half = R * 1.08
    h = 2 * half / n_cells
    xs = (np.arange(n_cells) + 0.5) * h - half
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    rad = np.sqrt(X ** 2 + Y ** 2 + Z ** 2)
    f1 = np.abs(rad - r) <= h * 0.87
    f2 = np.abs(rad - R) <= h * 0.87
    u = ((rad < R + h) & (rad > r - h)) | f1 | f2
    return GridScene(h, np.full(3, -half), u, f1, f2)


# ---------------------------------------------------------------------------
# Dirichlet candidate


_CG_MAXITER = 2000
_COARSEST = 1000            # unknowns factored directly at the bottom level
_JACOBI_W = 2.0 / 3.0       # damped-Jacobi smoothing weight
_PROLONG_W = 4.0 / 3.0      # prolongation smoothing weight over rho(D^-1 A) <= 2
_IRLS_ITERS = 8             # reweighted solves after the first when p != 2


def _dirichlet_rho(active: np.ndarray, f1: np.ndarray, f2: np.ndarray,
                   h: float, p: float) -> np.ndarray:
    """Gradient magnitude of the (p-)capacity potential: u=0 on F1, u=1 on F2.

    The system is the graph Laplacian of the face-neighbour conductances
    between active cells, restricted to the free cells, with the marked cells
    moved to the right-hand side.  Cells in a face-connected piece without a
    marked cell are not free: they stay at 0, so their gradient is 0, and
    every free cell has a positive diagonal.  For p != 2
    each IRLS round sets the conductance of an edge to
    max((g_i + g_j)/2, 1e-8)^(p-2) from the current gradient g.
    """
    n = int(active.sum())
    idx = np.full(active.shape, -1, np.int64)
    idx[active] = np.arange(n)
    # the per-axis pairs feed the gradient, the concatenation the Laplacian
    axes = [_neighbour_pairs(active, idx, off)
            for off in np.eye(active.ndim, dtype=int).tolist()]
    a, b = (np.concatenate(ends) for ends in zip(*axes))
    marked = (f1 | f2)[active]
    # a face-connected piece with no marked cell has no potential to solve
    # for (its block of the system is singular): it stays at 0.  label's
    # default structure joins face neighbours only, in 2-D and 3-D
    piece = ndimage.label(active)[0][active]
    free = ~marked & np.isin(piece, piece[marked])
    cells = np.argwhere(active)[free]
    u = f2[active].astype(float)
    cond = np.ones(len(a))
    rounds = 1 + (_IRLS_ITERS if abs(p - 2) > 1e-12 else 0)
    for k in range(rounds if free.any() else 0):
        if k:
            g = _gradient(u, axes, h)
            cond = np.maximum(0.5 * (g[a] + g[b]), 1e-8) ** (p - 2)
        u[free] = _solve_spd(*_free_system(a, b, cond, free, u), cells)
    rho = np.zeros(active.shape)
    rho[active] = _gradient(u, axes, h)
    return rho


def _gradient(u: np.ndarray, axes: list, h: float) -> np.ndarray:
    """Gradient magnitude of the cell potential ``u``, one value per cell.

    Along each axis, a cell's squared partial derivative is the mean of
    (u[b] - u[a])^2 over the face pairs (a, b) of that axis it belongs to,
    0 when it has none; the magnitude is the root of their sum over h."""
    n = len(u)
    total = np.zeros(n)
    for a, b in axes:
        dd = (u[b] - u[a]) ** 2
        d2 = np.bincount(a, dd, n) + np.bincount(b, dd, n)
        cnt = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        total += np.where(cnt > 0, d2 / np.maximum(cnt, 1), 0.0)
    return np.sqrt(total) / h


def _neighbour_pairs(mask: np.ndarray, idx: np.ndarray, off) -> tuple:
    """Ids (a, b) of the cells of ``mask`` whose neighbour at +off is in it
    too, and of those neighbours: two shifted slices, each read in the row
    order of the ids."""
    at = tuple(slice(max(0, -d), n - max(0, d)) for n, d in zip(mask.shape, off))
    to = tuple(slice(a.start + d, a.stop + d) for a, d in zip(at, off))
    both = mask[at] & mask[to]
    return idx[at][both], idx[to][both]


def _free_system(a, b, cond, free: np.ndarray, u: np.ndarray) -> tuple:
    """The Laplacian of the edge conductances restricted to the free cells,
    and its right-hand side.  The assembly temporaries die here, so they are
    gone before the solve."""
    n = len(u)
    W = sp.csr_matrix((np.concatenate([cond, cond]),
                       (np.concatenate([a, b]), np.concatenate([b, a]))), shape=(n, n))
    L = laplacian(W).tocsr()[free]
    rhs = -(L[:, ~free] @ u[~free])
    return L[:, free], rhs


def _solve_spd(L, rhs: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Solve the SPD system of the free cells at grid coordinates ``cells``:
    CG preconditioned by a smoothed-aggregation multigrid V-cycle.  CG warns
    and falls back to spsolve when it fails."""
    from scipy.sparse.linalg import cg
    nfree = L.shape[0]
    sol, info = cg(L, rhs, rtol=1e-10, maxiter=_CG_MAXITER,
                   M=_multigrid_preconditioner(L, cells))
    if info == 0:
        return sol
    warnings.warn(f"multigrid-CG on {nfree} unknowns did not converge within "
                  f"{_CG_MAXITER} iterations (info={info}); "
                  "falling back to spsolve", RuntimeWarning)
    return spsolve(L.tocsc(), rhs)


def _multigrid_preconditioner(A, cells: np.ndarray) -> LinearOperator:
    """One smoothed-aggregation V-cycle (Vanek, Mandel & Brezina 1996).

    Each level groups its unknowns into the 3^dim boxes of the grid, smooths
    the aggregation matrix T into the prolongation P = T - (w/2) D^-1 A T,
    and takes the Galerkin operator P^T A P as the next level, until at most
    ``_COARSEST`` unknowns are left (or boxes stop merging them); that level
    is factored once.  The cycle smooths with damped Jacobi once before the
    coarse correction and twice after it.
    """
    shape = A.shape
    levels = []                                   # (A, P, w D^-1) per level
    while A.shape[0] > _COARSEST:
        box = cells // 3
        dims = box.max(axis=0) + 1
        keys, agg = np.unique(np.ravel_multi_index(box.T, dims), return_inverse=True)
        if len(keys) == len(cells):
            break
        n = A.shape[0]
        T = sp.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, len(keys)))
        dinv = 1.0 / A.diagonal()
        P = (T - sp.diags(0.5 * _PROLONG_W * dinv) @ (A @ T)).tocsr()
        levels.append((A, P, _JACOBI_W * dinv))
        A = (P.T @ (A @ P)).tocsr()
        cells = np.column_stack(np.unravel_index(keys, dims))
    coarse = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})

    # a module-level cycle, not a self-calling closure: a closure would be a
    # reference cycle and keep the hierarchy alive until the next collection
    return LinearOperator(shape, matvec=partial(_vcycle, levels, coarse), dtype=float)


def _vcycle(levels: list, coarse, b: np.ndarray, k: int = 0) -> np.ndarray:
    if k == len(levels):
        return coarse.solve(b)
    A, P, wdinv = levels[k]
    x = wdinv * b
    x += P @ _vcycle(levels, coarse, P.T @ (b - A @ x), k + 1)
    for _ in range(2):
        x += wdinv * (b - A @ x)
    return x


# ---------------------------------------------------------------------------
# The solver


@dataclass
class ModulusResult:
    value: float
    density: DensityField | None
    witnesses: list[PolyCurve]
    infeasible: bool = False


def _offsets(dim: int) -> list[tuple]:
    if dim == 2:
        return [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                if (dx, dy) != (0, 0)]
    return [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]


class ModulusProblem:
    """The grid path family of one scene, ready to certify under any constraint.

    Numbers the scene's cells and holds the 8-/26-neighbor steps between them
    with their lengths and the marked node ids.  The steps are stored in CSR
    order (by source, then target), with their targets ``indices`` and
    ``indptr`` (an empty last row for the sweep's super source).
    """

    def __init__(self, scene: GridScene):
        self.scene = scene
        u, h = scene.u, scene.spacing
        idx = -np.ones(u.shape, np.int64)
        self.n = int(u.sum())
        idx[u] = np.arange(self.n)
        self.cells = np.argwhere(u)
        # each cell's neighbour at each offset (-1 where it has none); read
        # row by row, the steps come by source, then by ascending target, as
        # the offsets are lexicographic and the ids row-major
        offsets = _offsets(u.ndim)
        nbr = np.full((self.n, len(offsets)), -1, np.int64)
        for k, off in enumerate(offsets):
            src, dst = _neighbour_pairs(u, idx, off)
            nbr[src, k] = dst
        has = nbr >= 0
        counts = has.sum(axis=1)
        lens = np.array([math.hypot(*off) * h for off in offsets])
        _, dst, _ = self.steps = (np.repeat(np.arange(self.n), counts), nbr[has],
                                  np.broadcast_to(lens, nbr.shape)[has])
        self.f1_ids = idx[scene.f1]
        self.f2_ids = idx[scene.f2]
        self.indices = dst.astype(np.int32)
        self.indptr = np.concatenate([[0], np.cumsum(counts), [len(dst)]]).astype(np.int32)

    def weights(self, rho_grid: np.ndarray) -> np.ndarray:
        """The rho-length 0.5 (rho_a + rho_b) len of every step, in step order."""
        rho = rho_grid[self.scene.u]
        src, dst, elen = self.steps
        return 0.5 * (rho[src] + rho[dst]) * elen

    def certify(self, rho_grid: np.ndarray, constraint=UNCONSTRAINED,
                want_path: bool = False):
        """Zero rho off the cells that carry energy and scale it so its
        shortest path under the constraint has length 1.

        Returns (energy, normalized rho, binding path); the energy is inf (and
        the rest None) when no path exists or its rho-length is 0.
        """
        ladder, path = self._distance(self.weights(rho_grid), constraint, want_path)
        energy, rho_norm = self.normalize(rho_grid, constraint.carrier(self.scene.u),
                                          ladder[-1] if ladder else math.inf)
        return energy, rho_norm, path if rho_norm is not None else None

    def normalize(self, rho_grid: np.ndarray, carry: np.ndarray, d: float):
        """rho / d zeroed off the cells ``carry`` that carry energy, and its
        energy there: the certified value of a density whose shortest
        constrained path has rho-length d.  (inf, None) unless 0 < d < inf.
        """
        if not np.isfinite(d) or d <= 0:
            return math.inf, None
        rho_norm = np.where(carry, rho_grid, 0.0) / d
        p = self.scene.dim
        return float(np.sum(rho_norm[carry] ** p) * self.scene.spacing ** p), rho_norm

    def _distance(self, w: np.ndarray, constraint=UNCONSTRAINED,
                  want_path: bool = False):
        """The least length of an F1-F2 path under the step weights ``w`` (in
        step order, as ``weights`` gives them) after each pass of the sweep,
        and the node ids of a shortest path within the budget when asked.

        A step into an obstacle cell crosses, spending one unit.  Pass k is
        one Dijkstra over the free steps from a super source that seeds each
        cell first reached after k crossings at its distance; the crossing
        steps out of pass k seed pass k + 1.  A seed no shorter than the
        distance at which an earlier pass reached its cell is dropped: that
        label has more crossings and no shorter distance, and rounded
        addition is monotone, so no path within the budget gets shorter
        through it.  The sweep stops after pass K (0 outside budget mode), or
        once no seed is left below the best F2 distance.  Entry k of the
        ladder is the least F2 distance within k crossings, one entry per
        pass run; the last holds for every larger budget.  Pass 0 never enters
        an obstacle cell, so no step into or out of one changes entry 0.  Ties
        go to the lowest pass, then to the first F2 cell.
        """
        n = S = self.n
        budget = constraint.budget if constraint.mode == "budget" else 0
        src, dst, _ = self.steps
        indices, indptr = self.indices, self.indptr
        seed, nxt, low = np.full((3, n), np.inf)
        seed[self.f1_ids] = 0.0
        if constraint.mode != "unconstrained":
            spends = constraint.cells[self.scene.u]
            # an F1 cell in the obstacle is paid for, so it seeds pass 1
            walled = self.f1_ids[spends[self.f1_ids]]
            seed[walled], nxt[walled] = np.inf, 0.0
            cross = spends[dst]
            csrc, cdst, wc = src[cross], dst[cross], w[cross]
            # the free steps keep their places in the layout
            free = ~cross
            w, indices = w[free], indices[free]
            indptr = np.cumsum(np.concatenate([[False], free]), dtype=indptr.dtype)[indptr]
        # each pass writes its seeds into the spare tail of the free steps and
        # ends the super source's row there
        nnz, indptr = len(indices), indptr.copy()
        data = np.concatenate([w, np.empty(n)])
        indices = np.concatenate([indices, np.empty(n, indices.dtype)])
        best, best_node, best_k, ladder = math.inf, -1, -1, []
        # per pass: Dijkstra predecessors and the crossing step into each seed
        trail, via = [], None
        for k in range(budget + 1):
            ids = np.flatnonzero(seed < np.minimum(low, best))
            if not ids.size and (k == budget or not (nxt < best).any()):
                break
            end = nnz + len(ids)
            data[nnz:end], indices[nnz:end], indptr[S + 1] = seed[ids], ids, end
            mat = sp.csr_matrix((data[:end], indices[:end], indptr),
                                shape=(n + 1, n + 1))
            dist, pred = dijkstra(mat, directed=True, indices=S,
                                  return_predecessors=True)
            tvals = dist[self.f2_ids]
            if tvals.size and tvals.min() < best:
                j = int(np.argmin(tvals))
                best, best_node, best_k = float(tvals[j]), int(self.f2_ids[j]), k
            ladder.append(best)
            if want_path:
                trail.append((pred, via))
            if k < budget:
                np.minimum(low, dist[:n], out=low)
                reach = dist[csrc] + wc
                np.minimum.at(nxt, cdst, reach)
                if want_path:
                    hit = reach == nxt[cdst]
                    via = np.full(n, -1)
                    via[cdst[hit]] = csrc[hit]
            seed, nxt = nxt, seed
            nxt.fill(np.inf)
        if best_node < 0 or not want_path:
            return ladder, None
        path, node = [], best_node
        for pred, via in reversed(trail[:best_k + 1]):
            while node != S:
                path.append(node)
                seeded, node = node, pred[node]
            if via is None or via[seeded] < 0:
                break
            node = via[seeded]
        path.reverse()
        return ladder, path


def release_free_memory() -> None:
    """Hand the C heap's free pages back to the OS.  glibc keeps freed heap
    pages resident while any small block sits above them, so without this the
    ~100 MB of temporaries of a 512^2 solve stayed resident or not by chance."""
    try:
        ctypes.CDLL(None).malloc_trim(0)      # glibc; a no-op elsewhere
    except (AttributeError, OSError, TypeError):
        pass


def dirichlet_candidates(scene: GridScene, actives: Sequence[np.ndarray]) -> list:
    """One Dirichlet density per active mask in which a grid path joins F1 to F2.

    Without such a path the potential is constant on each component and its
    gradient is rounding noise, so that mask is not solved.
    """
    structure = np.ones((3,) * scene.dim, int)
    out = []
    for active in actives:
        f1, f2 = scene.f1 & active, scene.f2 & active
        labels, _ = ndimage.label(active, structure=structure)
        if np.intersect1d(labels[f1], labels[f2]).size:
            out.append(_dirichlet_rho(active, f1, f2, scene.spacing, scene.dim))
            release_free_memory()
    return out


def discrete_modulus(scene: GridScene,
                     constraint: CurveConstraint = UNCONSTRAINED) -> ModulusResult:
    """Discrete p-modulus (p = dimension) of grid paths joining F1 to F2.

    Returns a certified upper estimate: the reported density is exactly
    admissible (its constrained shortest-path distance is 1) and the value
    is its energy.  If no candidate certifies, the value is 0.0, infeasible.
    """
    actives = [constraint.carrier(scene.u)]
    if constraint.mode == "budget":
        # the avoid-mode potential covers the detour regime
        actives.append(scene.u & ~constraint.cells)
    candidates = dirichlet_candidates(scene, actives)
    # built after the solves, so its step arrays are not alive at their peak
    problem = ModulusProblem(scene)

    best_val, best_rho, best_path = math.inf, None, None
    for cand in candidates:
        val, rho_norm, path = problem.certify(cand, constraint, want_path=True)
        if val < best_val:
            best_val, best_rho, best_path = val, rho_norm, path
    if best_rho is None:
        return ModulusResult(0.0, None, [], infeasible=True)

    witnesses = []
    if best_path:
        centers = scene.origin + (problem.cells[best_path] + 0.5) * scene.spacing
        witnesses.append(PolyCurve(centers))
    density = DensityField(best_rho, scene.spacing, scene.origin)
    return ModulusResult(best_val, density, witnesses)


# ---------------------------------------------------------------------------
# Admissibility checking


@dataclass
class AdmissibilityReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def admissible_check(rho, curves: Sequence[PolyCurve],
                     tol: float) -> AdmissibilityReport:
    """List curves whose rho-length falls short of 1."""
    violations = []
    for i, gamma in enumerate(curves):
        length = line_integral(rho, gamma)
        if length < 1 - tol:
            violations.append({"index": i, "rho_length": length,
                               "shortfall": 1 - length})
    return AdmissibilityReport(violations)


# ---------------------------------------------------------------------------
# Averaged line integral (Lebesgue differentiation check)


def avg_line_integral(rho, curve: PolyCurve, r: float, samples: int,
                      seed: int) -> dict:
    """Monte Carlo average of the line integral over ball translates.

    Estimates the mean of  integral_{curve+x} rho ds  for x uniform in
    B(0, r), reporting the standard error of the estimate.  ``rho`` maps an
    (N, dim) point array to N values; ``translate_line_integrals`` integrates
    it over all the translates at once.
    """
    if r <= 0:
        raise DomainError("averaging radius must be positive")
    if samples < 1:
        raise DomainError("averaging needs at least one sample")
    rng = np.random.default_rng(seed)
    # chunks draw the same doubles in the same order as one draw per translate
    accepted = []
    while len(accepted) < samples:
        accepted += [x for x in rng.uniform(-r, r, size=(samples, curve.dim))
                     if not np.dot(x, x) > r * r]
    vals = translate_line_integrals(rho, curve, np.array(accepted[:samples]))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return {"mean": mean, "stderr": stderr, "radius": r, "samples": samples}


# ---------------------------------------------------------------------------
# Intersection surveys


# samples a survey config may ask for: avg-line-integral holds samples x 65
# points per curve segment, about 2.3 KB of peak memory per sample (305 MB
# and 1.6 s at 100,000 samples, 538 MB and 2.7 s at 200,000; 1 thread, one
# run each, raw), so about 0.7 GB at the cap; 2.6 times the catalog's
# largest survey (100,000)
MAX_SURVEY_SAMPLES = 1 << 18


def translation_survey(E, curve: PolyCurve, n_max: int, samples: int,
                       seed: int) -> dict:
    """Monte Carlo estimates of m*(F_N): translates meeting E at >= N points.

    F_N is the set of translates x with #((curve+x) cap E) >= N.  The sampling
    box is the Minkowski envelope in which intersections are possible; the
    table reports measure estimates with normal-approximation confidence
    intervals, together with the geometric F_1 envelope bound
    max(len(curve), diam E) * diam(E)^(n-1).
    """
    if curve.dim != E.dim:
        raise DomainError(f"survey curve is {curve.dim}-dimensional, "
                          f"the set {E.dim}-dimensional")
    if curve.length() <= 0:
        raise DomainError("survey curve must be non-constant")
    rng = np.random.default_rng(seed)
    elo, ehi = E.bbox()
    clo = curve.vertices.min(axis=0)
    chi = curve.vertices.max(axis=0)
    lo = np.asarray(elo, float) - chi
    hi = np.asarray(ehi, float) - clo
    vol = float(np.prod(hi - lo))
    xs = rng.uniform(lo, hi, size=(samples, curve.dim))
    counts = np.zeros(samples)
    for a, b in curve.segments():
        counts += E.count_segment_hits_batch(xs + a, xs + b)
    diam_e = float(np.linalg.norm(np.asarray(ehi, float) - np.asarray(elo, float)))
    table = []
    for N in range(1, n_max + 1):
        p_hat = float((counts >= N).mean())
        m_hat = p_hat * vol
        se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples) * vol
        table.append({"N": N, "measure": m_hat, "ci95": 1.96 * se})
    f1_bound = max(curve.length(), diam_e) * diam_e ** (curve.dim - 1)
    out = {"table": table, "f1_envelope_bound": f1_bound,
           "box_volume": vol, "samples": samples}
    h_n1 = getattr(E, "h_n1_measure", None)
    if callable(h_n1):
        out["hausdorff_bound_scale"] = curve.length() * h_n1()
    return out


def radial_survey(E, x, r: float, R: float, n_max: int, samples: int,
                  seed: int) -> dict:
    """Directional measure of w with #(segment [x+rw, x+Rw] cap E) >= N."""
    if not 0 < r < R:
        raise DomainError("need 0 < r < R")
    x = np.asarray(x, float)
    if x.shape != (E.dim,) or E.dim not in _SPHERE_AREA:
        raise DomainError(f"survey centre {x.tolist()} is no point of the set's "
                          f"{E.dim}-dimensional space (2 or 3)")
    rng = np.random.default_rng(seed)
    dim = len(x)
    w = rng.normal(size=(samples, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    starts = x + r * w
    ends = x + R * w
    counts = E.count_segment_hits_batch(starts, ends)
    omega = _SPHERE_AREA[dim]
    table = []
    for N in range(1, n_max + 1):
        p_hat = float((counts >= N).mean())
        se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / samples)
        table.append({"N": N, "measure": p_hat * omega, "ci95": 1.96 * se * omega})
    return {"table": table, "sphere_area": omega, "samples": samples}
