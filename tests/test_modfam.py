import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from extremal import modfam, sets
from extremal.geom import DomainError, PolyCurve, translate_line_integrals
from extremal.modfam import (CurveConstraint, DensityField, GridScene,
                             admissible_check, annulus_scene, avg_line_integral,
                             discrete_modulus, radial_survey, rectangle_scene,
                             ring_modulus_exact, square_ring_lower_bound,
                             square_ring_scene, translation_survey)


# ---------------------------------------------------------------------------
# Analytic formulas

def test_ring_modulus_exact_values():
    assert abs(ring_modulus_exact(2, 1.0, math.e) - 2 * math.pi) < 1e-12
    assert abs(ring_modulus_exact(3, 1.0, math.e) - 4 * math.pi) < 1e-12


def test_ring_modulus_decreases_to_zero():
    vals = [ring_modulus_exact(2, 1.0, R) for R in (3.0, 10.0, 100.0, 1e6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5


def test_ring_modulus_rejects_bad_radii():
    with pytest.raises(DomainError):
        ring_modulus_exact(2, 2.0, 1.0)
    with pytest.raises(DomainError):
        ring_modulus_exact(4, 1.0, 2.0)


def test_square_ring_lower_bound_values():
    assert abs(square_ring_lower_bound(1.0, math.e ** 4) - 1.0) < 1e-12
    eps = 1e-3
    assert abs(square_ring_lower_bound(1.0 - eps, 1.0) - eps / 4) < 1e-6
    with pytest.raises(DomainError):
        square_ring_lower_bound(2.0, 1.0)


# ---------------------------------------------------------------------------
# Scenes

def test_scene_validation():
    u = np.ones((8, 8), bool)
    f1 = np.zeros_like(u); f1[0, :] = True
    f2 = np.zeros_like(u); f2[-1, :] = True
    GridScene(0.1, np.zeros(2), u, f1, f2)
    with pytest.raises(DomainError):
        GridScene(0.1, np.zeros(2), u, f1, f1)          # not disjoint
    with pytest.raises(DomainError):
        GridScene(0.1, np.zeros(2), u, np.zeros_like(u), f2)   # empty
    f_broken = np.zeros_like(u)
    f_broken[0, 0] = f_broken[4, 4] = True              # disconnected
    with pytest.raises(DomainError):
        GridScene(0.1, np.zeros(2), u, f_broken, f2)


def _rle_encode_loop(mask):
    """Run-length encoding one cell at a time (the reference form)."""
    flat = mask.ravel()
    runs = []
    start = None
    for i, v in enumerate(flat):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append([start, i - start])
            start = None
    if start is not None:
        runs.append([start, len(flat) - start])
    return runs


def test_scene_json_roundtrip():
    # the annulus masks start and end false; the rectangle's u is all true,
    # its F1 starts the flat order and its F2 ends it
    for sc in (annulus_scene(1.0, 2.0, 48), rectangle_scene(2.0, 1.0, 24)):
        obj = sc.to_json()
        expected = {k: _rle_encode_loop(getattr(sc, k)) for k in ("u", "f1", "f2")}
        assert json.dumps(obj["masks"]) == json.dumps(expected)
        sc2 = GridScene.from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(sc.u, sc2.u)
        assert np.array_equal(sc.f1, sc2.f1)
        assert np.array_equal(sc.f2, sc2.f2)
        assert sc2.spacing == sc.spacing
        # scene files written before the name field was dropped still load
        named = GridScene.from_json({**obj, "name": "annulus"})
        assert np.array_equal(named.u, sc.u)
    ends = np.zeros((5, 7), bool)
    ends[0, 0] = ends[-1, -1] = True
    rng = np.random.default_rng(3)
    for mask in (np.zeros((5, 7), bool), np.ones((5, 7), bool), ends,
                 rng.random((6, 5, 4)) < 0.5, np.zeros(0, bool)):
        assert modfam._rle_encode(mask) == _rle_encode_loop(mask)


def test_scene_json_rejects_runs_off_the_mask():
    obj = rectangle_scene(2.0, 1.0, 16).to_json()       # 16 x 8 = 128 cells
    GridScene.from_json(json.loads(json.dumps(obj)))
    # a negative start would wrap to the end, a run past the end be cut
    for run in ([-5, 3], [126, 3], [0, -1], [129, 0]):
        bad = json.loads(json.dumps(obj))
        bad["masks"]["u"].append(run)
        with pytest.raises(DomainError, match="does not fit 128 cells"):
            GridScene.from_json(bad)
    edge = json.loads(json.dumps(obj))
    edge["masks"]["u"] += [[128, 0], [127, 1]]          # empty run at the end
    assert np.array_equal(GridScene.from_json(edge).u, np.ones((16, 8), bool))


def test_density_field_contract():
    with pytest.raises(DomainError):
        DensityField(np.array([[1.0, -0.5]]), 0.1, np.zeros(2))
    rho = DensityField(np.array([[1.0, 2.0]]), 0.5, np.zeros(2))
    assert rho.value_at_cell((0, 1)) == 2.0
    assert rho.value_at_cell((5, 5)) == 0.0


# ---------------------------------------------------------------------------
# Solver

def _ref_to_csv(density, path) -> None:
    """The per-cell ``DensityField.to_csv`` the array-based writer replaced."""
    idx = np.argwhere(density.values > 0)
    with open(path, "w") as fh:
        fh.write(",".join(f"i{k}" for k in range(density.values.ndim)) + ",value\n")
        for cell in idx:
            fh.write(",".join(str(int(c)) for c in cell)
                     + f",{density.values[tuple(cell)]:.12g}\n")


@st.composite
def _csv_fields(draw):
    dim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    n = int(np.prod(shape))
    value = st.one_of(st.just(0.0), st.just(1.0),
                      st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300]),
                      st.integers(0, 255).map(lambda k: k / 255),
                      st.floats(0.0, 1e300))
    vals = np.array(draw(st.lists(value, min_size=n, max_size=n))).reshape(shape)
    if draw(st.booleans()):
        vals[...] = 0.0
    return vals


@settings(max_examples=300, deadline=None)
@given(vals=_csv_fields())
def test_to_csv_bytes_match_per_cell_writer(tmp_path_factory, vals):
    density = DensityField(vals, 1 / 3, np.full(vals.ndim, -0.5))
    out = tmp_path_factory.mktemp("csv")
    density.to_csv(out / "new.csv")
    _ref_to_csv(density, out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


@pytest.mark.parametrize("shape, zero", [((4, 5), 2), ((3, 4, 5), 1), ((3, 4, 5), 0)])
def test_to_csv_zero_slab_and_3d_match_per_cell_writer(tmp_path, shape, zero):
    vals = np.random.default_rng(7).uniform(0.0, 2.0, size=shape)
    vals[vals < 0.4] = 0.0
    vals[zero] = 0.0                              # a slab with no positive cell
    density = DensityField(vals, 0.25, np.zeros(len(shape)))
    density.to_csv(tmp_path / "new.csv")
    _ref_to_csv(density, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_rectangle_modulus_half():
    res = discrete_modulus(rectangle_scene(2.0, 1.0, 128))
    assert abs(res.value - 0.5) / 0.5 < 0.03
    assert not res.infeasible


def test_annulus_modulus_small_grid():
    res = discrete_modulus(annulus_scene(1.0, math.e, 96))
    assert abs(res.value - 2 * math.pi) / (2 * math.pi) < 0.12


def test_infeasible_family_is_zero_with_flag():
    sc = annulus_scene(1.0, math.e, 64)
    mask = sets.circle_obstacle_mask(sc, (0.0, 0.0), (1 + math.e) / 2)
    res = discrete_modulus(sc, CurveConstraint("avoid", mask))
    assert res.infeasible
    assert res.value == 0.0


def test_witnesses_are_admissible():
    res = discrete_modulus(rectangle_scene(2.0, 1.0, 96))
    rep = admissible_check(res.density, res.witnesses, tol=1e-6)
    assert rep.ok


def test_admissible_check_zero_density():
    rho = DensityField(np.zeros((4, 4)), 1.0, np.zeros(2))
    curves = [PolyCurve([(0, 0), (3, 3)]), PolyCurve([(0, 3), (3, 0)])]
    rep = admissible_check(rho, curves, tol=1e-9)
    assert len(rep.violations) == 2
    assert rep.violations[0]["shortfall"] == 1.0


def test_log_density_exactly_admissible_for_radial_segments():
    # the annular log density gives every radial crossing length exactly 1
    a = 0.5

    def rho(p):
        n = np.linalg.norm(p, axis=1)
        return np.where((a <= n) & (n <= 1.0), 1.0 / (n * math.log(1 / a)), 0.0)

    radials = [PolyCurve([(a * math.cos(t), a * math.sin(t)),
                          (math.cos(t), math.sin(t))])
               for t in np.linspace(0, 2 * math.pi, 9)]
    # admissible within 1e-4, the shortfall that admissible_check allows
    lengths = [translate_line_integrals(rho, g, np.zeros((1, 2)))[0] for g in radials]
    assert min(lengths) >= 1 - 1e-4


def test_avoid_monotone_in_obstacle():
    sc = rectangle_scene(2.0, 1.0, 96)
    m1 = np.zeros(sc.shape, bool)
    m1[40:44, 0:30] = True
    m2 = m1.copy()
    m2[40:44, 0:45] = True
    v0 = discrete_modulus(sc).value
    v1 = discrete_modulus(sc, CurveConstraint("avoid", m1)).value
    v2 = discrete_modulus(sc, CurveConstraint("avoid", m2)).value
    assert v1 <= v0 * 1.02
    assert v2 <= v1 * 1.02


def test_subadditivity_on_marked_family_union():
    # one scene, two target continua: md(F1 -> F2a u F2b) <= sum of parts
    h = 1 / 64
    u = np.ones((128, 64), bool)
    f1 = np.zeros_like(u); f1[0, :] = True
    f2a = np.zeros_like(u); f2a[-1, :20] = True
    f2b = np.zeros_like(u); f2b[-1, 40:] = True
    sc_a = GridScene(h, np.zeros(2), u, f1, f2a)
    sc_b = GridScene(h, np.zeros(2), u, f1, f2b)
    # F2a u F2b is no single continuum, which GridScene refuses; the solver
    # takes the two-piece target as it is
    sc_ab = GridScene(h, np.zeros(2), u, f1, f2a)
    sc_ab.f2 = f2a | f2b
    v_ab = discrete_modulus(sc_ab).value
    v_a = discrete_modulus(sc_a).value
    v_b = discrete_modulus(sc_b).value
    assert v_ab <= (v_a + v_b) * 1.02


def test_solve_runs_one_pass_per_candidate(monkeypatch):
    calls = []
    dijkstra = modfam.dijkstra

    def counted(*args, **kwargs):
        calls.append(1)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(modfam, "dijkstra", counted)
    sc = rectangle_scene(2.0, 1.0, 64)
    res = discrete_modulus(sc)
    # one candidate: the unconstrained scene has one active mask
    assert len(calls) == 1
    # the reported value is what the one certify path gives for its density
    value = modfam.ModulusProblem(sc).certify(res.density.values)[0]
    assert value == pytest.approx(res.value, rel=1e-12)


def test_zero_density_certifies_to_inf():
    problem = modfam.ModulusProblem(rectangle_scene(2.0, 1.0, 32))
    zero = np.zeros(problem.scene.shape)
    mask = np.zeros(zero.shape, bool)
    mask[16, :] = True
    for cons in (modfam.UNCONSTRAINED, CurveConstraint("avoid", mask),
                 CurveConstraint("budget", mask, 2)):
        assert problem.certify(zero, cons) == (math.inf, None, None)
    assert sets.certify_value(problem, zero, problem.weights(zero)) == (0.0, False)


@pytest.mark.parametrize("budget", [1.5, 2.0, True, "1", None])
def test_budget_must_be_an_integer(budget):
    with pytest.raises(DomainError, match="budget must be an integer"):
        CurveConstraint("budget", np.zeros((4, 4), bool), budget)


def test_avoid_is_budget_zero_with_energy_off_the_obstacle():
    sc = rectangle_scene(2.0, 1.0, 32)
    mask = np.zeros(sc.shape, bool)
    mask[16, 4:] = True                     # a wall with a gap at the bottom
    rho = np.random.default_rng(5).uniform(0.5, 1.5, sc.shape)
    problem = modfam.ModulusProblem(sc)
    avoid = problem.certify(rho, CurveConstraint("avoid", mask))
    zero = problem.certify(np.where(mask, 0.0, rho),
                           CurveConstraint("budget", mask, 0))
    assert avoid[0] == zero[0] < math.inf
    assert np.array_equal(avoid[1], zero[1])
    assert not avoid[1][mask].any()


def test_walled_f1_without_crossings_runs_no_pass(monkeypatch):
    # every F1 cell is in the obstacle, so only pass 1 has seeds; with no
    # crossing to spend there is nothing to search
    calls = []
    dijkstra = modfam.dijkstra
    monkeypatch.setattr(modfam, "dijkstra",
                        lambda *a, **k: calls.append(1) or dijkstra(*a, **k))
    sc = rectangle_scene(2.0, 1.0, 32)
    problem, rho = modfam.ModulusProblem(sc), np.ones(sc.shape)
    for cons in (CurveConstraint("avoid", sc.f1),
                 CurveConstraint("budget", sc.f1, 0)):
        assert problem.certify(rho, cons)[0] == math.inf
    assert not calls
    assert problem.certify(rho, CurveConstraint("budget", sc.f1, 1))[0] < math.inf
    assert len(calls) == 2


def test_budget_with_empty_obstacle_is_unconstrained():
    sc = rectangle_scene(2.0, 1.0, 48)
    free = discrete_modulus(sc).value
    empty = CurveConstraint("budget", np.zeros(sc.shape, bool), 3)
    assert discrete_modulus(sc, empty).value == pytest.approx(free, rel=1e-12)


def _ref_steps(scene) -> tuple:
    """The per-cell offset loop that ``ModulusProblem`` built its steps with
    before it took them from grid slices, sorted into CSR order (by source,
    then target)."""
    u, h = scene.u, scene.spacing
    idx = -np.ones(u.shape, np.int64)
    idx[u] = np.arange(int(u.sum()))
    cells = np.argwhere(u)
    srcs, dsts, elens = [], [], []
    for off in modfam._offsets(u.ndim):
        dst = cells + off
        ok = np.all((dst >= 0) & (dst < u.shape), axis=1)
        ok[ok] = u[tuple(dst[ok].T)]
        srcs.append(np.flatnonzero(ok))
        dsts.append(idx[tuple(dst[ok].T)])
        elens.append(np.full(len(srcs[-1]), math.hypot(*off) * h))
    src, dst, elen = map(np.concatenate, (srcs, dsts, elens))
    order = np.lexsort((dst, src))
    return src[order], dst[order], elen[order]


@st.composite
def _step_scenes(draw):
    """A scene on a random mask of 1 to 7 cells a side (2 cells at least),
    its marked cells single cells, often on the grid edge."""
    dim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=dim, max_size=dim)))
    n = math.prod(shape)
    if n < 2:
        shape, n = (2,) + shape[1:], 2 * n
    u = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(shape)
    a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    f1, f2 = np.zeros((2, n), bool)
    f1[a], f2[b] = True, True
    u.ravel()[[a, b]] = True
    h = draw(st.sampled_from([1.0, 1 / 3, 0.0625]))
    return GridScene(h, np.zeros(dim), u, f1.reshape(shape), f2.reshape(shape))


@settings(max_examples=200, deadline=None)
@given(_step_scenes())
def test_steps_match_per_cell_offset_loop(scene):
    # order matters: Dijkstra's ties and the sweep's crossing ties follow the
    # step order
    got = modfam.ModulusProblem(scene).steps
    for a, b in zip(got, _ref_steps(scene), strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_steps_match_per_cell_offset_loop_on_catalog_scenes():
    for scene in (annulus_scene(1.0, 2.0, 64), rectangle_scene(2.0, 1.0, 32),
                  modfam.annulus_scene_3d(1.0, math.e, 16)):
        for a, b in zip(modfam.ModulusProblem(scene).steps, _ref_steps(scene), strict=True):
            assert np.array_equal(a, b)


def _reference_distance(active, h, rho_flat, f1_ids, f2_ids, ecost=None,
                        budget=0):
    """The rho-distance from F1 to F2 by Dijkstra on the (K+1)-layer product
    graph of states (cell, crossings spent): the search the sweep replaced."""
    shape = active.shape
    idx = -np.ones(shape, np.int64)
    n = int(active.sum())
    idx[active] = np.arange(n)
    cells = np.argwhere(active)
    srcs, dsts, elens = [], [], []
    for off in modfam._offsets(active.ndim):
        dst = cells + np.array(off)
        ok = np.all((dst >= 0) & (dst < np.array(shape)), axis=1)
        src, dst = cells[ok], dst[ok]
        ok2 = active[tuple(dst.T)]
        src, dst = src[ok2], dst[ok2]
        srcs.append(idx[tuple(src.T)])
        dsts.append(idx[tuple(dst.T)])
        elens.append(np.full(len(src), math.hypot(*off) * h))
    gsrc, gdst, elen = np.concatenate(srcs), np.concatenate(dsts), np.concatenate(elens)
    w = 0.5 * (rho_flat[gsrc] + rho_flat[gdst]) * elen
    if ecost is None:
        S = n
        rows = np.concatenate([gsrc, np.full(len(f1_ids), S)])
        cols = np.concatenate([gdst, f1_ids])
        data = np.concatenate([w, np.zeros(len(f1_ids))])
        mat = sp.csr_matrix((data, (rows, cols)), shape=(n + 1, n + 1))
        targets = f2_ids
    else:
        layers = budget + 1
        edge_cost = ecost[gdst]
        rows, cols, data = [], [], []
        for k in range(layers):
            k2 = edge_cost + k
            ok = k2 <= budget
            rows.append(gsrc[ok] + k * n)
            cols.append(gdst[ok] + k2[ok] * n)
            data.append(w[ok])
        S = n * layers
        start_cost = ecost[f1_ids]
        ok0 = start_cost <= budget
        rows.append(np.full(int(ok0.sum()), S))
        cols.append(f1_ids[ok0] + start_cost[ok0] * n)
        data.append(np.zeros(int(ok0.sum())))
        mat = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(S + 1, S + 1))
        targets = np.concatenate([f2_ids + k * n for k in range(layers)])
    dist = dijkstra(mat, directed=True, indices=S)
    tvals = dist[targets]
    return float(tvals.min()) if np.isfinite(tvals).any() else math.inf


def _unpruned_sweep(problem, rho_flat, constraint):
    """The crossing sweep as it ran before it dropped dominated seeds: every
    cell first reached after k crossings seeds pass k when it is below the
    best F2 distance.  Returns (distance, path node ids or None)."""
    n = S = problem.n
    budget = constraint.budget if constraint.mode == "budget" else 0
    src, dst, elen = problem.steps
    seed, nxt = np.full((2, n), np.inf)
    seed[problem.f1_ids] = 0.0
    if constraint.mode != "unconstrained":
        spends = constraint.cells[problem.scene.u]
        walled = problem.f1_ids[spends[problem.f1_ids]]
        seed[walled], nxt[walled] = np.inf, 0.0
        cross = spends[dst]
        csrc, cdst = src[cross], dst[cross]
        wc = 0.5 * (rho_flat[csrc] + rho_flat[cdst]) * elen[cross]
        src, dst, elen = src[~cross], dst[~cross], elen[~cross]
    w = 0.5 * (rho_flat[src] + rho_flat[dst]) * elen
    best, best_node, best_k = math.inf, -1, -1
    trail, via = [], None
    for k in range(budget + 1):
        ids = np.flatnonzero(seed < best)
        if not ids.size and (k == budget or not (nxt < best).any()):
            break
        mat = sp.csr_matrix((np.concatenate([w, seed[ids]]),
                             (np.concatenate([src, np.full(len(ids), S)]),
                              np.concatenate([dst, ids]))), shape=(n + 1, n + 1))
        dist, pred = dijkstra(mat, directed=True, indices=S,
                              return_predecessors=True)
        tvals = dist[problem.f2_ids]
        if tvals.size and tvals.min() < best:
            j = int(np.argmin(tvals))
            best, best_node, best_k = float(tvals[j]), int(problem.f2_ids[j]), k
        trail.append((pred, via))
        if k < budget:
            reach = dist[csrc] + wc
            np.minimum.at(nxt, cdst, reach)
            hit = reach == nxt[cdst]
            via = np.full(n, -1)
            via[cdst[hit]] = csrc[hit]
        seed, nxt = nxt, seed
        nxt.fill(np.inf)
    if best_node < 0:
        return best, None
    path, node = [], best_node
    for pred, via in reversed(trail[:best_k + 1]):
        while node != S:
            path.append(node)
            seeded, node = node, pred[node]
        if via is None or via[seeded] < 0:
            break
        node = via[seeded]
    path.reverse()
    return best, path


def _path_length(problem, rho_flat, path):
    cells = problem.cells[path]
    steps = np.linalg.norm(np.diff(cells, axis=0), axis=1) * problem.scene.spacing
    return float(np.sum(0.5 * (rho_flat[path[:-1]] + rho_flat[path[1:]]) * steps))


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([2, 3]), nx=st.integers(6, 14), ny=st.integers(6, 14),
       nz=st.integers(3, 6),
       mode=st.sampled_from(["unconstrained", "avoid", "budget"]),
       budget=st.integers(0, 5), ties=st.booleans(), walled_f1=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_matches_product_graph(dim, nx, ny, nz, mode, budget, ties, walled_f1,
                                     seed):
    rng = np.random.default_rng(seed)
    u = rng.random((nx, ny, nz)[:dim]) < 0.9
    u[0] = u[-1] = True
    f1 = np.zeros_like(u); f1[0] = True
    f2 = np.zeros_like(u); f2[-1] = True
    sc = GridScene(1.0 / nx, np.zeros(dim), u, f1, f2)
    mask = rng.random(u.shape) < rng.uniform(0.0, 0.5)
    # every F1 cell in the obstacle: the sweep starts at pass 1
    mask[0] |= walled_f1
    rho = rng.uniform(0.0, 2.0, u.shape)
    if ties:
        rho = np.round(4 * rho) / 4
    rho[rng.random(u.shape) < 0.25] = 0.0
    cons = (modfam.UNCONSTRAINED if mode == "unconstrained"
            else CurveConstraint(mode, mask, budget))
    problem = modfam.ModulusProblem(sc)
    # avoid mode is the budget-0 sweep; the reference searches the scene
    # with the obstacle removed
    active = u & ~mask if mode == "avoid" else u
    idx = -np.ones(u.shape, np.int64)
    idx[active] = np.arange(int(active.sum()))
    ecost = mask[active].astype(np.int64) if mode == "budget" else None
    def reference(k):
        return _reference_distance(active, sc.spacing, rho[active],
                                   idx[f1 & active], idx[f2 & active], ecost, k)

    ref = reference(budget)
    rho_flat = rho[u]
    ladder, path = problem._distance(problem.weights(rho), cons, want_path=True)
    d = ladder[-1] if ladder else math.inf
    assert d == ref
    # one ladder entry per pass run, none past the budget; entry k is the
    # distance within k crossings, the last one for every larger k
    assert len(ladder) <= (budget if mode == "budget" else 0) + 1
    if mode == "budget":
        for k in range(budget + 1):
            assert (ladder or [math.inf])[min(k, len(ladder) - 1)] == reference(k)
    # dropping dominated seeds moves neither the distance nor the witness
    assert (d, path) == _unpruned_sweep(problem, rho_flat, cons)
    energy, rho_norm, cpath = problem.certify(rho, cons, want_path=True)
    carry = cons.carrier(u)
    if not math.isfinite(ref) or ref <= 0:
        assert energy == math.inf
    else:
        scaled = np.where(carry, rho, 0.0) / ref
        assert energy == float(np.sum(scaled[carry] ** dim) * sc.spacing ** dim)
        assert abs(_path_length(problem, rho_norm[u], cpath) - 1) <= 1e-12
    if not math.isfinite(ref):
        assert path is None
        return
    # the witness is a chain of grid steps from F1 to F2 within the budget
    cells = problem.cells[path]
    assert f1[tuple(cells[0])] and f2[tuple(cells[-1])]
    assert np.all(np.abs(np.diff(cells, axis=0)).max(axis=1) == 1)
    if mode != "unconstrained":
        assert mask[tuple(cells.T)].sum() <= (budget if mode == "budget" else 0)
    assert _path_length(problem, rho_flat, path) == pytest.approx(d, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(scene=_step_scenes(), mode=st.sampled_from(["unconstrained", "avoid", "budget"]),
       budget=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_each_pass_sees_the_free_steps_in_scipy_csr_order(scene, mode, budget, seed):
    # the order of a COO conversion of the free steps, which fixes how
    # Dijkstra breaks ties and so the witness paths; F1 stays free, so pass
    # 0 runs
    rng = np.random.default_rng(seed)
    mask = (rng.random(scene.shape) < rng.uniform(0.0, 0.6)) & ~scene.f1
    cons = (modfam.UNCONSTRAINED if mode == "unconstrained"
            else CurveConstraint(mode, mask, budget))
    problem = modfam.ModulusProblem(scene)
    w = problem.weights(rng.uniform(0.0, 2.0, scene.shape))
    seen = []

    def spy(mat, **kw):
        seen.append((mat.indptr.copy(), mat.indices.copy(), mat.data.copy()))
        return dijkstra(mat, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modfam, "dijkstra", spy)
        problem._distance(w, cons, want_path=True)
    n = problem.n
    src, dst, _ = problem.steps
    free = (~mask[scene.u][dst] if mode != "unconstrained"
            else np.ones(len(src), bool))
    ref = sp.csr_matrix((w[free], (src[free], dst[free])), shape=(n + 1, n + 1))
    assert seen
    for indptr, indices, data in seen:
        assert np.array_equal(indptr[:n + 1], ref.indptr[:n + 1])
        assert np.array_equal(indices[:ref.nnz], ref.indices)
        assert np.array_equal(data[:ref.nnz], ref.data)


def test_budget_search_memory_does_not_grow_with_budget():
    sc = rectangle_scene(1.0, 1.0, 32)
    mask = np.zeros(sc.shape, bool)
    mask[4::4, :] = True        # seven walls, one cell thick
    rho = np.ones(sc.shape)

    problem = modfam.ModulusProblem(sc)

    def peak(K):
        cons = CurveConstraint("budget", mask, K)
        tracemalloc.start()
        try:
            value = problem.certify(rho, cons)[0]
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    value_50, peak_50 = peak(50)
    value_5000, peak_5000 = peak(5000)
    assert value_5000 == value_50 < math.inf
    assert peak_5000 <= 2 * peak_50
    # the ladder has one entry per pass run, never one per budget unit
    value_huge, peak_huge = peak(10 ** 9)
    assert value_huge == value_50
    assert peak_huge <= 2 * peak_50


def test_dirichlet_solve_memory_grows_linearly():
    # the multigrid hierarchy is O(n); 4x the cells may take at most about
    # 4.5x the traced peak.  (tracemalloc sees numpy and scipy.sparse arrays,
    # not SuperLU's own allocations, so the small coarsest factor is unseen.)
    def peak(n_cells):
        sc = annulus_scene(1.0, math.e, n_cells)
        tracemalloc.start()
        try:
            modfam._dirichlet_rho(sc.u, sc.f1, sc.f2, sc.spacing, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(256) <= 4.5 * peak(128)


def test_cg_non_convergence_warns_before_spsolve(monkeypatch):
    sc = modfam.annulus_scene_3d(1.0, math.e, 12)
    nfree = int((sc.u & ~sc.f1 & ~sc.f2).sum())
    expected = modfam._dirichlet_rho(sc.u, sc.f1, sc.f2, sc.spacing, 2)
    monkeypatch.setattr(scipy.sparse.linalg, "cg",
                        lambda A, b, **kwargs: (np.zeros_like(b), 1))
    with pytest.warns(RuntimeWarning, match=rf"multigrid-CG on {nfree} unknowns "
                                            r".* within 2000 iterations"):
        rho = modfam._dirichlet_rho(sc.u, sc.f1, sc.f2, sc.spacing, 2)
    assert np.allclose(rho, expected, rtol=1e-6, atol=1e-9)


def _solver_system(name):
    """(active, f1, f2, h, p) of one Dirichlet problem of the solver tests."""
    if name in ("annulus-64", "annulus-352"):
        sc = annulus_scene(1.0, 2.0, int(name[8:]))
        return sc.u, sc.f1, sc.f2, sc.spacing, 2
    if name == "avoid-wall":
        rect = rectangle_scene(2.0, 1.0, 32)
        wall = np.zeros(rect.shape, bool)
        wall[10:14, 3:] = True                # a wall with a gap
        avoid = rect.u & ~wall
        return avoid, rect.f1 & avoid, rect.f2 & avoid, rect.spacing, 2
    if name == "lone-cell":
        lone = np.ones((8, 8), bool)
        lone[3:6, :] = False
        lone[4, 4] = True                     # a cell with no face neighbour
        f1, f2 = np.zeros((2, 8, 8), bool)
        f1[0], f2[-1] = True, True
        return lone, f1, f2, 0.125, 2
    shell = modfam.annulus_scene_3d(1.0, math.e, 24)     # 4,344 free cells
    return shell.u, shell.f1, shell.f2, shell.spacing, 3


def _dirichlet_system(monkeypatch, active, f1, f2, h, p):
    """(L, rhs, cells) of the first solve of ``_dirichlet_rho`` for p = 2,
    and of its first IRLS round otherwise."""
    systems = []

    def record(L, rhs, cells):
        systems.append((L, rhs, cells))
        return scipy.sparse.linalg.spsolve(L.tocsc(), rhs)
    with monkeypatch.context() as m:
        m.setattr(modfam, "_solve_spd", record)
        m.setattr(modfam, "_IRLS_ITERS", 1)
        modfam._dirichlet_rho(active, f1, f2, h, p)
    return systems[-1]


@pytest.mark.parametrize("name", ["annulus-64", "avoid-wall", "lone-cell",
                                  "shell-3d-p3", "annulus-352"])
def test_multigrid_cg_meets_tolerance_and_matches_spsolve(name, monkeypatch):
    L, rhs, cells = _dirichlet_system(monkeypatch, *_solver_system(name))
    iters = []
    cg = scipy.sparse.linalg.cg

    def counted(A, b, **kwargs):
        iters.append(0)

        def count(xk):
            iters[-1] += 1
        return cg(A, b, callback=count, **kwargs)
    monkeypatch.setattr(scipy.sparse.linalg, "cg", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # no fall back to spsolve
        u = modfam._solve_spd(L, rhs, cells)
    assert len(iters) == 1
    assert np.linalg.norm(L @ u - rhs) <= 1e-10 * np.linalg.norm(rhs)
    exact = scipy.sparse.linalg.spsolve(L.tocsc(), rhs)
    assert np.abs(u - exact).max() <= 1e-9 * np.abs(exact).max()
    # a Jacobi-preconditioned CG needs hundreds of iterations on these grids
    assert iters[0] <= 40
    if name == "annulus-352":
        assert L.shape[0] > 60_000


@pytest.mark.parametrize("n_cells, lo, size", [(16, 6, 2), (64, 30, 3)])
def test_walled_island_holds_no_potential(n_cells, lo, size):
    # active cells walled off from both marked sets made the system singular,
    # and the factored coarsest level raised "Factor is exactly singular"
    sc = rectangle_scene(1.0, 1.0, n_cells)
    island = np.zeros(sc.shape, bool)
    island[lo:lo + size, lo:lo + size] = True
    ring = np.zeros(sc.shape, bool)
    ring[lo - 1:lo + size + 1, lo - 1:lo + size + 1] = True
    ring &= ~island
    res = discrete_modulus(sc, CurveConstraint("avoid", ring, 0))
    filled = discrete_modulus(sc, CurveConstraint("avoid", ring | island, 0))
    assert not res.infeasible
    assert res.value == pytest.approx(filled.value, rel=1e-12)
    assert not res.density.values[island].any()


def _grad_magnitude(uval, active, h):
    """The gradient magnitude on the grid (the reference form): forward
    differences of ``uval``, NaN off the active cells, with every axis
    averaged over the cell's finite differences."""
    shape = uval.shape
    dim = uval.ndim
    total = np.zeros(shape)
    for ax in range(dim):
        d2 = np.zeros(shape)
        cnt = np.zeros(shape)
        dfwd = np.full(shape, np.nan)
        sl_a = [slice(None)] * dim
        sl_b = [slice(None)] * dim
        sl_a[ax] = slice(0, -1)
        sl_b[ax] = slice(1, None)
        dfwd[tuple(sl_a)] = uval[tuple(sl_b)] - uval[tuple(sl_a)]
        ok = np.isfinite(dfwd)
        dd = np.where(ok, dfwd, 0.0) ** 2
        d2 += dd
        cnt += ok
        d2[tuple(sl_b)] += dd[tuple(sl_a)]
        cnt[tuple(sl_b)] += ok[tuple(sl_a)]
        total += np.where(cnt > 0, d2 / np.maximum(cnt, 1), 0.0)
    rho = np.sqrt(total) / h
    rho[~active] = 0.0
    rho[~np.isfinite(rho)] = 0.0
    return rho


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 3]),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.booleans())
def test_gradient_from_face_pairs_matches_grid_reference(seed, dim, fill, strip):
    # random masks hold isolated cells and one-cell strips; the potential
    # is random, so every difference is a different float
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 13 if dim == 2 else 7, dim))
    active = rng.random(shape) < fill
    if strip:
        line = [int(rng.integers(n)) for n in shape]
        line[int(rng.integers(dim))] = slice(None)
        active[tuple(line)] = True
    n = int(active.sum())
    idx = np.full(shape, -1, np.int64)
    idx[active] = np.arange(n)
    axes = [modfam._neighbour_pairs(active, idx, off)
            for off in np.eye(dim, dtype=int).tolist()]
    u = rng.random(n) * float(rng.choice([1.0, 1e-6, 1e6]))
    h = float(rng.uniform(0.01, 1.0))
    got = np.zeros(shape)
    got[active] = modfam._gradient(u, axes, h)
    uval = np.full(shape, np.nan)
    uval[active] = u
    assert np.array_equal(got, _grad_magnitude(uval, active, h))


def _dirichlet_rho_loop(active, f1, f2, h, p, irls_iters=8):
    """The Dirichlet density assembled one face offset at a time (the
    reference form): diagonal and right-hand side accumulated per offset."""
    shape, dim = active.shape, active.ndim
    free = active & ~f1 & ~f2
    nfree = int(free.sum())
    idx = -np.ones(shape, np.int64)
    idx[free] = np.arange(nfree)
    uval = np.zeros(shape)
    uval[f2] = 1.0
    uval[~active] = np.nan
    fr = np.argwhere(free)
    offs = [s * np.eye(dim, dtype=int)[ax] for ax in range(dim) for s in (-1, 1)]

    def solve_with(cond_of_edge):
        rows, cols, data = [], [], []
        rhs, diag = np.zeros(nfree), np.zeros(nfree)
        for off in offs:
            nb = fr + off
            inb = np.all((nb >= 0) & (nb < np.array(shape)), axis=1)
            exists = np.zeros(len(fr), bool)
            exists[inb] = active[tuple(nb[inb].T)]
            cond = np.ones(len(fr))
            if cond_of_edge is not None:
                cond = cond_of_edge(nb, inb, exists)
            diag += exists * cond
            nbf = np.zeros(len(fr), bool)
            nbf[inb] = free[tuple(nb[inb].T)]
            rows.append(idx[tuple(fr[nbf].T)])
            cols.append(idx[tuple(nb[nbf].T)])
            data.append(-cond[nbf])
            fixed = exists & ~nbf
            np.add.at(rhs, idx[tuple(fr[fixed].T)],
                      cond[fixed] * uval[tuple(nb[fixed].T)])
        rows.append(np.arange(nfree))
        cols.append(np.arange(nfree))
        data.append(np.maximum(diag, 1e-12))
        L = sp.csr_matrix((np.concatenate(data),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(nfree, nfree))
        return modfam._solve_spd(L, rhs, fr)

    if nfree:
        uval[free] = solve_with(None)
        if abs(p - 2) > 1e-12:
            for _ in range(irls_iters):
                grad = _grad_magnitude(uval, active, h)

                def cond_fn(nb, inb, exists):
                    ga = grad[tuple(fr.T)]
                    gb = np.zeros(len(fr))
                    gb[inb] = grad[tuple(nb[inb].T)]
                    g = 0.5 * (ga + np.where(exists, gb, ga))
                    return np.maximum(g, 1e-8) ** (p - 2)

                uval[free] = solve_with(cond_fn)
    return _grad_magnitude(uval, active, h)


def test_dirichlet_rho_matches_per_offset_assembly():
    ann = annulus_scene(1.0, 2.0, 64)
    rect = rectangle_scene(2.0, 1.0, 32)
    wall = np.zeros(rect.shape, bool)
    wall[10:14, 3:] = True                    # avoid mode: a wall with a gap
    avoid = rect.u & ~wall
    lone = np.ones((8, 8), bool)
    lone[3:6, :] = False
    lone[4, 4] = True                         # a free cell with no face neighbour
    edge_f1, edge_f2 = np.zeros((2, 8, 8), bool)
    edge_f1[0], edge_f2[-1] = True, True
    for active, f1, f2, h in ((ann.u, ann.f1, ann.f2, ann.spacing),
                              (avoid, rect.f1 & avoid, rect.f2 & avoid, rect.spacing),
                              (lone, edge_f1, edge_f2, 0.125)):
        rho = modfam._dirichlet_rho(active, f1, f2, h, 2)
        assert np.array_equal(rho, _dirichlet_rho_loop(active, f1, f2, h, 2))
    # p = 3 on a 3D shell: the diagonal sums the same conductances in
    # another order, so the IRLS rounds agree to rounding
    shell = modfam.annulus_scene_3d(1.0, math.e, 16)
    args = shell.u, shell.f1, shell.f2, shell.spacing, 3
    rho, expected = modfam._dirichlet_rho(*args), _dirichlet_rho_loop(*args)
    assert np.abs(rho - expected).max() <= 1e-13 * expected.max()


def test_dirichlet_candidates_survive_releasing_free_memory():
    # each solve hands the heap's free pages back; the candidates kept so far
    # and the ones that follow are the plain solves, bit for bit
    sc = annulus_scene(1.0, 2.0, 48)
    inner = sc.u & ~(sc.f2 & np.roll(sc.f2, 1, axis=0))
    pool = modfam.dirichlet_candidates(sc, [sc.u, inner])
    assert len(pool) == 2
    for rho, active in zip(pool, (sc.u, inner)):
        f1, f2 = sc.f1 & active, sc.f2 & active
        assert np.array_equal(rho, modfam._dirichlet_rho(active, f1, f2,
                                                         sc.spacing, sc.dim))
    modfam.release_free_memory()
    assert np.array_equal(pool[0], modfam._dirichlet_rho(sc.u, sc.f1, sc.f2,
                                                         sc.spacing, sc.dim))


def test_budget_mode_relaxation_order():
    sc = rectangle_scene(1.0, 1.0, 48)
    mask = np.zeros(sc.shape, bool)
    mask[20:28, :] = True       # a wall eight cells thick
    probe = sets.cned_probe(mask, sc, budgets=[2, 8, 12])
    assert probe["mod_avoid"] <= probe["mod_budget"][2] + 1e-12
    assert probe["mod_budget"][2] <= probe["mod_budget"][8] + 1e-12
    assert probe["mod_budget"][8] <= probe["mod_budget"][12] + 1e-12
    assert probe["mod_budget"][12] <= probe["mod_full"] + 1e-12
    # crossing the wall costs 8 entries: K=2 infeasible, K>=8 feasible
    assert probe["mod_budget"][2] == 0.0
    assert probe["mod_budget"][8] > 0.5 * probe["mod_full"]


def test_3d_shell_modulus_converges_from_above():
    # certified upper estimates; at these resolutions the inner-sphere
    # quadrature dominates, so only the refinement trend is meaningful
    exact = ring_modulus_exact(3, 1.0, math.e)
    errs = []
    for n in (32, 48, 64):
        sc = modfam.annulus_scene_3d(1.0, math.e, n)
        res = discrete_modulus(sc)
        assert not res.infeasible
        assert res.value >= exact * 0.95
        errs.append(res.value / exact - 1.0)
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.60


# ---------------------------------------------------------------------------
# Averaged line integral

def test_avg_line_integral_constant_density_exact():
    gamma = PolyCurve([(0, 0), (0.6, 0.8)])
    out = avg_line_integral(lambda p: np.ones(len(p)), gamma, r=0.3, samples=50,
                            seed=1)
    assert abs(out["mean"] - 1.0) < 1e-12
    assert out["stderr"] < 1e-12


def test_avg_line_integral_linear_density_symmetric():
    gamma = PolyCurve([(0.0, 0.0), (1.0, 0.0)])
    rho = lambda p: np.clip(p[:, 0], -50.0, 50.0)
    for r in (0.1, 0.01):
        out = avg_line_integral(rho, gamma, r=r, samples=600, seed=2)
        assert abs(out["mean"] - 0.5) <= 4 * out["stderr"] + 1e-3


def test_avg_line_integral_converges_to_direct():
    rho = lambda p: 1.0 + np.exp(p[:, 0]) * np.cos(2.0 * p[:, 1])
    gamma = PolyCurve([(0.0, 0.0), (0.8, 0.1), (1.1, -0.3)])
    direct = translate_line_integrals(rho, gamma, np.zeros((1, 2)))[0]
    coarse = avg_line_integral(rho, gamma, r=0.1, samples=800, seed=3)
    fine = avg_line_integral(rho, gamma, r=0.01, samples=800, seed=3)
    err_c = abs(coarse["mean"] - direct)
    err_f = abs(fine["mean"] - direct)
    assert err_f <= 0.5 * err_c + 2 * fine["stderr"]


def _ref_avg_line_integral(rho, curve, r, samples, seed=0):
    """The one-translate-at-a-time loop that ``avg_line_integral`` replaced."""
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    got = 0
    while got < samples:
        x = rng.uniform(-r, r, size=curve.dim)
        if np.dot(x, x) > r * r:
            continue
        vals[got] = translate_line_integrals(rho, PolyCurve(curve.vertices + x),
                                            np.zeros((1, curve.dim)))[0]
        got += 1
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return {"mean": mean, "stderr": stderr, "radius": r, "samples": samples}


def _rho_quadratic(p):
    return 1.0 + p[:, 0] * p[:, 0] + 0.5 * np.abs(p[:, -1])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([
           PolyCurve([(0.0, 0.0), (0.8, 0.1), (0.8, 0.1), (1.1, -0.3)]),
           PolyCurve([(0.0, 0.0), (1.0, 0.0)]),
           PolyCurve([(0.0, 0.0, 0.0), (0.3, -0.2, 0.5), (0.6, 0.4, 0.1)]),
           PolyCurve([(0.2, 0.3, -0.1), (0.2, 0.3, -0.1)])]),
       st.sampled_from([1e-9, 1e-3, 0.05, 0.3, 1.5]),
       st.integers(1, 25), st.integers(0, 2 ** 31 - 1))
def test_avg_line_integral_matches_one_at_a_time_loop(curve, r, samples, seed):
    # 3-D draws are rejected about half the time; r = 1e-9 keeps the
    # translates within rounding of the curve
    assert (avg_line_integral(_rho_quadratic, curve, r, samples, seed)
            == _ref_avg_line_integral(_rho_quadratic, curve, r, samples, seed))


def test_avg_line_integral_rejects_no_samples():
    with pytest.raises(DomainError):
        avg_line_integral(_rho_quadratic, PolyCurve([(0, 0), (1, 0)]),
                          r=0.1, samples=0, seed=0)


def test_avg_line_integral_rejects_bad_radius():
    with pytest.raises(DomainError):
        avg_line_integral(lambda p: np.ones(len(p)), PolyCurve([(0, 0), (1, 0)]),
                          r=0.0, samples=10, seed=0)


# ---------------------------------------------------------------------------
# Surveys

def test_translation_survey_single_point_null():
    E = sets.PrimitiveUnionSet([sets.PointPrim((0.3, 0.4))])
    gamma = PolyCurve([(0, 0), (0, 1)])
    out = translation_survey(E, gamma, 2, 20000, seed=4)
    assert out["table"][0]["measure"] == 0.0
    assert out["f1_envelope_bound"] == 0.0     # diam(E) = 0


def test_translation_survey_parallel_overlap_null():
    E = sets.PrimitiveUnionSet([sets.Segment((0.0, 0.0), (1.0, 0.0))])
    gamma = PolyCurve([(0.0, 0.0), (1.0, 0.0)])
    out = translation_survey(E, gamma, 3, 20000, seed=6)
    # overlap (infinite intersection) happens on a measure-zero line only:
    # with N beyond a single crossing the estimate must vanish
    assert out["table"][2]["measure"] == 0.0


def test_translation_survey_bound_shape():
    segs = [sets.Segment((0.0, 0.3 * k), (1.0, 0.3 * k)) for k in range(10)]
    E = sets.PrimitiveUnionSet(segs)
    gamma = PolyCurve([(0.0, 0.0), (0.0, 1.0)])
    out = translation_survey(E, gamma, 16, 30000, seed=7)
    assert out["hausdorff_bound_scale"] == pytest.approx(10.0)
    worst = max(r["N"] * r["measure"] for r in out["table"])
    assert worst <= 4 * out["hausdorff_bound_scale"]


def test_radial_survey_point_and_circle():
    E_pt = sets.PrimitiveUnionSet([sets.PointPrim((0.9, 0.2))])
    out = radial_survey(E_pt, (0.0, 0.0), 0.5, 2.0, 2, 20000, seed=8)
    assert out["table"][0]["measure"] <= 1e-9
    E_circ = sets.PrimitiveUnionSet([sets.CirclePrim((0.0, 0.0), 1.25)])
    out2 = radial_survey(E_circ, (0.0, 0.0), 0.5, 2.0, 3, 20000, seed=9)
    assert out2["table"][0]["measure"] == pytest.approx(2 * math.pi)
    assert out2["table"][1]["measure"] == 0.0


def test_radial_survey_cantor_rows_decay():
    c = sets.make_cantor(5, fat=True)
    rows = sets.IntervalUnionSet.points([0.2, 0.35, 0.5, 0.65, 0.8])
    E = sets.product_set(c, rows)
    out = radial_survey(E, (0.45, 0.5), 0.05, 1.2, 6, 40000, seed=10)
    m = {r["N"]: r["measure"] for r in out["table"]}
    weighted = [n * m[n] for n in m if m[n] > 0]
    assert max(weighted) <= 4 * max(m[1], 1e-9)


def test_survey_rejects_constant_curve():
    E = sets.PrimitiveUnionSet([sets.PointPrim((0.0, 0.0))])
    with pytest.raises(DomainError):
        translation_survey(E, PolyCurve([(1, 1), (1, 1)]), 2, 10, seed=0)


def test_annulus_refinement_is_cauchy():
    vals = [discrete_modulus(annulus_scene(1.0, math.e, n)).value
            for n in (64, 128, 256)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
