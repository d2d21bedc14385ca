import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extremal import cli, modfam, sets
from extremal.geom import DomainError, hausdorff_content
from extremal.sets import (MAX_CANTOR_DEPTH, IntervalUnionSet, PointPrim,
                           PrimitiveUnionSet, Segment, _round_float, cned_probe,
                           circle_obstacle_mask, interval_set, make_cantor,
                           product_set)


# exact scans of the int endpoints as rationals: the reference every float
# query of an IntervalUnionSet is checked against

def _exact(E: IntervalUnionSet) -> list:
    return [(Fraction(a, E.den), Fraction(b, E.den)) for a, b in E.intervals]


def _ref_contains(E: IntervalUnionSet, x) -> bool:
    x = Fraction(x)
    return any(a <= x <= b for a, b in _exact(E))


def _ref_intersect(E: IntervalUnionSet, a, b) -> list:
    """Exact intersection with [a, b] as a list of rational intervals."""
    a, b = Fraction(a), Fraction(b)
    return [(max(lo, a), min(hi, b)) for lo, hi in _exact(E)
            if max(lo, a) <= min(hi, b)]


def _measure(E: IntervalUnionSet) -> Fraction:
    return Fraction(sum(b - a for a, b in E.intervals), E.den)


def _ref_round_float(x: Fraction, up: bool) -> float:
    f = float(x)
    if (f < x) if up else (f > x):
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


@settings(max_examples=300, deadline=None)
@example(num=1, den=3)
@example(num=-(2 ** 300) + 1, den=2 ** 300)
@example(num=3 ** 200, den=2 ** 299)
@given(num=st.integers(-(2 ** 320), 2 ** 320),
       den=st.one_of(st.integers(1, 2 ** 300),
                     st.builds(lambda k: 2 ** k, st.integers(0, 300)),
                     st.builds(lambda k: 3 ** k, st.integers(0, 189))))
def test_round_float_matches_fraction_reference(num, den):
    # dyadic ratios of up to 53 significant bits are floats, the others lie
    # strictly between two
    x = Fraction(num, den)
    for up in (True, False):
        assert _round_float(num, den, up) == _ref_round_float(x, up)


# ---------------------------------------------------------------------------
# Cantor constructions

@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_middle_thirds_measure_exact(k):
    c = make_cantor(k, fat=False)
    assert _measure(c) == Fraction(2, 3) ** k


def test_depth_zero_is_base_interval():
    for fat in (True, False):
        c = make_cantor(0, fat)
        assert (c.intervals, c.den) == ([(0, 1)], 1)


def test_fat_cantor_measure_matches_product():
    c = make_cantor(6, fat=True)
    expected = Fraction(1)
    for k in range(1, 7):
        expected *= 1 - Fraction(1, 4 ** k)
    assert _measure(c) == expected
    assert expected > Fraction(1, 2)


def fat(depth):
    return make_cantor(depth, fat=True)


def middle_thirds(depth):
    return make_cantor(depth, fat=False)


@pytest.mark.parametrize("build", [
    fat, middle_thirds,
    # the survey set kind ``cantor-rows`` builds a fat set from the config
    lambda d: cli._survey_set_from_spec({"kind": "cantor-rows", "depth": d})])
@pytest.mark.parametrize("depth", [MAX_CANTOR_DEPTH + 1, -1, 10 ** 9])
def test_cantor_depth_is_bounded_up_front(build, depth):
    # depth 17 built 2**17 exact intervals over several seconds; 10**9 would
    # not finish
    with pytest.raises(DomainError, match="cantor depth"):
        build(depth)


@settings(max_examples=40, deadline=None)
@given(num=st.integers(0, 3 ** 7), k=st.integers(1, 6))
def test_cantor_monotone_in_depth(num, k):
    x = Fraction(num, 3 ** 7)
    deep = make_cantor(k + 1, fat=False)
    shallow = make_cantor(k, fat=False)
    if _ref_contains(deep, x):
        assert _ref_contains(shallow, x)


# dyadic endpoints are floats; the others lie strictly between two floats
_endpoints = st.builds(Fraction, st.integers(-60, 60),
                       st.sampled_from([1, 2, 8, 64, 3, 7, 10, 27, 81]))


@settings(max_examples=150, deadline=None)
@example(ends=[Fraction(1, 3)])
@given(ends=st.lists(_endpoints, min_size=1, max_size=8))
def test_float_interval_queries_match_exact(ends):
    # consecutive sorted endpoints pair up; an odd one out is a point
    ends = sorted(ends)
    E = IntervalUnionSet.of([(ends[i], ends[min(i + 1, len(ends) - 1)])
                             for i in range(0, len(ends), 2)])
    xs = sorted({q for e in ends for f in (float(e),)
                 for q in (math.nextafter(f, -math.inf), f,
                           math.nextafter(f, math.inf))})
    assert E.contains_float_batch(np.array(xs)).tolist() == [
        _ref_contains(E, x) for x in xs]
    a, b = map(np.array, zip(*[(x, y) for i, x in enumerate(xs)
                               for y in xs[i:i + 4]]))
    assert E.intersects_intervals_batch(a, b).tolist() == [
        bool(_ref_intersect(E, x, y)) for x, y in zip(a.tolist(), b.tolist())]


def test_empty_set_answers_batch_queries_false():
    E = IntervalUnionSet.of([])
    xs = np.array([-1.0, 0.0, 2.5])
    assert E.contains_float_batch(xs).tolist() == [False] * 3
    assert E.intersects_intervals_batch(xs, xs + 1).tolist() == [False] * 3
    assert E.contains_float_batch(np.array([])).tolist() == []


# ---------------------------------------------------------------------------
# Products

def _length(intervals) -> Fraction:
    return sum((b - a for a, b in intervals), Fraction(0))


def test_product_point_times_interval():
    # a point of the plane is a degenerate box
    g = IntervalUnionSet.of([(0, 0)])
    f = interval_set(0, 1)
    p = product_set(g, f)
    pts = np.array([[0.0, 0.5], [0.1, 0.5]])
    assert p.intersects_boxes_batch(pts, pts).tolist() == [True, False]


def test_product_slice_classifications():
    # axis-parallel segments as degenerate boxes: the horizontal slice at
    # y = 1/2 is the Cantor factor, the vertical one through the gap at
    # x = 1/2 is empty, the one through the endpoint 1/3 is a unit segment
    E = product_set(make_cantor(5, fat=False), interval_set(0, 1))
    lo = np.array([[-0.5, 0.5], [0.5, -1.0], [1 / 3, -1.0]])
    hi = np.array([[1.5, 0.5], [0.5, 2.0], [1 / 3, 2.0]])
    assert E.intersects_boxes_batch(lo, hi).tolist() == [True, False, True]
    assert _length(_ref_intersect(E.gx, -0.5, 1.5)) == Fraction(2, 3) ** 5
    assert _length(_ref_intersect(E.fy, -1.0, 2.0)) == 1


def test_fat_product_slice_is_positive_length():
    E = product_set(make_cantor(5, fat=True), interval_set(0, 1))
    lo, hi = np.array([[-0.5, 0.5]]), np.array([[1.5, 0.5]])
    assert E.intersects_boxes_batch(lo, hi).tolist() == [True]
    assert _length(_ref_intersect(E.gx, -0.5, 1.5)) == _measure(E.gx) > 0


_dyadic = st.builds(lambda k, m: k / 2 ** m, st.integers(-48, 48), st.integers(4, 6))
_linear_sets = st.one_of(
    st.builds(make_cantor, st.integers(0, 6), st.booleans()),
    st.builds(lambda ends: IntervalUnionSet.of(list(zip(ends[::2], ends[1::2]))),
              st.lists(st.one_of(_dyadic, st.floats(-1.5, 1.5)), min_size=2,
                       max_size=10).map(sorted)),
    st.builds(IntervalUnionSet.points,
              st.lists(st.one_of(_dyadic, st.floats(-1.5, 1.5)), max_size=6)))


@settings(max_examples=300, deadline=None)
@example(gx=make_cantor(1, fat=False), fy=interval_set(-1, 1),
         origin=(0.0, 0.0), h=0.25, shape=(2, 2), edge=(2, 0, True))
@given(gx=_linear_sets, fy=_linear_sets,
       origin=st.tuples(*[st.one_of(_dyadic, st.floats(-1.5, 0.5))] * 2),
       h=st.one_of(st.builds(lambda k, m: k / 2 ** m, st.integers(1, 8),
                             st.integers(3, 8)),
                   st.floats(1e-3, 0.5)),
       shape=st.tuples(st.integers(2, 48), st.integers(1, 48)),
       edge=st.none() | st.tuples(st.integers(0, 63), st.sampled_from([-1, 0, 1]),
                                  st.booleans()))
def test_raster_mask_matches_exact_reference(gx, fy, origin, h, shape, edge):
    # dyadic origins and spacings put cell edges exactly on the dyadic
    # endpoints of the fat Cantor sets and of the float unions; ``edge``
    # starts or ends the first column on or next to the nearest float of an
    # endpoint of gx, which checks the outward rounding: the example's first
    # column ends on float(2/3) < 2/3, so it misses [2/3, 1]
    ends = [e for iv in _exact(gx) for e in iv]
    if edge is not None and ends:
        k, step, below = edge
        f = float(ends[k % len(ends)])
        f = math.nextafter(f, step * math.inf) if step else f
        origin = (f - h if below else f, origin[1])
    u = np.ones(shape, bool)
    f1, f2 = np.zeros_like(u), np.zeros_like(u)
    f1[0], f2[-1] = True, True
    scene = modfam.GridScene(h, np.array(origin), u, f1, f2)
    (ox, oy), (nx, ny) = scene.origin, scene.shape
    xs_lo, ys_lo = ox + np.arange(nx) * h, oy + np.arange(ny) * h
    want = np.outer([bool(_ref_intersect(gx, x, x + h)) for x in xs_lo],
                    [bool(_ref_intersect(fy, y, y + h)) for y in ys_lo])
    assert np.array_equal(sets.raster_mask(product_set(gx, fy), scene), want)


def test_product_area_is_product_of_measures():
    # the volume of a dyadic cover of G x [0, 1] bounds its area m(G) * 1
    # from above, and at this depth overshoots it by under 5%
    g = make_cantor(5, fat=True)
    m = float(_measure(g))
    area = hausdorff_content(product_set(g, interval_set(0, 1)), 2, delta=1 / 16)
    assert m <= area <= 1.05 * m


def test_cantor_square_content_does_not_vanish():
    c = make_cantor(6, fat=False)
    E = product_set(c, c)
    vals = [hausdorff_content(E, 1.0, delta=d) for d in (1 / 4, 1 / 16, 1 / 64)]
    assert all(v > 0.3 for v in vals)


# ---------------------------------------------------------------------------
# Primitive unions

def test_primitive_classification_counts():
    E = PrimitiveUnionSet([Segment((0.0, 0.0), (1.0, 0.0)),
                           PointPrim((0.75, 0.25))])
    # the diagonal hits both primitives
    counts = E.count_segment_hits_batch([(0.0, -0.5)], [(1.0, 0.5)])
    assert counts.tolist() == [2.0]


def test_intersection_points_satisfy_membership():
    # the point where a curve crosses E lies on E's segment
    E = PrimitiveUnionSet([Segment((0.0, 0.0), (1.0, 0.0))])
    assert E.count_segment_hits_batch([(0.25, -1.0)], [(0.25, 1.0)]).tolist() == [1.0]
    for p, hits in (((0.25, 0.0), 1.0), ((0.25, 0.1), 0.0)):
        at = PrimitiveUnionSet([PointPrim(p)])
        assert at.count_segment_hits_batch([(0.0, 0.0)], [(1.0, 0.0)]).tolist() == [hits]


def test_collinear_overlap_is_positive_length():
    E = PrimitiveUnionSet([Segment((0.0, 0.0), (1.0, 0.0))])
    counts = E.count_segment_hits_batch([(0.5, 0.0), (1.0, 0.0)],
                                        [(2.0, 0.0), (2.0, 0.0)])
    # a positive-length overlap counts inf, a shared endpoint once
    assert counts.tolist() == [math.inf, 1.0]


# ---------------------------------------------------------------------------
# CNED probe

def test_probe_single_cell_obstacle_is_negligible():
    sc = modfam.annulus_scene(1.0, math.e, 96)
    mask = np.zeros(sc.shape, bool)
    mask[10, 48] = True
    if not (sc.u & mask).any():
        mask[:] = False
        cells = np.argwhere(sc.u)
        mask[tuple(cells[len(cells) // 2])] = True
    tol = 0.02
    probe = cned_probe(mask, sc, budgets=[1])
    assert probe["mod_avoid"] >= probe["mod_full"] * (1 - 2 * tol)


def test_probe_separating_circle_signature():
    sc = modfam.annulus_scene(1.0, math.e, 128)
    mask = circle_obstacle_mask(sc, (0.0, 0.0), (1 + math.e) / 2)
    probe = cned_probe(mask, sc, budgets=[1])
    assert probe["mod_avoid"] == 0.0
    assert probe["infeasible"]["avoid"]
    assert probe["mod_budget"][1] >= 0.9 * probe["mod_full"]


def _small_circle_scene():
    sc = modfam.annulus_scene(1.0, math.e, 48)
    return sc, circle_obstacle_mask(sc, (0.0, 0.0), (1 + math.e) / 2)


def test_probe_solves_two_dirichlet_candidates(monkeypatch):
    sc, mask = _small_circle_scene()
    calls = []
    solve = modfam._dirichlet_rho

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(modfam, "_dirichlet_rho", counting)
    # the circle separates F1 from F2, so the avoid-mode potential is noise
    # and is not solved
    cned_probe(mask, sc, budgets=[1, 2])
    assert len(calls) == 1
    # a one-cell gap on the positive x-axis lets paths through
    calls.clear()
    cned_probe(_gap_circle_scene()[1], sc, budgets=[1, 2])
    assert len(calls) == 2


def _gap_circle_scene():
    """The circle of ``_small_circle_scene`` with a one-cell gap on the
    positive x-axis, so that avoid mode is feasible."""
    sc, mask = _small_circle_scene()
    mask[sc.shape[0] // 2:, sc.shape[1] // 2] = False
    return sc, mask


def test_probe_matches_one_certify_per_mode_with_feasible_avoid():
    # avoid reads pass 0 of the budget sweep; here it has a nonzero value
    sc, gap = _gap_circle_scene()
    budgets = [0, 1, 2, 5]
    probe = cned_probe(gap, sc, budgets=budgets)
    pool = modfam.dirichlet_candidates(sc, [sc.u, sc.u & ~gap])
    problem = modfam.ModulusProblem(sc)

    def least(cons):
        return min(problem.certify(rho, cons)[0] for rho in pool)

    assert len(pool) == 2 and not any(probe["infeasible"].values())
    assert probe["mod_full"] == least(modfam.UNCONSTRAINED)
    assert 0 < probe["mod_avoid"] == least(modfam.CurveConstraint("avoid", gap))
    for K in budgets:
        assert probe["mod_budget"][K] == least(modfam.CurveConstraint("budget", gap, K))


@pytest.mark.parametrize("gap", [False, True], ids=["closed", "gap"])
def test_probe_runs_one_sweep_per_candidate(gap, monkeypatch):
    sc, mask = _gap_circle_scene() if gap else _small_circle_scene()
    pool = len(modfam.dirichlet_candidates(sc, [sc.u, sc.u & ~mask]))
    calls = []
    dijkstra = modfam.dijkstra
    monkeypatch.setattr(modfam, "dijkstra",
                        lambda *a, **k: calls.append(1) or dijkstra(*a, **k))
    cned_probe(mask, sc, budgets=[1, 2])
    # per candidate one unconstrained pass and one sweep of at most 3
    # passes, where a sweep per mode took 1 + 1 + 2 + 3 = 7
    assert pool <= len(calls) <= pool * (1 + 3)


def test_probe_certifies_every_mode_on_one_problem(monkeypatch):
    sc, mask = _small_circle_scene()
    built = []

    class Counted(modfam.ModulusProblem):
        def __init__(self, scene):
            built.append(scene)
            super().__init__(scene)

    monkeypatch.setattr(modfam, "ModulusProblem", Counted)
    probe = cned_probe(mask, sc, budgets=[0, 1, 2])
    assert built == [sc]
    assert len(probe["infeasible"]) == 5


def test_probe_without_obstacle_matches_discrete_modulus():
    sc, _ = _small_circle_scene()
    probe = cned_probe(np.zeros(sc.shape, bool), sc, budgets=[1])
    assert probe["mod_full"] == modfam.discrete_modulus(sc).value


def test_probe_infeasible_flags_match_discrete_modulus():
    sc, mask = _small_circle_scene()
    probe = cned_probe(mask, sc, budgets=[0, 1, 2])
    constraints = {"full": modfam.UNCONSTRAINED,
                   "avoid": modfam.CurveConstraint("avoid", mask)}
    for K in (0, 1, 2):
        constraints[f"budget({K})"] = modfam.CurveConstraint("budget", mask, K)
    expected = {name: modfam.discrete_modulus(sc, cons).infeasible
                for name, cons in constraints.items()}
    assert probe["infeasible"] == expected
    assert expected["avoid"] and expected["budget(0)"] and not expected["budget(1)"]


def test_probe_flags_obstacle_touching_marked_set():
    sc = modfam.rectangle_scene(2.0, 1.0, 64)
    mask = np.zeros(sc.shape, bool)
    mask[0, :] = True
    probe = cned_probe(mask, sc, budgets=[])
    assert probe["flags"]


def test_circle_mask_is_supercover():
    sc = modfam.annulus_scene(1.0, math.e, 96)
    m = (1 + math.e) / 2
    mask = circle_obstacle_mask(sc, (0.0, 0.0), m)
    # every point of the circle lies in some masked cell box
    for t in np.linspace(0, 2 * math.pi, 720):
        p = m * np.array([math.cos(t), math.sin(t)])
        cell = tuple(int((v - o) // sc.spacing) for v, o in zip(p, sc.origin))
        assert mask[cell]


def test_empty_classification_consistent_with_avoid_routing():
    # the avoid-mode search routes paths through the gap column of the
    # rastered product
    sc = modfam.rectangle_scene(1.0, 1.0, 81)
    third = make_cantor(1, fat=False)  # [0,1/3] u [2/3,1]
    E = product_set(third, interval_set(-1.0, 2.0))
    mask = sets.raster_mask(E, sc)
    # family joins bottom to top: the gap column is the only way through
    u = sc.u
    f1 = np.zeros_like(u); f1[:, 0] = True
    f2 = np.zeros_like(u); f2[:, -1] = True
    vert = modfam.GridScene(sc.spacing, sc.origin, u, f1, f2)
    res = modfam.discrete_modulus(vert, modfam.CurveConstraint("avoid", mask))
    assert not res.infeasible
    assert res.value > 0
