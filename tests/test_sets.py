import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extremal import modfam, sets
from extremal.geom import DomainError, hausdorff_content
from extremal.sets import (CantorSpec, IntervalUnionSet, PointPrim,
                           PrimitiveUnionSet, Segment, cned_probe,
                           circle_obstacle_mask, interval_set, make_cantor,
                           product_set)


# ---------------------------------------------------------------------------
# Cantor constructions

@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_middle_thirds_measure_exact(k):
    c = make_cantor(CantorSpec.middle_thirds(k))
    assert c.measure() == Fraction(2, 3) ** k


def test_depth_zero_is_base_interval():
    c = make_cantor(CantorSpec(base=(Fraction(1), Fraction(3)), depth=0))
    assert c.intervals == [(Fraction(1), Fraction(3))]


def test_fat_cantor_measure_matches_product():
    spec = CantorSpec.fat(6)
    c = make_cantor(spec)
    expected = Fraction(1)
    for k in range(1, 7):
        expected *= 1 - Fraction(1, 4 ** k)
    assert c.measure() == expected
    assert expected > Fraction(1, 2)
    assert not c.limit_measure_zero


def test_cantor_rejects_bad_fractions():
    with pytest.raises(DomainError):
        make_cantor(CantorSpec(fractions=(Fraction(3, 2),), depth=2))


@settings(max_examples=40, deadline=None)
@given(num=st.integers(0, 3 ** 7), k=st.integers(1, 6))
def test_cantor_monotone_in_depth(num, k):
    x = Fraction(num, 3 ** 7)
    deep = make_cantor(CantorSpec.middle_thirds(k + 1))
    shallow = make_cantor(CantorSpec.middle_thirds(k))
    if deep.contains_fraction(x):
        assert shallow.contains_fraction(x)


# dyadic endpoints are floats; the others lie strictly between two floats
_endpoints = st.builds(Fraction, st.integers(-60, 60),
                       st.sampled_from([1, 2, 8, 64, 3, 7, 10, 27, 81]))


@settings(max_examples=150, deadline=None)
@example(ends=[Fraction(1, 3)])
@given(ends=st.lists(_endpoints, min_size=1, max_size=8))
def test_float_interval_queries_match_exact(ends):
    # consecutive sorted endpoints pair up; an odd one out is a point
    ends = sorted(ends)
    E = IntervalUnionSet([(ends[i], ends[min(i + 1, len(ends) - 1)])
                          for i in range(0, len(ends), 2)])
    xs = sorted({q for e in ends for f in (float(e),)
                 for q in (math.nextafter(f, -math.inf), f,
                           math.nextafter(f, math.inf))})
    assert E.contains_float_batch(np.array(xs)).tolist() == [
        E.contains(x) for x in xs]
    a, b = map(np.array, zip(*[(x, y) for i, x in enumerate(xs)
                               for y in xs[i:i + 4]]))
    assert E.intersects_intervals_batch(a, b).tolist() == [
        E.intersects_interval(x, y) for x, y in zip(a.tolist(), b.tolist())]


# ---------------------------------------------------------------------------
# Products

def _length(intervals) -> Fraction:
    return sum((b - a for a, b in intervals), Fraction(0))


def test_product_point_times_interval():
    # a point of the plane is a degenerate box
    g = IntervalUnionSet([(0, 0)])
    f = interval_set(0, 1)
    p = product_set(g, f)
    pts = np.array([[0.0, 0.5], [0.1, 0.5]])
    assert p.intersects_boxes_batch(pts, pts).tolist() == [True, False]


def test_product_slice_classifications():
    # axis-parallel segments as degenerate boxes: the horizontal slice at
    # y = 1/2 is the Cantor factor, the vertical one through the gap at
    # x = 1/2 is empty, the one through the endpoint 1/3 is a unit segment
    E = product_set(make_cantor(CantorSpec.middle_thirds(5)), interval_set(0, 1))
    lo = np.array([[-0.5, 0.5], [0.5, -1.0], [1 / 3, -1.0]])
    hi = np.array([[1.5, 0.5], [0.5, 2.0], [1 / 3, 2.0]])
    assert E.intersects_boxes_batch(lo, hi).tolist() == [True, False, True]
    assert _length(E.gx.intersect_interval(-0.5, 1.5)) == Fraction(2, 3) ** 5
    assert E.gx.limit_measure_zero
    assert _length(E.fy.intersect_interval(-1.0, 2.0)) == 1


def test_fat_product_slice_is_positive_length():
    E = product_set(make_cantor(CantorSpec.fat(5)), interval_set(0, 1))
    lo, hi = np.array([[-0.5, 0.5]]), np.array([[1.5, 0.5]])
    assert E.intersects_boxes_batch(lo, hi).tolist() == [True]
    assert _length(E.gx.intersect_interval(-0.5, 1.5)) == E.gx.measure() > 0
    assert not E.gx.limit_measure_zero

def test_product_area_is_product_of_measures():
    g = make_cantor(CantorSpec.fat(5))
    assert float(g.measure()) * 1.0 == pytest.approx(float(g.measure()))


def test_cantor_square_content_does_not_vanish():
    c = make_cantor(CantorSpec.middle_thirds(6))
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
    gap = mask.copy()
    gap[sc.shape[0] // 2:, sc.shape[1] // 2] = False
    calls.clear()
    cned_probe(gap, sc, budgets=[1, 2])
    assert len(calls) == 2


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
    third = make_cantor(CantorSpec.middle_thirds(1))  # [0,1/3] u [2/3,1]
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
