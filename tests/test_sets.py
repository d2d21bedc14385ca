import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import modfam, sets
from extremal.geom import DomainError, PolyCurve, hausdorff_content
from extremal.sets import (BoxRegion, CantorSpec, CirclePrim, IntervalUnionSet,
                           PackingSpec, PointPrim, PrimitiveUnionSet, Segment,
                           TriangleRegion, UnsupportedIntersection, cned_probe,
                           circle_obstacle_mask, curve_intersection_class,
                           gasket_spec, interval_set, make_cantor,
                           packing_residual, product_set,
                           sierpinski_carpet_spec)


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


# ---------------------------------------------------------------------------
# Products

def test_product_point_times_interval():
    g = IntervalUnionSet([(0, 0)])
    f = interval_set(0, 1)
    p = product_set(g, f)
    assert p.contains((0.0, 0.5))
    assert not p.contains((0.1, 0.5))


def test_product_slice_classifications():
    E = product_set(make_cantor(CantorSpec.middle_thirds(5)), interval_set(0, 1))
    horizontal = PolyCurve.segment((-0.5, 0.5), (1.5, 0.5))
    assert curve_intersection_class(E, horizontal).kind == "infinite-nulllength"
    gap = PolyCurve.segment((0.5, -1.0), (0.5, 2.0))
    assert curve_intersection_class(E, gap).kind == "empty"
    at_endpoint = PolyCurve.segment((Fraction(1, 3), -1.0), (Fraction(1, 3), 2.0))
    assert curve_intersection_class(E, at_endpoint).kind == "positive-length"


def test_fat_product_slice_is_positive_length():
    E = product_set(make_cantor(CantorSpec.fat(5)), interval_set(0, 1))
    horizontal = PolyCurve.segment((-0.5, 0.5), (1.5, 0.5))
    assert curve_intersection_class(E, horizontal).kind == "positive-length"


def test_product_area_is_product_of_measures():
    g = make_cantor(CantorSpec.fat(5))
    assert float(g.measure()) * 1.0 == pytest.approx(float(g.measure()))


def test_oblique_against_product_raises():
    E = product_set(make_cantor(CantorSpec.middle_thirds(3)), interval_set(0, 1))
    with pytest.raises(UnsupportedIntersection):
        curve_intersection_class(E, PolyCurve.segment((0, 0), (1, 1)))


def test_cantor_square_content_does_not_vanish():
    c = make_cantor(CantorSpec.middle_thirds(6))
    E = product_set(c, c)
    vals = [hausdorff_content(E, 1.0, delta=d) for d in (1 / 4, 1 / 16, 1 / 64)]
    assert all(v > 0.3 for v in vals)


# ---------------------------------------------------------------------------
# Packings

def test_square_annulus_frame():
    frame = packing_residual(PackingSpec(
        BoxRegion((0, 0), (1, 1)),
        [BoxRegion((Fraction(1, 4), Fraction(1, 4)),
                   (Fraction(3, 4), Fraction(3, 4)))]))
    assert frame.contains((0.1, 0.1))
    assert frame.contains((0.25, 0.5))      # boundary of the hole stays
    assert not frame.contains((0.5, 0.5))
    assert frame.residual_area() == Fraction(3, 4)


def test_carpet_generation_areas_and_validation():
    res = packing_residual(sierpinski_carpet_spec(3))
    assert res.residual_area() == Fraction(8, 9) ** 3
    assert not res.contains((0.5, 0.5))
    assert res.contains((0.0, 0.0))


def test_gasket_generation_three_area():
    res = packing_residual(gasket_spec(3))
    assert res.residual_area() == Fraction(1, 2) * Fraction(3, 4) ** 3


def test_overlapping_packing_rejected():
    spec = PackingSpec(BoxRegion((0, 0), (4, 4)),
                       [BoxRegion((0, 0), (2, 2)), BoxRegion((1, 1), (3, 3))])
    with pytest.raises(DomainError):
        packing_residual(spec)


def test_escaping_packing_rejected():
    spec = PackingSpec(BoxRegion((0, 0), (1, 1)), [BoxRegion((0.5, 0.5), (2, 2))])
    with pytest.raises(DomainError):
        packing_residual(spec)


def test_gasket_boundary_intersections_are_points():
    # removed medial triangles touch in finitely many points: no edge of one
    # overlaps an edge of another with positive length
    spec = gasket_spec(2)
    segs = []
    for t in spec.packed:
        segs.extend(t.edges())
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            _, ivs = sets._segment_segment_exact(segs[i][0], segs[i][1],
                                                 segs[j][0], segs[j][1])
            for lo, hi in ivs:
                assert lo == hi


def test_residual_segment_classification():
    frame = packing_residual(PackingSpec(
        BoxRegion((0, 0), (1, 1)),
        [BoxRegion((Fraction(1, 4), Fraction(1, 4)),
                   (Fraction(3, 4), Fraction(3, 4)))]))
    crossing = PolyCurve.segment((-0.5, 0.5), (1.5, 0.5))
    cls = curve_intersection_class(frame, crossing)
    assert cls.kind == "positive-length"
    inside_hole = PolyCurve.segment((0.3, 0.5), (0.7, 0.5))
    cls2 = curve_intersection_class(frame, inside_hole)
    assert cls2.kind == "empty"


# ---------------------------------------------------------------------------
# Primitive unions and exactness

def test_primitive_classification_counts():
    E = PrimitiveUnionSet([Segment((0.0, 0.0), (1.0, 0.0)),
                           PointPrim((0.75, 0.25))])
    diag = PolyCurve.segment((0.0, -0.5), (1.0, 0.5))  # hits both primitives
    cls = curve_intersection_class(E, diag)
    assert cls.kind == "finite"
    assert cls.count == 2


def test_intersection_points_satisfy_membership():
    # a point reported by intersection must pass the membership predicate
    E = PrimitiveUnionSet([Segment((0.0, 0.0), (1.0, 0.0))])
    diag = PolyCurve.segment((0.25, -1.0), (0.25, 1.0))
    cls = curve_intersection_class(E, diag)
    assert cls.count == 1
    for seg in cls.detail:
        if seg["class"] == "finite":
            pass
    assert E.contains((0.25, 0.0))


def test_collinear_overlap_is_positive_length():
    E = PrimitiveUnionSet([Segment((0.0, 0.0), (1.0, 0.0))])
    overlap = PolyCurve.segment((0.5, 0.0), (2.0, 0.0))
    assert curve_intersection_class(E, overlap).kind == "positive-length"


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


def test_json_roundtrips():
    c = make_cantor(CantorSpec.middle_thirds(3))
    c2 = IntervalUnionSet.from_json(c.to_json())
    assert c2.intervals == c.intervals
    E = product_set(c, interval_set(0, 1))
    assert E.to_json()["kind"] == "product"
    res = packing_residual(sierpinski_carpet_spec(1))
    assert res.to_json()["kind"] == "packing_residual"


def test_empty_classification_consistent_with_avoid_routing():
    # a vertical segment through a gap is classified empty, and the
    # avoid-mode search can route paths through the same gap column
    sc = modfam.rectangle_scene(1.0, 1.0, 81)
    third = make_cantor(CantorSpec.middle_thirds(1))  # [0,1/3] u [2/3,1]
    E = product_set(third, interval_set(-1.0, 2.0))
    gap_segment = PolyCurve.segment((0.5, -1.0), (0.5, 2.0))
    assert curve_intersection_class(E, gap_segment).kind == "empty"
    mask = sets.raster_mask(E, sc)
    # family joins bottom to top: the gap column is the only way through
    u = sc.u
    f1 = np.zeros_like(u); f1[:, 0] = True
    f2 = np.zeros_like(u); f2[:, -1] = True
    vert = modfam.GridScene(sc.spacing, sc.origin, u, f1, f2)
    res = modfam.discrete_modulus(vert, modfam.CurveConstraint("avoid", mask))
    assert not res.infeasible
    assert res.value > 0
