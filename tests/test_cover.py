import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal import cover, geom
from extremal.cover import (EggYolkPair, PairedFamily, affine_map, _disk_cloud,
                            egg_yolk_cover, normalize_comparable,
                            random_paired_family)
from extremal.geom import Ball, DomainError, Region, balls_disjoint


def test_covering_builds_fewer_trees_than_regions(monkeypatch):
    # merged clusters are never queried, so they build no kd-tree
    trees, regions = [], []
    tree, post_init = geom.cKDTree, geom.Region.__post_init__
    monkeypatch.setattr(geom, "cKDTree", lambda pts: trees.append(1) or tree(pts))
    monkeypatch.setattr(geom.Region, "__post_init__",
                        lambda self: regions.append(1) or post_init(self))
    res = egg_yolk_cover(random_paired_family(30, 4.0, "diag(2,1)", seed=77))
    assert all(res.report["verified"].values())
    assert 0 < len(trees) < len(regions)


# ---------------------------------------------------------------------------
# Egg-yolk pairs

def test_pair_constant_at_least_two():
    A = _disk_cloud(np.zeros(2), 2.0, 0.2)
    with pytest.raises(DomainError):
        EggYolkPair(A, Ball((0, 0), 1.0), 1.5)


def test_diameter_chain_for_certified_pairs():
    # diam(B) <= 2 r(B) <= diam(A) <= 2 M diam(B) on sampled pairs
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = float(rng.uniform(0.3, 1.0))
        M = float(rng.choice([2.0, 4.0, 8.0]))
        s = float(rng.uniform(2 * r, M * r))
        A = _disk_cloud(np.zeros(2), s, s / 9)
        EggYolkPair(A, Ball((0, 0), r), M)
        dA = A.diameter()
        tol = 2.5 * A.pitch
        assert 2 * r <= dA + tol
        assert dA <= 2 * M * (2 * r) + tol


def test_intersecting_yolks_comparable_diameters():
    # two non-nested pairs with intersecting yolks: diam ratio >= 1/(M(M+1))
    M = 4.0
    rng = np.random.default_rng(9)
    for _ in range(20):
        r1, r2 = rng.uniform(0.3, 1.0, 2)
        s1 = float(rng.uniform(2 * r1, M * r1))
        s2 = float(rng.uniform(2 * r2, M * r2))
        c2 = np.array([0.9 * (r1 + r2), 0.0])
        A1 = _disk_cloud(np.zeros(2), s1, s1 / 8)
        A2 = _disk_cloud(c2, s2, s2 / 8)
        nested = (cover._region_subset(A1, A2) or cover._region_subset(A2, A1))
        if nested:
            continue
        d1, d2 = A1.diameter(), A2.diameter()
        bound = 1.0 / (M * (M + 1))
        assert d2 >= bound * d1 * 0.9
        assert d1 >= bound * d2 * 0.9


# ---------------------------------------------------------------------------
# Auxiliary normalization

def test_normalize_collapses_nested_chain():
    ident = affine_map(np.eye(2))
    pairs = [EggYolkPair(_disk_cloud(np.zeros(2), s, 0.05), Ball((0, 0), s / 3.99), 4.0)
             for s in (1.0, 2.0, 3.9)]
    fam = PairedFamily(pairs, [EggYolkPair(p.region, p.yolk, 4.0) for p in pairs],
                       ident)
    red, rep = normalize_comparable(fam)
    assert len(red) == 1
    assert rep["kept_indices"] == [2]
    assert rep["comparability_constant"] == 4.0 * 5.0


def test_normalize_keeps_disjoint_family():
    ident = affine_map(np.eye(2))
    pairs = [EggYolkPair(_disk_cloud(np.array([4.0 * k, 0.0]), 1.5, 0.08),
                         Ball((4.0 * k, 0.0), 0.5), 4.0) for k in range(4)]
    fam = PairedFamily(pairs, [EggYolkPair(p.region, p.yolk, 4.0) for p in pairs],
                       ident)
    red, _ = normalize_comparable(fam)
    assert len(red) == 4


def test_normalize_output_comparability_under_map():
    fam = random_paired_family(20, 4.0, "diag(2,1)", seed=21)
    red, rep = normalize_comparable(fam)
    c = rep["comparability_constant"]
    for i in range(len(red)):
        for j in range(i + 1, len(red)):
            for side in (red.domain_pairs, red.range_pairs):
                bi, bj = side[i].yolk, side[j].yolk
                if not balls_disjoint(bi, bj):
                    di = side[i].region.diameter()
                    dj = side[j].region.diameter()
                    assert di <= c * dj * 1.1 and dj <= c * di * 1.1


def test_correspondence_violation_raises():
    fam = random_paired_family(5, 4.0, "identity", seed=2)
    broken = PairedFamily(fam.domain_pairs, fam.range_pairs,
                          affine_map(np.diag([3.0, 3.0])))
    with pytest.raises(DomainError):
        normalize_comparable(broken)


# ---------------------------------------------------------------------------
# Egg-yolk covering

def test_cover_single_pair_is_itself():
    fam = random_paired_family(1, 4.0, "identity", seed=1)
    res = egg_yolk_cover(fam)
    assert len(res.pairs) == 1
    assert all(res.report["verified"].values())


def test_cover_concentric_grid_exhaustive():
    # 5x5 grid of overlapping disks, yolk = half the region radius (A = 2B)
    ident = affine_map(np.eye(2))
    pairs = []
    for i in range(5):
        for j in range(5):
            c = np.array([i * 1.2, j * 1.2])
            pairs.append(EggYolkPair(_disk_cloud(c, 1.0, 0.1), Ball(c, 0.5), 2.0))
    fam = PairedFamily(pairs, [EggYolkPair(p.region, p.yolk, 2.0) for p in pairs],
                       ident)
    res = egg_yolk_cover(fam)
    ver = res.report["verified"]
    assert ver == {"union_equality": True, "image_correspondence": True,
                   "domain_yolks_disjoint": True, "range_yolks_disjoint": True}


def test_cover_anisotropic_reports_constant():
    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    # baseline from the first verified run of this configuration
    assert res.achieved_constant <= 25.0


def test_cover_takes_each_region_hull_once(monkeypatch):
    # normalize_comparable sorts by diameter and the first cluster pass takes
    # the diameters of the kept regions again; the second asks hit the cache
    hulls = []                    # the clouds themselves, so no id is reused

    def counted(pts):
        hulls.append(pts)
        return diameter(pts)
    diameter = geom._cloud_diameter
    monkeypatch.setattr(geom, "_cloud_diameter", counted)
    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    region = fam.domain_pairs[0].region
    assert region.diameter() == region.diameter() == diameter(region.samples)
    assert len(hulls) == 1
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    assert len(hulls) > 30
    assert len({id(pts) for pts in hulls}) == len(hulls)


@pytest.mark.parametrize("seed", range(12))
def test_cover_postconditions_randomized(seed):
    M = [2.0, 4.0, 8.0][seed % 3]
    name = ["identity", "rot+scale", "diag(2,1)"][seed % 3] if M >= 4 else "rot+scale"
    fam = random_paired_family(6 + seed, M, name, seed=1000 + seed)
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())


def test_anisotropic_map_needs_large_constant():
    with pytest.raises(DomainError):
        random_paired_family(4, 2.0, "diag(2,1)", seed=0)


def test_cover_result_json_records():
    fam = random_paired_family(8, 4.0, "identity", seed=5)
    res = egg_yolk_cover(fam)
    obj = res.to_json()
    assert len(obj["pairs"]) == len(res.pairs)
    rec = obj["pairs"][0]
    assert set(rec) == {"domain_yolk", "range_yolk", "region_samples", "members"}
    assert obj["certified_constant"] == res.achieved_constant


def test_non_injective_correspondence_rejected():
    fam = random_paired_family(4, 4.0, "identity", seed=8)
    collapse = affine_map(np.array([[0.0, 0.0], [0.0, 1.0]]))
    broken = PairedFamily(fam.domain_pairs, fam.range_pairs, collapse)
    with pytest.raises(DomainError):
        normalize_comparable(broken)


# ---------------------------------------------------------------------------
# Subset test with the bounding-box reject

def _brute_subset(a, b):
    tol = 0.75 * max(a.pitch, b.pitch) * math.sqrt(a.dim)
    return bool(b.contains_points(a.samples, tol=tol).all())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 3]),
       st.sampled_from([0.05, 0.1, 0.37]), st.integers(0, 2), st.booleans(),
       st.one_of(st.sampled_from([-1e-9, -1e-13, 0.0, 5e-13, 1e-12, 1.5e-12,
                                  1e-9, 0.2]),
                 st.floats(-3e-12, 3e-12)))
def test_region_subset_bbox_reject_agrees_with_brute_force(seed, dim, pitch, axis,
                                                           upper, delta):
    # b is a random cloud; a is part of b plus one point placed beyond b's
    # bbox along one axis by the query tolerance plus delta, so it sits just
    # inside or just outside the tolerance of b's extreme sample
    rng = np.random.default_rng(seed)
    axis = axis % dim
    b = Region(rng.uniform(-5.0, 5.0, size=(int(rng.integers(1, 40)), dim)), pitch)
    tol = 0.75 * pitch * math.sqrt(dim)
    ext = b.samples[np.argmax(b.samples[:, axis]) if upper
                    else np.argmin(b.samples[:, axis])].copy()
    ext[axis] += (tol + delta) if upper else -(tol + delta)
    inner = b.samples[:int(rng.integers(0, len(b.samples) + 1))]
    a = Region(np.vstack([inner, ext[None]]), pitch)
    assert cover._region_subset(a, b) == _brute_subset(a, b)
    assert cover._region_subset(b, a) == _brute_subset(b, a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_region_subset_agrees_on_random_families(seed):
    fam = random_paired_family(12, 4.0, "diag(2,1)", seed=seed)
    regions = [p.region for p in fam.domain_pairs + fam.range_pairs]
    for a in regions:
        for b in regions:
            assert cover._region_subset(a, b) == _brute_subset(a, b)
