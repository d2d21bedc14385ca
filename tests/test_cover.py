import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from extremal import cover, geom
from extremal.cover import (EggYolkPair, PairedFamily, affine_map, _disk_cloud,
                            egg_yolk_cover, normalize_comparable,
                            random_paired_family, verify_cover)
from extremal.geom import Ball, DomainError, Region, balls_disjoint_matrix


def test_covering_builds_fewer_trees_than_regions(monkeypatch):
    # domain regions the subset screen rules out are never queried, so they
    # build no kd-tree; nor do image rows equal to their range samples, or
    # output rows copied from input rows
    trees, regions = [], []
    tree, post_init = geom.cKDTree, geom.Region.__post_init__
    for mod in (geom, cover):
        monkeypatch.setattr(mod, "cKDTree",
                            lambda pts, **kw: trees.append(1) or tree(pts, **kw))
    monkeypatch.setattr(geom.Region, "__post_init__",
                        lambda self: regions.append(1) or post_init(self))
    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    fam.check_correspondence()
    assert trees == []
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    assert 0 < len(trees) < len(regions)
    trees.clear()
    assert all(verify_cover(fam, res.pairs).values())
    assert len(trees) <= 1

    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    pts = fam.range_pairs[11].region.samples
    pts[5, 0] = np.nextafter(pts[5, 0], np.inf)
    trees.clear()
    fam.check_correspondence()
    assert len(trees) == 1


# ---------------------------------------------------------------------------
# Egg-yolk pairs

def test_diameter_chain_for_certified_pairs():
    # diam(B) <= 2 r(B) <= diam(A) <= 2 M diam(B) on sampled pairs
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = float(rng.uniform(0.3, 1.0))
        M = float(rng.choice([2.0, 4.0, 8.0]))
        s = float(rng.uniform(2 * r, M * r))
        A = _disk_cloud(np.zeros(2), s, s / 9)
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
        nested = _brute_subset(A1, A2) or _brute_subset(A2, A1)
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
    pairs = [EggYolkPair(_disk_cloud(np.zeros(2), s, 0.05), Ball((0, 0), s / 3.99))
             for s in (1.0, 2.0, 3.9)]
    fam = PairedFamily(pairs, [EggYolkPair(p.region, p.yolk) for p in pairs],
                       ident)
    red, rep = normalize_comparable(fam)
    assert len(red) == 1
    assert rep["kept_indices"] == [2]


def test_normalize_keeps_disjoint_family():
    ident = affine_map(np.eye(2))
    pairs = [EggYolkPair(_disk_cloud(np.array([4.0 * k, 0.0]), 1.5, 0.08),
                         Ball((4.0 * k, 0.0), 0.5)) for k in range(4)]
    fam = PairedFamily(pairs, [EggYolkPair(p.region, p.yolk) for p in pairs],
                       ident)
    red, _ = normalize_comparable(fam)
    assert len(red) == 4


def test_normalize_output_comparability_under_map():
    M = 4.0
    fam = random_paired_family(20, M, "diag(2,1)", seed=21)
    red, _ = normalize_comparable(fam)
    c = M * (M + 1)           # the comparability constant of M-egg-yolk pairs
    apart = [balls_disjoint_matrix([p.yolk for p in side])
             for side in (red.domain_pairs, red.range_pairs)]
    for i in range(len(red)):
        for j in range(i + 1, len(red)):
            for side, side_apart in zip((red.domain_pairs, red.range_pairs), apart):
                if not side_apart[i, j]:
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
            pairs.append(EggYolkPair(_disk_cloud(c, 1.0, 0.1), Ball(c, 0.5)))
    fam = PairedFamily(pairs, [EggYolkPair(p.region, p.yolk) for p in pairs],
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
    # the diameters of the kept regions again; the second asks hit the cache,
    # and a merged cluster hulls only the hull vertices of its members
    hulls = []                    # the clouds themselves, so no id is reused

    def counted(pts):
        hulls.append(pts)
        return hull_points(pts)
    hull_points = geom._hull_points
    monkeypatch.setattr(geom, "_hull_points", counted)
    region = random_paired_family(30, 4.0, "diag(2,1)", seed=77).domain_pairs[0].region
    assert region.diameter() == region.diameter()
    assert len(hulls) == 1
    assert region.diameter() == geom._cloud_diameter(region.samples)

    hulls.clear()
    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    assert len(hulls) > 30
    assert len({id(pts) for pts in hulls}) == len(hulls)
    regions = [p.region for p in fam.domain_pairs + fam.range_pairs]
    for p in fam.domain_pairs:
        assert sum(pts is p.region.samples for pts in hulls) == 1
    merged = [pts for pts in hulls if not any(pts is r.samples for r in regions)]
    assert merged
    vertices = {tuple(v) for r in regions for v in r.hull}
    for pts in merged:
        assert {tuple(v) for v in pts} <= vertices


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 30),
       st.sampled_from([(4.0, "diag(2,1)"), (8.0, "rot+scale"), (2.0, "identity")]))
def test_phase_two_diameters_are_those_of_the_merged_clouds(seed, n_pairs, M_map):
    # each cluster's diameter, taken from its members' hull vertices, is the
    # diameter of all the samples of its members, to the bit
    calls = []

    def recorded(*args):
        calls.append((args, cluster_pass(*args)))
        return calls[-1][1]
    cluster_pass = cover._cluster_pass
    fam = random_paired_family(n_pairs, *M_map, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cover, "_cluster_pass", recorded)
        res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    kept = res.report["kept_indices"]
    (_, (clusters1, _)), ((rng_diam, dom_diam, _), _) = calls
    for pairs, diams in ((fam.range_pairs, rng_diam), (fam.domain_pairs, dom_diam)):
        assert diams == [geom._cloud_diameter(
            np.vstack([pairs[kept[i]].region.samples for i in c])) for c in clusters1]


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


def test_image_check_has_no_relative_tolerance():
    # one range point moved by 1e-6 of itself, about 1e-5, is a thousand
    # times the absolute tolerance of about 1e-8 that the check states
    fam = random_paired_family(8, 4.0, "identity", seed=5)
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    pts = res.pairs[0].range_points
    pts[np.argmax(np.abs(pts).sum(axis=1))] *= 1 + 1e-6
    ver = verify_cover(fam, res.pairs)
    assert ver["image_correspondence"] is False
    assert ver["union_equality"] and ver["domain_yolks_disjoint"]


@pytest.mark.parametrize("domain_samples", [[[50.0, 50.0]],
                                            [[50.0, 50.0], [50.0, 50.05]]])
def test_one_sample_region_is_a_domain_error(domain_samples):
    # an isolated pair with one sample on either side has zero diameter,
    # which no dyadic generation holds
    fam = random_paired_family(8, 4.0, "identity", seed=5)
    lone_dom = EggYolkPair(Region(np.array(domain_samples), 0.1),
                           Ball((50.0, 50.0), 0.05))
    lone_rng = EggYolkPair(Region(np.array([[50.0, 50.0]]), 0.1),
                           Ball((50.0, 50.0), 0.05))
    fam = PairedFamily(fam.domain_pairs + [lone_dom], fam.range_pairs + [lone_rng],
                       fam.forward)
    with pytest.raises(DomainError, match="pair 8 has a region of zero diameter"):
        egg_yolk_cover(fam)


# ---------------------------------------------------------------------------
# Subset screen: the bounding-box reject of every ordered pair at once

def _brute_subset(a, b):
    tol = 0.75 * max(a.pitch, b.pitch) * math.sqrt(a.samples.shape[1])
    return bool(b.contains_points(a.samples, tol=tol).all())


def _screened_subset(regions):
    """Subset matrix as normalize_comparable decides it: the screen, then
    the kd-tree query at the screen's tolerance."""
    tol, may = cover._subset_screen(regions)
    return [[bool(may[i, j]) and bool(b.contains_points(a.samples, tol[i, j]).all())
             for j, b in enumerate(regions)] for i, a in enumerate(regions)]


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
    assert _screened_subset([a, b]) == [[_brute_subset(x, y) for y in (a, b)]
                                        for x in (a, b)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_region_subset_agrees_on_random_families(seed):
    fam = random_paired_family(12, 4.0, "diag(2,1)", seed=seed)
    regions = [p.region for p in fam.domain_pairs + fam.range_pairs]
    assert _screened_subset(regions) == [[_brute_subset(a, b) for b in regions]
                                         for a in regions]


# ---------------------------------------------------------------------------
# Family-wide correspondence check and cloud subset: exact rows first

def _correspondence_reference(fam):
    """Test reference: the per-pair check, each pair's image taken alone and
    queried against a kd-tree over its range region."""
    for i, (dp, rp) in enumerate(zip(fam.domain_pairs, fam.range_pairs)):
        img = fam.forward(dp.region.samples)
        tol = 1.5 * rp.region.pitch * math.sqrt(img.shape[1])
        if not (cKDTree(rp.region.samples).query(img, k=1)[0] <= tol + 1e-12).all():
            raise DomainError(f"correspondence violated on pair {i}")
        if len(img) > 1:
            gaps = np.linalg.norm(np.diff(img[np.lexsort(img.T)], axis=0), axis=1)
            if gaps.min() < 1e-12 * (1 + np.abs(img).max()):
                raise DomainError(f"sampled correspondence not injective on pair {i}")


def _cloud_subset_reference(a, b, pitch):
    """Test reference: every row of a queried against a kd-tree over b."""
    d, _ = cKDTree(b).query(a, k=1)
    return bool((d <= 0.75 * pitch * math.sqrt(a.shape[1])).all())


def _same_union_reference(a, b, pitch):
    """Test reference: a within b, then b within a, each by a kd-tree."""
    return _cloud_subset_reference(a, b, pitch) and _cloud_subset_reference(b, a, pitch)


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:                 # DomainError is one
        return type(exc), str(exc)


def _edited_family(seed, n, map_name, edits):
    """n sparse random pairs under a named map.  "repeat" gives the next
    pair the same domain samples; "collapse" and "near" send one domain
    sample of the pair onto (or next to) the image of another; the other
    edits change the pair's range samples ("far" moves them all 100 away,
    "negative" negates the range pitch)."""
    rng = np.random.default_rng(seed)
    mat = cover.NAMED_MAPS[map_name]
    dom = [Region(rng.uniform(-4, 4, (int(rng.integers(1, 9)), 2)) + 10.0 * k,
                  float(rng.uniform(0.05, 0.3))) for k in range(n)]
    for i, kind in edits:
        if kind == "repeat":
            dom[(i + 1) % n] = dom[i % n]
    moved = []

    def forward(pts):
        img = np.atleast_2d(pts) @ mat.T
        for q, target in moved:
            img[(pts == q).all(axis=1)] = target
        return img

    for i, kind in edits:
        d = dom[i % n].samples
        if kind in ("collapse", "near") and len(d) > 1:
            shift = 0.0 if kind == "collapse" else float(rng.choice([0.5, 1.0, 2.0])) * 1e-10
            moved.append((d[0], d[1] @ mat.T + shift))
    ranges = [forward(d.samples) for d in dom]
    for i, kind in edits:
        r, pitch = ranges[i % n], dom[i % n].pitch
        j, ax = int(rng.integers(len(r))), int(rng.integers(2))
        tol = 1.5 * pitch * math.sqrt(2)
        if kind == "ulp":
            r[j, ax] = np.nextafter(r[j, ax], rng.choice([-np.inf, np.inf]))
        elif kind in ("inside", "outside"):
            r[j, ax] += tol + 1e-12 + (-1e-13 if kind == "inside" else 1e-13)
        elif kind == "far":
            ranges[i % n] = r + 100.0
        elif kind == "permute":
            ranges[i % n] = r[rng.permutation(len(r))]
        elif kind == "drop" and len(r) > 1:
            ranges[i % n] = np.delete(r, j, axis=0)
        elif kind == "extra":
            ranges[i % n] = np.vstack([r, r[j] + rng.choice([3.0, np.inf, np.nan])])
    sign = {i % n: -1.0 if kind == "negative" else 1.0 for i, kind in edits}
    return PairedFamily(
        [EggYolkPair(d, Ball(d.samples[0], 1.0)) for d in dom],
        [EggYolkPair(Region(r, sign.get(k, 1.0) * d.pitch), Ball(r[0], 1.0))
         for k, (d, r) in enumerate(zip(dom, ranges))], forward)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6),
       st.sampled_from(sorted(cover.NAMED_MAPS)),
       st.lists(st.tuples(st.integers(0, 5),
                          st.sampled_from(["none", "ulp", "inside", "outside", "far",
                                           "permute", "drop", "extra", "negative",
                                           "repeat", "collapse", "near"])),
                max_size=4))
def test_family_correspondence_check_agrees_with_per_pair_reference(seed, n, map_name,
                                                                    edits):
    fam = _edited_family(seed, n, map_name, edits)
    assert (_outcome(PairedFamily.check_correspondence, fam)
            == _outcome(_correspondence_reference, fam))


@pytest.mark.parametrize("far, collapse", [(1, 3), (3, 1), (2, 2)])
def test_lowest_failing_pair_is_reported_containment_first(far, collapse):
    fam = _edited_family(7, 5, "rot+scale", [(far, "far"), (collapse, "collapse")])
    assert min(len(p.region.samples) for p in fam.domain_pairs) > 1
    want = (f"correspondence violated on pair {far}" if far <= collapse
            else f"sampled correspondence not injective on pair {collapse}")
    with pytest.raises(DomainError, match=want):
        fam.check_correspondence()
    assert _outcome(_correspondence_reference, fam) == (DomainError, want)


def test_range_rows_of_the_next_pair_settle_nothing():
    # pair 0's range lacks the image of q, which pair 1's range holds at the
    # row just after pair 0's: the row of q in pair 0 has no range row of its
    # own to equal
    p, q = [0.0, 0.0], [5.0, 0.0]
    dom = Region(np.array([p, q]), 0.1)
    fam = PairedFamily([EggYolkPair(dom, Ball(p, 1.0))] * 2,
                       [EggYolkPair(Region(np.array(r), 0.1), Ball(p, 1.0))
                        for r in ([p], [q, p])], affine_map(np.eye(2)))
    with pytest.raises(DomainError, match="correspondence violated on pair 0"):
        fam.check_correspondence()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 3]),
       st.sampled_from([0.0, 0.05, 0.3, -0.1]),
       st.lists(st.sampled_from(["copy", "dup", "negzero", "ulp", "inside",
                                 "outside", "far"]), min_size=1, max_size=6),
       st.booleans())
def test_cloud_subset_agrees_with_kd_tree_reference(seed, dim, pitch, kinds, with_all):
    # b holds exact zeros and duplicate rows; a takes rows of b exactly, with
    # -0.0 for 0.0, 1 ulp off, or at the tolerance -+ 1e-13
    rng = np.random.default_rng(seed)
    b = rng.integers(-3, 4, (int(rng.integers(1, 30)), dim)) * 0.5
    tol = 0.75 * pitch * math.sqrt(dim)
    rows = [b[rng.permutation(len(b))]] if with_all else []
    for kind in kinds:
        j, ax = int(rng.integers(len(b))), int(rng.integers(dim))
        r = b[j].copy()
        if kind == "dup":
            r = np.vstack([r, r])
        elif kind == "negzero":
            b[j, ax] = 0.0
            r[ax] = -0.0
        elif kind == "ulp":
            r[ax] = np.nextafter(r[ax], rng.choice([-np.inf, np.inf]))
        elif kind in ("inside", "outside"):
            r[ax] += tol + (-1e-13 if kind == "inside" else 1e-13)
        elif kind == "far":
            r[ax] += 10.0
        rows.append(np.atleast_2d(r))
    a = np.vstack(rows)
    for x, y in ((a, b), (b, a)):
        assert _outcome(cover._same_union, x, y, pitch) == _outcome(
            _same_union_reference, x, y, pitch)


def test_cloud_subset_settles_negative_zero_without_a_tree(monkeypatch):
    monkeypatch.setattr(cover, "cKDTree", None)
    b = np.array([[0.0, 1.0], [-0.0, -0.0], [2.0, 0.0]])
    a = np.array([[-0.0, 1.0], [0.0, 0.0], [2.0, -0.0], [0.0, 1.0]])
    assert cover._same_union(a, b, 0.0) and cover._same_union(b, a, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["a", "b"])
def test_cloud_subset_non_finite_sample_gives_the_tree_outcome(bad, where):
    # every finite row of a is a row of b, so only the tree sees the bad one
    b = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    a = b[:2].copy()
    if where == "a":
        a[1, 0] = bad
    else:
        b[2, 1] = bad
    got = _outcome(cover._same_union, a, b, 0.1)
    assert got == _outcome(_same_union_reference, a, b, 0.1)
    assert got[0] is ValueError
