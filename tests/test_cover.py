import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from extremal import cover, geom
from extremal.cover import (FamilySide, PairedFamily, egg_yolk_cover, normalize_comparable,
                            random_paired_family, verify_cover)
from extremal.geom import Ball, DomainError, Region, balls_disjoint_matrix


def _side(pairs):
    """A stacked family side from (Region, Ball) pairs."""
    regions, yolks = zip(*pairs)
    n = np.array([len(r.samples) for r in regions])
    return FamilySide(np.vstack([r.samples for r in regions]), np.cumsum(n) - n,
                      np.array([r.pitch for r in regions], float),
                      np.array([b.center for b in yolks]),
                      np.array([b.radius for b in yolks], float))


def _pairs(side):
    """The (Region, Ball) pairs of a stacked family side."""
    return [(Region(side.cloud(k), side.pitch[k]), Ball(side.centers[k], side.radii[k]))
            for k in range(len(side))]


def _disk_cloud(center, radius, pitch) -> Region:
    """Test reference: one lattice disk of ``random_paired_family``, built
    alone."""
    n = max(3, int(math.ceil(2 * radius / pitch)))
    ax = center[0] - radius + pitch * (np.arange(n) + 0.5)
    ay = center[1] - radius + pitch * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(ax, ay, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    keep = np.linalg.norm(pts - np.asarray(center), axis=1) < radius
    return Region(pts[keep], pitch)


def _family_reference(n_pairs, M, map_name, seed):
    """Test reference: ``random_paired_family``'s draws, each disk built and
    mapped alone."""
    mat = cover.NAMED_MAPS[map_name]
    smin = np.linalg.svd(mat, compute_uv=False)[-1]
    rng = np.random.default_rng(seed)
    dom, img = [], []
    for _ in range(n_pairs):
        r = float(rng.uniform(0.35, 1.0))
        s = float(rng.uniform(2 * r, M * r))
        center = rng.uniform(0, 10.0, size=2)
        region = _disk_cloud(center, s, s / 7)
        dom.append((region, Ball(center, r)))
        img.append((Region(np.atleast_2d(region.samples) @ mat.T, region.pitch * smin),
                    Ball((np.atleast_2d(center[None]) @ mat.T)[0], s * smin / 2)))
    return PairedFamily(_side(dom), _side(img), mat)


@pytest.mark.parametrize("map_name, M", [("identity", 2.0), ("identity", 8.0),
                                         ("diag(2,1)", 4.0), ("diag(2,1)", 5.5),
                                         ("rot+scale", 2.0), ("rot+scale", 8.0)])
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_generator_matches_per_pair_reference(map_name, M, seed):
    got = random_paired_family(25, M, map_name, seed)
    want = _family_reference(25, M, map_name, seed)
    assert got.matrix.tolist() == want.matrix.tolist()
    for a, b in ((got.domain, want.domain), (got.range, want.range)):
        for field in ("samples", "start", "pitch", "centers", "radii"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()


def test_covering_builds_fewer_trees_than_regions(monkeypatch):
    # only kept domain regions become Regions, and only those the subset
    # screen cannot rule out are queried, so only they build a kd-tree; image
    # rows equal to their range samples, and output rows copied from input
    # rows, build none
    trees, regions = [], []
    tree, post_init = geom.cKDTree, geom.Region.__post_init__
    for mod in (geom, cover):
        monkeypatch.setattr(mod, "cKDTree",
                            lambda pts, **kw: trees.append(1) or tree(pts, **kw))
    monkeypatch.setattr(geom.Region, "__post_init__",
                        lambda self: regions.append(1) or post_init(self))
    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    fam.check_correspondence()
    assert trees == [] and regions == []
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    assert 0 < len(trees) < len(regions) < len(fam)
    trees.clear()
    assert all(verify_cover(fam, res.pairs).values())
    assert len(trees) <= 1

    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    fam.range.samples[fam.range.start[11] + 5, 0] = np.nextafter(
        fam.range.samples[fam.range.start[11] + 5, 0], np.inf)
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
    pairs = [(_disk_cloud(np.zeros(2), s, 0.05), Ball((0, 0), s / 3.99))
             for s in (1.0, 2.0, 3.9)]
    fam = PairedFamily(_side(pairs), _side(pairs), np.eye(2))
    red, rep = normalize_comparable(fam)
    assert len(red) == 1
    assert rep["kept_indices"] == [2]


def test_normalize_keeps_disjoint_family():
    pairs = [(_disk_cloud(np.array([4.0 * k, 0.0]), 1.5, 0.08),
              Ball((4.0 * k, 0.0), 0.5)) for k in range(4)]
    fam = PairedFamily(_side(pairs), _side(pairs), np.eye(2))
    red, _ = normalize_comparable(fam)
    assert len(red) == 4


def test_normalize_output_comparability_under_map():
    M = 4.0
    fam = random_paired_family(20, M, "diag(2,1)", seed=21)
    red, _ = normalize_comparable(fam)
    c = M * (M + 1)           # the comparability constant of M-egg-yolk pairs
    apart = [balls_disjoint_matrix(side.centers, side.radii)
             for side in (red.domain, red.range)]
    for i in range(len(red)):
        for j in range(i + 1, len(red)):
            for side, side_apart in zip((red.domain, red.range), apart):
                if not side_apart[i, j]:
                    di = Region(side.cloud(i), side.pitch[i]).diameter()
                    dj = Region(side.cloud(j), side.pitch[j]).diameter()
                    assert di <= c * dj * 1.1 and dj <= c * di * 1.1


def test_correspondence_violation_raises():
    fam = random_paired_family(5, 4.0, "identity", seed=2)
    broken = PairedFamily(fam.domain, fam.range, np.diag([3.0, 3.0]))
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
    pairs = []
    for i in range(5):
        for j in range(5):
            c = np.array([i * 1.2, j * 1.2])
            pairs.append((_disk_cloud(c, 1.0, 0.1), Ball(c, 0.5)))
    fam = PairedFamily(_side(pairs), _side(pairs), np.eye(2))
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


def test_cover_takes_no_convex_hull(monkeypatch):
    # every diameter of a covering comes from line extremes: cover holds no
    # hull routine, and a covering of either catalog map calls none in geom
    assert {"ConvexHull", "_hull_points", "_cloud_diameter"}.isdisjoint(vars(cover))
    hulls = []
    for name in ("ConvexHull", "_hull_points", "_cloud_diameter"):
        monkeypatch.setattr(geom, name, lambda *args, name=name: hulls.append(name))
    for M, map_name in ((4.0, "diag(2,1)"), (8.0, "rot+scale")):
        res = egg_yolk_cover(random_paired_family(30, M, map_name, seed=77))
        assert all(res.report["verified"].values())
    assert hulls == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 30),
       st.sampled_from([(4.0, "diag(2,1)"), (8.0, "rot+scale"), (2.0, "identity")]))
def test_phase_two_diameters_are_those_of_the_merged_clouds(seed, n_pairs, M_map):
    # each kept region's diameter, and each cluster's, taken from line
    # extremes, is the Qhull diameter of all its samples, to the bit
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
    ((dom_diam, rng_diam, _, _), (clusters1, _)), ((rng_merged, dom_merged, _, _), _) = calls
    for side, diams, merged in ((fam.domain, dom_diam, dom_merged),
                                (fam.range, rng_diam, rng_merged)):
        assert diams.tolist() == [geom._cloud_diameter(side.cloud(k)) for k in kept]
        assert merged.tolist() == [geom._cloud_diameter(
            np.vstack([side.cloud(kept[i]) for i in c])) for c in clusters1]


@st.composite
def _cloud(draw, dim):
    """A lattice cloud (a box, a ball or a line of cells, with exact ties on
    every axis line), a random one, or one point."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["box", "ball", "line", "random", "point"]))
    pitch = float(rng.choice([0.1, 0.37, 1 / 3, 2.0]))
    origin = rng.uniform(-10, 10, dim)
    if shape == "random":
        return rng.normal(size=(int(rng.integers(2, 60)), dim)) * rng.uniform(0.1, 10)
    if shape == "point":
        return origin[None]
    if shape == "line":                 # collinear cells along a lattice direction
        step = rng.integers(-2, 3, dim)
        step[int(rng.integers(dim))] = 1
        cells = np.arange(int(rng.integers(2, 20)))[:, None] * step
    else:
        cells = np.stack(np.meshgrid(*[np.arange(int(rng.integers(1, 8)))] * dim,
                                     indexing="ij"), -1).reshape(-1, dim)
    pts = origin + pitch * (cells + 0.5)
    if shape == "ball":
        d = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        ball = pts[d < d.max()]
        pts = ball if len(ball) else pts
    return pts


@st.composite
def _linear_map(draw, dim):
    """A random matrix, or a singular one: rank one, or with a zero column."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "rank-one", "zero-column"]))
    mat = rng.normal(size=(dim, dim))
    if kind == "rank-one":
        mat = np.outer(rng.normal(size=dim), rng.normal(size=dim))
    elif kind == "zero-column":
        mat[:, int(rng.integers(dim))] = 0.0
    return mat


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_line_extreme_diameters_are_the_qhull_diameters(dim, data):
    # each region's diameter on both sides, from its line extremes or, for a
    # range region that is not its domain's image row for row, from all of
    # its samples, is the Qhull diameter to the bit, and the largest
    # pairwise distance over all the region's samples
    clouds = data.draw(st.lists(_cloud(dim), min_size=1, max_size=6))
    mat = data.draw(_linear_map(dim))
    dom = _side([(Region(c, 0.1), Ball(c[0], 1.0)) for c in clouds])
    img = np.split(dom.samples @ mat.T, dom.start[1:])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for k, kind in data.draw(st.lists(st.tuples(st.integers(0, len(clouds) - 1),
                                                st.sampled_from(["permute", "drop",
                                                                 "extra"])),
                                      max_size=3)):
        r = img[k]
        if kind == "permute":
            img[k] = r[rng.permutation(len(r))]
        elif kind == "drop" and len(r) > 1:
            img[k] = np.delete(r, int(rng.integers(len(r))), axis=0)
        elif kind == "extra":
            img[k] = np.vstack([r, r[0] + rng.normal(size=dim)])
    fam = PairedFamily(dom, _side([(Region(r, 0.1), Ball(r[0], 1.0)) for r in img]), mat)
    (_, _, dom_diam), (_, _, rng_diam) = cover._diameters(fam)
    for side, diams in ((fam.domain, dom_diam), (fam.range, rng_diam)):
        clouds = [side.cloud(k) for k in range(len(side))]
        assert diams.tolist() == [geom._cloud_diameter(c) for c in clouds]
        # and the largest distance over all pairs of samples
        assert diams.tolist() == [geom._farthest(c) for c in clouds]


@pytest.mark.parametrize("kind", ["none", "permute", "drop", "extra"])
def test_range_region_not_aligned_takes_all_its_samples(kind):
    # a range region whose rows are its domain's image takes the images of
    # the domain's line extremes; any other takes all of its rows, and every
    # range diameter stays exact
    fam = random_paired_family(12, 8.0, "rot+scale", seed=3)
    pairs = _pairs(fam.range)
    r = pairs[4][0].samples
    edited = {"none": r, "permute": r[::-1], "drop": r[1:],
              "extra": np.vstack([r, r.mean(axis=0)])}[kind]
    pairs[4] = (Region(edited, pairs[4][0].pitch), pairs[4][1])
    fam = PairedFamily(fam.domain, _side(pairs), fam.matrix)
    (_, dom_n, _), (_, rng_n, rng_diam) = cover._diameters(fam)
    aligned = (rng_n == dom_n) & (rng_n < fam.range.count)
    assert aligned.tolist() == ([True] * 12 if kind == "none" else
                                [True] * 4 + [False] + [True] * 7 if kind == "permute"
                                else [False] * 12)
    assert rng_n[~aligned].tolist() == fam.range.count[~aligned].tolist()
    assert rng_diam.tolist() == [geom._cloud_diameter(fam.range.cloud(k))
                                 for k in range(12)]


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
    broken = PairedFamily(fam.domain, fam.range, np.array([[0.0, 0.0], [0.0, 1.0]]))
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


def _image_reference(fam, pairs):
    """Test reference: each output pair's image checked alone, at its own
    absolute tolerance."""
    for cp in pairs:
        img = fam.forward(cp.domain_points)
        if img.shape != cp.range_points.shape or not np.allclose(
                img, cp.range_points, rtol=0.0, atol=1e-9 * (1 + np.abs(img).max())):
            return False
    return True


@pytest.mark.parametrize("seed", range(4))
def test_stacked_postconditions_match_per_pair_reference(seed):
    # the achieved constant and the image check, taken over the stacked
    # output rows, are the per-pair loops' to the bit; a range sample moved
    # past its own pair's image tolerance fails, one moved within it passes
    fam = random_paired_family(20, 8.0, "rot+scale", seed=seed)
    res = egg_yolk_cover(fam)
    want = 2.0
    for cp in res.pairs:
        for pts, yolk in ((cp.domain_points, cp.domain_yolk),
                          (cp.range_points, cp.range_yolk)):
            want = max(want, float(np.linalg.norm(pts - yolk.center, axis=1).max()
                                   / yolk.radius))
    assert res.achieved_constant == want
    small = min(res.pairs, key=lambda cp: np.abs(cp.range_points).max())
    atol = 1e-9 * (1 + np.abs(fam.forward(small.domain_points)).max())
    for shift, ok in ((0.5, True), (1.5, False)):
        pts = small.range_points
        saved = pts[0, 0]
        pts[0, 0] += shift * atol
        assert verify_cover(fam, res.pairs)["image_correspondence"] is ok
        assert _image_reference(fam, res.pairs) is ok
        pts[0, 0] = saved


@pytest.mark.parametrize("domain_samples", [[[50.0, 50.0]],
                                            [[50.0, 50.0], [50.0, 50.05]]])
def test_one_sample_region_is_a_domain_error(domain_samples):
    # an isolated pair with one sample on either side has zero diameter,
    # which no dyadic generation holds
    fam = random_paired_family(8, 4.0, "identity", seed=5)
    lone_dom = (Region(np.array(domain_samples), 0.1), Ball((50.0, 50.0), 0.05))
    lone_rng = (Region(np.array([[50.0, 50.0]]), 0.1), Ball((50.0, 50.0), 0.05))
    fam = PairedFamily(_side(_pairs(fam.domain) + [lone_dom]),
                       _side(_pairs(fam.range) + [lone_rng]), fam.matrix)
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
    tol, may = cover._subset_screen(_side([(r, Ball(r.samples[0], 1.0)) for r in regions]))
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
    regions = [r for side in (fam.domain, fam.range) for r, _ in _pairs(side)]
    assert _screened_subset(regions) == [[_brute_subset(a, b) for b in regions]
                                         for a in regions]


# ---------------------------------------------------------------------------
# Family-wide correspondence check and cloud subset: exact rows first

def _correspondence_reference(fam):
    """Test reference: the per-pair check, each pair's image taken alone and
    queried against a kd-tree over its range region."""
    for i, ((dom, _), (rng, _)) in enumerate(zip(_pairs(fam.domain), _pairs(fam.range))):
        img = fam.forward(dom.samples)
        tol = 1.5 * rng.pitch * math.sqrt(img.shape[1])
        if not (cKDTree(rng.samples).query(img, k=1)[0] <= tol + 1e-12).all():
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
    pair the same domain samples; "collapse" moves one domain sample of the
    pair onto another and "near" next to it, so that its image lands on (or
    about 1e-10 from) the other's image; the other edits change the pair's
    range samples ("far" moves them all 100 away, "negative" negates the
    range pitch)."""
    rng = np.random.default_rng(seed)
    mat = cover.NAMED_MAPS[map_name]
    dom = [(rng.uniform(-4, 4, (int(rng.integers(1, 9)), 2)) + 10.0 * k,
            float(rng.uniform(0.05, 0.3))) for k in range(n)]
    for i, kind in edits:
        if kind == "repeat":
            dom[(i + 1) % n] = dom[i % n]
    for i, kind in edits:
        d = dom[i % n][0]
        if kind in ("collapse", "near") and len(d) > 1:
            shift = 0.0 if kind == "collapse" else float(rng.choice([0.5, 1.0, 2.0])) * 1e-10
            d[0] = d[1] + np.linalg.solve(mat, [shift, shift])
    ranges = [np.atleast_2d(d) @ mat.T for d, _ in dom]
    for i, kind in edits:
        r, pitch = ranges[i % n], dom[i % n][1]
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
        _side([(Region(d, pitch), Ball(d[0], 1.0)) for d, pitch in dom]),
        _side([(Region(r, sign.get(k, 1.0) * pitch), Ball(r[0], 1.0))
               for k, ((_, pitch), r) in enumerate(zip(dom, ranges))]), mat)


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
    assert fam.domain.count.min() > 1
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
    dom = (Region(np.array([p, q]), 0.1), Ball(p, 1.0))
    fam = PairedFamily(_side([dom] * 2),
                       _side([(Region(np.array(r), 0.1), Ball(p, 1.0))
                              for r in ([p], [q, p])]), np.eye(2))
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
