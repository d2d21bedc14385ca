import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from extremal import cover, geom
from extremal.cover import (FamilySide, PairedFamily, egg_yolk_cover, normalize_comparable,
                            random_paired_family, verify_cover)
from extremal.geom import DomainError, Region, balls_disjoint_matrix


def _side(clouds, centers, radii):
    """A stacked family side from region clouds and yolk centres and radii."""
    n = np.array([len(c) for c in clouds])
    return FamilySide(np.vstack(clouds), np.cumsum(n) - n,
                      np.array(centers, float).reshape(len(clouds), -1),
                      np.array(radii, float))


def _clouds(side):
    """The region clouds of a stacked family side."""
    return [side.cloud(k) for k in range(len(side))]


def _identity_family(clouds, pitch, centers, radii):
    """Pairs under the identity map, with the same yolks on both sides."""
    return PairedFamily(_side(clouds, centers, radii), np.broadcast_to(pitch, len(clouds)),
                        np.eye(2), np.array(centers, float), np.array(radii, float))


def _with_pair(fam, cloud, pitch, center, radius, mat=None):
    """fam with one more pair: the domain region ``cloud`` on a lattice of
    ``pitch``, with the yolk (center, radius) on both sides, under ``mat``
    (fam's own map when None)."""
    centers = [np.vstack([side.centers, center]) for side in (fam.domain, fam.range)]
    radii = [np.append(side.radii, radius) for side in (fam.domain, fam.range)]
    return PairedFamily(_side(_clouds(fam.domain) + [np.array(cloud, float)],
                              centers[0], radii[0]),
                        np.append(fam.pitch, pitch), fam.matrix if mat is None else mat,
                        centers[1], radii[1])


def _normalize(fam):
    """normalize_comparable's kept indices, on the family's domain diameters."""
    return normalize_comparable(fam, cover._diameters(fam)[2][0])


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
    mapped alone.  Returns both sides, the domain pitches and the map."""
    mat = cover.NAMED_MAPS[map_name]
    smin = np.linalg.svd(mat, compute_uv=False)[-1]
    rng = np.random.default_rng(seed)
    dom, img, pitch = [], [], []
    for _ in range(n_pairs):
        r = float(rng.uniform(0.35, 1.0))
        s = float(rng.uniform(2 * r, M * r))
        center = rng.uniform(0, 10.0, size=2)
        region = _disk_cloud(center, s, s / 7)
        dom.append((region.samples, center, r))
        img.append((np.atleast_2d(region.samples) @ mat.T,
                    (np.atleast_2d(center[None]) @ mat.T)[0], s * smin / 2))
        pitch.append(region.pitch)
    return _side(*zip(*dom)), _side(*zip(*img)), np.array(pitch), mat


@pytest.mark.parametrize("map_name, M", [("identity", 2.0), ("identity", 8.0),
                                         ("diag(2,1)", 4.0), ("diag(2,1)", 5.5),
                                         ("rot+scale", 2.0), ("rot+scale", 8.0)])
@pytest.mark.parametrize("seed", [0, 1])
def test_stacked_generator_matches_per_pair_reference(map_name, M, seed):
    got = random_paired_family(25, M, map_name, seed)
    dom, img, pitch, mat = _family_reference(25, M, map_name, seed)
    assert got.matrix.tolist() == mat.tolist()
    assert got.pitch.tolist() == pitch.tolist()
    for a, b in ((got.domain, dom), (got.range, img)):
        for field in ("samples", "start", "centers", "radii"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()


def test_covering_builds_fewer_trees_than_regions(monkeypatch):
    # building a family builds no Region and no kd-tree; only kept domain
    # regions become Regions, and only those the subset screen cannot rule
    # out are queried, so only they build a kd-tree; output rows copied from
    # input rows build none
    trees, regions = [], []
    tree, post_init = geom.cKDTree, geom.Region.__post_init__
    for mod in (geom, cover):
        monkeypatch.setattr(mod, "cKDTree",
                            lambda pts, **kw: trees.append(1) or tree(pts, **kw))
    monkeypatch.setattr(geom.Region, "__post_init__",
                        lambda self: regions.append(1) or post_init(self))
    fam = random_paired_family(30, 4.0, "diag(2,1)", seed=77)
    assert trees == [] and regions == []
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    assert 0 < len(trees) < len(regions) < len(fam)
    trees.clear()
    assert all(verify_cover(fam, res.domain, res.range).values())
    assert len(trees) <= 1


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
    sizes = (1.0, 2.0, 3.9)
    fam = _identity_family([_disk_cloud(np.zeros(2), s, 0.05).samples for s in sizes],
                           0.05, np.zeros((3, 2)), [s / 3.99 for s in sizes])
    keep = _normalize(fam)
    assert len(keep) == 1
    assert keep == [2]


def test_normalize_keeps_disjoint_family():
    centers = [(4.0 * k, 0.0) for k in range(4)]
    fam = _identity_family([_disk_cloud(np.array(c), 1.5, 0.08).samples for c in centers],
                           0.08, centers, [0.5] * 4)
    assert len(_normalize(fam)) == 4


def test_normalize_output_comparability_under_map():
    M = 4.0
    fam = random_paired_family(20, M, "diag(2,1)", seed=21)
    keep = _normalize(fam)
    c = M * (M + 1)           # the comparability constant of M-egg-yolk pairs
    apart = [balls_disjoint_matrix(side.centers[keep], side.radii[keep])
             for side in (fam.domain, fam.range)]
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            for side, side_apart in zip((fam.domain, fam.range), apart):
                if not side_apart[i, j]:
                    di = Region(side.cloud(keep[i]), fam.pitch[keep[i]]).diameter()
                    dj = Region(side.cloud(keep[j]), fam.pitch[keep[j]]).diameter()
                    assert di <= c * dj * 1.1 and dj <= c * di * 1.1


# ---------------------------------------------------------------------------
# Egg-yolk covering

def test_cover_single_pair_is_itself():
    fam = random_paired_family(1, 4.0, "identity", seed=1)
    res = egg_yolk_cover(fam)
    assert len(res.pairs) == 1
    assert all(res.report["verified"].values())


def test_cover_concentric_grid_exhaustive():
    # 5x5 grid of overlapping disks, yolk = half the region radius (A = 2B)
    centers = [(i * 1.2, j * 1.2) for i in range(5) for j in range(5)]
    fam = _identity_family([_disk_cloud(np.array(c), 1.0, 0.1).samples for c in centers],
                           0.1, centers, [0.5] * 25)
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
    # each region's diameter on both sides, the range's from the images of
    # its domain's line extremes, is the Qhull diameter to the bit, and the
    # largest pairwise distance over all the region's samples
    clouds = data.draw(st.lists(_cloud(dim), min_size=1, max_size=6))
    mat = data.draw(_linear_map(dim))
    centers, radii = [c[0] for c in clouds], np.ones(len(clouds))
    fam = PairedFamily(_side(clouds, centers, radii), np.full(len(clouds), 0.1), mat,
                       np.array(centers), radii)
    _, _, (dom_diam, rng_diam) = cover._diameters(fam)
    for side, diams in ((fam.domain, dom_diam), (fam.range, rng_diam)):
        clouds = _clouds(side)
        assert diams.tolist() == [geom._cloud_diameter(c) for c in clouds]
        # and the largest distance over all pairs of samples
        assert diams.tolist() == [geom._farthest(c) for c in clouds]


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


def test_image_check_has_no_relative_tolerance():
    # one range point moved by 1e-6 of itself, about 1e-5, is a thousand
    # times the absolute tolerance of about 1e-8 that the check states
    fam = random_paired_family(8, 4.0, "identity", seed=5)
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values())
    pts = res.range.cloud(0)
    pts[np.argmax(np.abs(pts).sum(axis=1))] *= 1 + 1e-6
    ver = verify_cover(fam, res.domain, res.range)
    assert ver["image_correspondence"] is False
    assert ver["union_equality"] and ver["domain_yolks_disjoint"]


def _image_reference(fam, dom, rng):
    """Test reference: each output pair's image checked alone, at its own
    absolute tolerance."""
    for k in range(len(dom)):
        img = fam.forward(dom.cloud(k))
        if img.shape != rng.cloud(k).shape or not np.allclose(
                img, rng.cloud(k), rtol=0.0, atol=1e-9 * (1 + np.abs(img).max())):
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
    for k in range(len(res.pairs)):
        for side in (res.domain, res.range):
            want = max(want, float(np.linalg.norm(side.cloud(k) - side.centers[k],
                                                  axis=1).max() / side.radii[k]))
    assert res.achieved_constant == want
    small = min(range(len(res.pairs)), key=lambda k: np.abs(res.range.cloud(k)).max())
    atol = 1e-9 * (1 + np.abs(fam.forward(res.domain.cloud(small))).max())
    for shift, ok in ((0.5, True), (1.5, False)):
        pts = res.range.cloud(small)
        saved = pts[0, 0]
        pts[0, 0] += shift * atol
        assert verify_cover(fam, res.domain, res.range)["image_correspondence"] is ok
        assert _image_reference(fam, res.domain, res.range) is ok
        pts[0, 0] = saved


def _drop_row(side, j):
    """side without its row j."""
    return FamilySide(np.delete(side.samples, j, axis=0), side.start - (side.start > j),
                      side.centers, side.radii)


@pytest.mark.parametrize("flag", ["union_equality", "domain_yolks_disjoint",
                                  "range_yolks_disjoint"])
def test_each_tamper_turns_only_its_own_flag_false(flag):
    # a lone pair of two samples 3 apart, far beyond the union tolerance of
    # about 0.6, so dropping one of them from both sides leaves the input
    # sample uncovered; moving a yolk centre onto another's makes them meet
    lone = np.array([[50.0, 50.0], [50.0, 53.0]])
    fam = _with_pair(random_paired_family(8, 4.0, "identity", seed=5), lone, 0.1,
                     (50.0, 51.5), 0.5)
    res = egg_yolk_cover(fam)
    assert all(res.report["verified"].values()) and len(res.pairs) > 1
    dom, rng = res.domain, res.range
    if flag == "union_equality":
        j = int(np.flatnonzero((dom.samples == lone[1]).all(axis=1))[0])
        dom, rng = _drop_row(dom, j), _drop_row(rng, j)
    else:
        side = dom if flag == "domain_yolks_disjoint" else rng
        centers = side.centers.copy()
        centers[1] = centers[0]
        moved = dataclasses.replace(side, centers=centers)
        dom, rng = (moved, rng) if side is dom else (dom, moved)
    ver = verify_cover(fam, dom, rng)
    assert ver == {key: key != flag for key in ver}


@pytest.mark.parametrize("domain_samples, mat", [([[50.0, 50.0]], np.eye(2)),
                                                 ([[50.0, 50.0], [50.0, 50.05]],
                                                  np.diag([1.0, 0.0]))],
                         ids=["domain_samples0", "domain_samples1"])
def test_one_sample_region_is_a_domain_error(domain_samples, mat):
    # an isolated pair with one distinct sample on either side has zero
    # diameter, which no dyadic generation holds: one domain sample, or two
    # that a singular map sends to one range point
    fam = _with_pair(random_paired_family(8, 4.0, "identity", seed=5), domain_samples,
                     0.1, (50.0, 50.0), 0.05, mat)
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
    side = _side([r.samples for r in regions], [r.samples[0] for r in regions],
                 np.ones(len(regions)))
    tol, may = cover._subset_screen(side, np.array([r.pitch for r in regions]))
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
    # the range regions on the image lattices, of pitch pitch * smin
    fam = random_paired_family(12, 4.0, "diag(2,1)", seed=seed)
    smin = np.linalg.svd(fam.matrix, compute_uv=False)[-1]
    regions = [Region(c, p) for side, pitch in ((fam.domain, fam.pitch),
                                                (fam.range, fam.pitch * smin))
               for c, p in zip(_clouds(side), pitch)]
    assert _screened_subset(regions) == [[_brute_subset(a, b) for b in regions]
                                         for a in regions]


# ---------------------------------------------------------------------------
# Cloud subset: exact rows first

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
