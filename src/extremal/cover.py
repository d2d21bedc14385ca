"""Covering algorithms: the egg-yolk covering machinery.

An M-egg-yolk pair is a bounded open region A with a ball B ("yolk") such
that B c 2B c A c MB.  Given two matched families of such pairs related by a
sampled homeomorphism, the covering algorithm produces clustered pairs whose
union is unchanged, whose correspondence is preserved, and whose yolks are
pairwise disjoint on both sides.  Families here are finite: the containment
partial order is resolved by explicit maximal-element selection instead of
the maximal-chain argument needed for infinite index sets.

Yolk disjointness is decided exactly, for a whole family at once
(``geom.balls_disjoint_matrix``): in floats where a stated rounding bound
settles the comparison, in integers otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .geom import (Ball, DomainError, Region, _cloud_diameter,
                   balls_disjoint_matrix)


# ---------------------------------------------------------------------------
# Pairs


@dataclass
class EggYolkPair:
    region: Region
    yolk: Ball


@dataclass
class PairedFamily:
    """Matched families of egg-yolk pairs under a sampled homeomorphism."""

    domain_pairs: list[EggYolkPair]
    range_pairs: list[EggYolkPair]
    forward: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.domain_pairs) != len(self.range_pairs):
            raise DomainError("domain and range index sets must coincide")

    def __len__(self) -> int:
        return len(self.domain_pairs)

    def check_correspondence(self) -> None:
        """f must map each domain region's samples injectively into its
        range region, within 1.5 range pitches of a range sample.

        The whole family is checked on one forward call.  When each range
        region has as many samples as its domain region, an image row equal
        (==) to the same row of the range samples is at distance 0 from one;
        only the other rows are queried, against their own range region's
        kd-tree.  Non-finite samples settle nothing, so the tree refuses
        them.  The lowest failing pair is reported, containment before
        injectivity.
        """
        if not len(self):
            return
        dom = [p.region.samples for p in self.domain_pairs]
        n_dom = np.array([len(s) for s in dom])
        start = np.cumsum(n_dom) - n_dom
        pair = np.repeat(np.arange(len(self)), n_dom)
        img = self.forward(np.vstack(dom))
        rng = [p.region.samples for p in self.range_pairs]
        pitch = np.array([p.region.pitch for p in self.range_pairs])
        tol = 1.5 * pitch * math.sqrt(img.shape[1])
        same = np.zeros(len(pair), bool)
        if all(len(r) == n for r, n in zip(rng, n_dom)):
            rng = np.vstack(rng)
            if (img.shape == rng.shape and np.isfinite(img).all()
                    and np.isfinite(rng).all()):
                same = (img == rng).all(axis=1) & (0 <= tol + 1e-12)[pair]
        # neighbours in (pair, coordinates) order, as each pair sorts alone
        order = np.lexsort((*img.T, pair))
        gaps = np.append(np.linalg.norm(np.diff(img[order], axis=0), axis=1), np.inf)
        gaps[start[1:] - 1] = np.inf                      # across two pairs
        peak = np.maximum.reduceat(np.abs(img).max(axis=1), start)
        crowded = np.minimum.reduceat(gaps, start) < 1e-12 * (1 + peak)
        first = int(np.argmax(crowded)) if crowded.any() else len(self)
        left = np.flatnonzero(~same)
        for rows in np.split(left, np.flatnonzero(np.diff(pair[left])) + 1):
            if not len(rows) or pair[rows[0]] > first:
                break
            i = pair[rows[0]]
            if not self.range_pairs[i].region.contains_points(img[rows], tol[i]).all():
                raise DomainError(f"correspondence violated on pair {i}")
        if first < len(self):
            raise DomainError(f"sampled correspondence not injective on pair {first}")


# ---------------------------------------------------------------------------
# Auxiliary normalization (comparable diameters on yolk contact)


@dataclass
class CoverPair:
    """One output pair of the covering: region clouds plus both yolks."""

    domain_points: np.ndarray
    range_points: np.ndarray
    domain_yolk: Ball
    range_yolk: Ball
    member_indices: list[int]


def _subset_screen(regions: list[Region]) -> tuple[np.ndarray, np.ndarray]:
    """Query tolerance of every ordered pair (i, j) and whether region i can
    be a subset of region j at that tolerance.

    A sample of i that lies beyond j's bbox along one axis by more than the
    tolerance is that far from every sample of j, so the kd-tree query would
    fail it; the relative margin covers the rounding of the coordinate
    differences (each is within one ulp of its exact value).
    """
    lo = np.array([r.bbox[0] for r in regions])
    hi = np.array([r.bbox[1] for r in regions])
    pitch = np.array([r.pitch for r in regions])
    tol = 0.75 * np.maximum(pitch[:, None], pitch[None, :]) * math.sqrt(lo.shape[1])
    reach = ((tol + 1e-12) * (1 + 1e-9))[:, :, None]
    beyond = (((lo[None, :] - lo[:, None]) > reach).any(-1)
              | ((hi[:, None] - hi[None, :]) > reach).any(-1))
    return tol, ~beyond


def normalize_comparable(family: PairedFamily) -> tuple[PairedFamily, dict]:
    """Drop pairs contained in other pairs, keeping the union intact.

    On the surviving (maximal) pairs, whenever two yolks intersect, neither
    region contains the other, so the intersecting-yolk comparison property
    gives diam ratios within M(M+1) of each other on both sides.  Returns the
    reduced family and a report with the kept indices.
    """
    family.check_correspondence()
    n = len(family)
    # scan by decreasing diameter (ties by index); drop a pair only when it
    # sits inside an already-kept one, so every dropped region is within one
    # sampling tolerance of the kept union (no transitive drift)
    regions = [p.region for p in family.domain_pairs]
    order = sorted(range(n), key=lambda i: (-regions[i].diameter(), i))
    tol, may = _subset_screen(regions)
    keep = []
    for i in order:
        samples = regions[i].samples
        if not any(may[i, j] and regions[j].contains_points(samples, tol[i, j]).all()
                   for j in keep):
            keep.append(i)
    keep.sort()
    reduced = PairedFamily([family.domain_pairs[i] for i in keep],
                           [family.range_pairs[i] for i in keep],
                           family.forward)
    return reduced, {"kept_indices": keep}


# ---------------------------------------------------------------------------
# Egg-yolk covering


@dataclass
class CoverResult:
    pairs: list[CoverPair]
    achieved_constant: float
    report: dict

    def to_json(self) -> dict:
        recs = []
        for cp in self.pairs:
            recs.append({
                "domain_yolk": {"center": cp.domain_yolk.center.tolist(),
                                "radius": cp.domain_yolk.radius},
                "range_yolk": {"center": cp.range_yolk.center.tolist(),
                               "radius": cp.range_yolk.radius},
                "region_samples": int(len(cp.domain_points)),
                "members": cp.member_indices,
            })
        return {"pairs": recs, "certified_constant": self.achieved_constant,
                "verified": self.report.get("verified", {})}


def _cluster_pass(gen_diam: list[float], scan_diam: list[float],
                  yolks: list[Ball]):
    """One covering pass: the yolks become disjoint on the scanned side.

    Implements the generation scan of the covering proof: pairs are grouped
    into dyadic generations of ``gen_diam`` (ties go with the finer
    generation) and, within a generation, scanned by decreasing
    ``scan_diam``.  A selected pair absorbs every not-yet-covered pair whose
    yolk meets its own.
    """
    gen_diam, scan_diam = np.asarray(gen_diam), np.asarray(scan_diam)
    apart = balls_disjoint_matrix(yolks)
    L = gen_diam.max()
    covered = np.zeros(len(yolks), bool)
    clusters: list[list[int]] = []
    anchors: list[int] = []
    m = 0
    while not covered.all():
        lo, hi = 2.0 ** (-m - 1) * L, 2.0 ** (-m) * L
        gen = np.flatnonzero(~covered & (lo < gen_diam) & (gen_diam <= hi))
        for i1 in gen[np.argsort(-scan_diam[gen], kind="stable")].tolist():
            if covered[i1]:
                continue
            covered[i1] = True
            members = [i1, *np.flatnonzero(~covered & ~apart[i1]).tolist()]
            covered[members] = True
            clusters.append(members)
            anchors.append(i1)
        m += 1
        if m > 64:
            raise RuntimeError("generation scan failed to terminate")
    return clusters, anchors


def _cluster_diameters(regions: list[Region],
                       clusters: list[list[int]]) -> list[float]:
    """Diameter of each cluster's union of regions.  The hull of a union is
    the hull of its members' hull vertices, so only those are stacked."""
    return [regions[c[0]].diameter() if len(c) == 1
            else _cloud_diameter(np.vstack([regions[i].hull for i in c]))
            for c in clusters]


def egg_yolk_cover(family: PairedFamily) -> CoverResult:
    """Covering with pairwise disjoint yolks on both sides.

    Two passes of the clustering construction: the first makes the range
    yolks disjoint, the second (on the swapped families) the domain yolks;
    the second pass only merges clusters, so range disjointness survives.
    Postconditions: the union of output regions equals the input union on
    samples, output range clouds are the images of the domain clouds, and
    both yolk families are pairwise disjoint.  The achieved egg-yolk constant
    of the outputs is measured and reported, not assumed.
    """
    reduced, aux_report = normalize_comparable(family)
    dom, rng = reduced.domain_pairs, reduced.range_pairs
    dom_regions = [p.region for p in dom]
    rng_regions = [p.region for p in rng]
    dom_diam = [r.diameter() for r in dom_regions]
    rng_diam = [r.diameter() for r in rng_regions]
    for k, (d_dom, d_rng) in enumerate(zip(dom_diam, rng_diam)):
        if d_dom == 0 or d_rng == 0:
            raise DomainError(f"pair {aux_report['kept_indices'][k]} has a "
                              "region of zero diameter")

    clusters1, anchors1 = _cluster_pass(dom_diam, rng_diam, [p.yolk for p in rng])
    # phase 2 on swapped sides: each phase-1 cluster acts as one pair with
    # its anchor's yolks
    clusters2, anchors2 = _cluster_pass(_cluster_diameters(rng_regions, clusters1),
                                        _cluster_diameters(dom_regions, clusters1),
                                        [dom[a].yolk for a in anchors1])

    out_pairs: list[CoverPair] = []
    for k, cl in enumerate(clusters2):
        members: list[int] = []
        for c in cl:
            members.extend(clusters1[c])
        dom_pts = np.vstack([dom[i].region.samples for i in members])
        rng_pts = np.vstack([rng[i].region.samples for i in members])
        out_pairs.append(CoverPair(
            dom_pts, rng_pts,
            domain_yolk=dom[anchors1[anchors2[k]]].yolk,
            range_yolk=rng[anchors1[anchors2[k]]].yolk,
            member_indices=members))

    achieved = 2.0
    for cp in out_pairs:
        for pts, yolk in ((cp.domain_points, cp.domain_yolk),
                          (cp.range_points, cp.range_yolk)):
            d = np.linalg.norm(pts - yolk.center, axis=1).max()
            achieved = max(achieved, float(d / yolk.radius))

    report = dict(aux_report)
    report["verified"] = verify_cover(family, out_pairs)
    return CoverResult(out_pairs, achieved, report)


def verify_cover(family: PairedFamily, out_pairs: list[CoverPair]) -> dict:
    """Exhaustively check the three covering postconditions on samples.

    (i) the output clouds cover the input union and lie in it, each sample
    within 0.75 pitch sqrt(dim) of the other side; (ii) each output range
    cloud is the forward image of its domain cloud, within an absolute
    tolerance of 1e-9 (1 + max |image coordinate|) and no relative one;
    (iii) the output yolks are pairwise disjoint on each side, decided
    exactly on matrices built from the output yolks themselves.
    """
    # (i) union equality
    dom_in = np.vstack([p.region.samples for p in family.domain_pairs])
    pitch = max(p.region.pitch for p in family.domain_pairs)
    dom_out = np.vstack([cp.domain_points for cp in out_pairs])
    union_ok = _same_union(dom_in, dom_out, pitch)
    # (ii) image correspondence: range clouds are the forward images
    image_ok = True
    for cp in out_pairs:
        img = family.forward(cp.domain_points)
        if img.shape != cp.range_points.shape or not np.allclose(
                img, cp.range_points, rtol=0.0,
                atol=1e-9 * (1 + np.abs(img).max())):
            image_ok = False
            break
    # (iii) pairwise disjoint yolks, exactly, on the output yolks themselves
    upper = np.triu_indices(len(out_pairs), 1)
    dom_disjoint = balls_disjoint_matrix(
        [cp.domain_yolk for cp in out_pairs])[upper].all()
    rng_disjoint = balls_disjoint_matrix(
        [cp.range_yolk for cp in out_pairs])[upper].all()
    return {"union_equality": bool(union_ok),
            "image_correspondence": bool(image_ok),
            "domain_yolks_disjoint": bool(dom_disjoint),
            "range_yolks_disjoint": bool(rng_disjoint)}


def _same_union(a: np.ndarray, b: np.ndarray, pitch: float) -> bool:
    """Every row of a within 0.75 pitch sqrt(dim) of some row of b, and
    every row of b within that of some row of a.

    A row equal (==) to a row of the other cloud is at distance 0, so it is
    settled without a kd-tree: one lexsort of the stacked clouds by
    (coordinates, from a) makes each set of equal rows one run, b's rows
    first.  A run that starts with a row of b settles its rows of a; one that
    ends with a row of a settles its rows of b.  Only the other rows are
    queried, against a tree over the other cloud, a's rows first.
    Non-finite samples settle nothing, so the tree refuses them.
    """
    tol = 0.75 * pitch * math.sqrt(a.shape[1])
    c = np.vstack([b, a])
    if not (0 <= tol and np.isfinite(c).all()):
        return _near(a, b, tol) and _near(b, a, tol)
    from_a = np.arange(len(c)) >= len(b)
    order = np.lexsort((from_a, *c.T))
    s, s_from_a = c[order], from_a[order]
    new = np.ones(len(c), bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    run = np.cumsum(new) - 1
    first = s_from_a[new]
    last = s_from_a[np.append(np.flatnonzero(new)[1:], len(c)) - 1]
    left = np.empty(len(c), bool)
    left[order] = np.where(s_from_a, first[run], ~last[run])
    qa, qb = a[left[len(b):]], b[left[:len(b)]]
    return (not len(qa) or _near(qa, b, tol)) and (not len(qb) or _near(qb, a, tol))


def _near(q: np.ndarray, cloud: np.ndarray, tol: float) -> bool:
    """Every row of q within tol of some row of cloud."""
    d, _ = cKDTree(cloud, balanced_tree=False).query(q, k=1)
    return bool((d <= tol).all())


# ---------------------------------------------------------------------------
# Random family generation (experiments and property tests)


def affine_map(matrix) -> Callable[[np.ndarray], np.ndarray]:
    mat = np.asarray(matrix, float)

    def f(pts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(pts) @ mat.T

    return f


NAMED_MAPS = {
    "identity": np.eye(2),
    "diag(2,1)": np.diag([2.0, 1.0]),
    "rot+scale": 1.5 * np.array([[math.cos(0.7), -math.sin(0.7)],
                                 [math.sin(0.7), math.cos(0.7)]]),
}


def random_paired_family(n_pairs: int, M: float, map_name: str,
                         seed: int) -> PairedFamily:
    """Random disk-based M-egg-yolk pairs pushed through a named linear map.

    Domain regions are disks centred in [0, 10]^2; range yolks are
    inscribed-scale balls of the image ellipses.  Anisotropic maps need
    M >= 4 to leave the egg-yolk property intact on the range side (a
    2-egg-yolk pair forces A = 2B, which no non-conformal linear image
    preserves), so M < 4 rejects them.
    """
    mat = NAMED_MAPS[map_name]
    svals = np.linalg.svd(mat, compute_uv=False)
    aniso = svals[0] / svals[-1]
    if 2 * aniso > M and aniso > 1 + 1e-9:
        raise DomainError(f"map {map_name} needs pair constant >= {2 * aniso}")
    rng = np.random.default_rng(seed)
    f = affine_map(mat)
    dom_pairs, rng_pairs = [], []
    for _ in range(n_pairs):
        r = float(rng.uniform(0.35, 1.0))
        s = float(rng.uniform(2 * r, M * r))
        center = rng.uniform(0, 10.0, size=2)
        pitch = s / 7
        region = _disk_cloud(center, s, pitch)
        dom_pairs.append(EggYolkPair(region, Ball(center, r)))
        img_center = f(center[None])[0]
        img_pts = f(region.samples)
        # inscribed radius of the image ellipse is s * smin
        r_img = s * svals[-1] / 2
        rng_pairs.append(EggYolkPair(Region(img_pts, pitch * svals[-1]),
                                     Ball(img_center, r_img)))
    return PairedFamily(dom_pairs, rng_pairs, f)


def _disk_cloud(center, radius, pitch) -> Region:
    n = max(3, int(math.ceil(2 * radius / pitch)))
    ax = center[0] - radius + pitch * (np.arange(n) + 0.5)
    ay = center[1] - radius + pitch * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(ax, ay, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    keep = np.linalg.norm(pts - np.asarray(center), axis=1) < radius
    return Region(pts[keep], pitch)
