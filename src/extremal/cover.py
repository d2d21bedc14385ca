"""Covering algorithms: the egg-yolk covering machinery.

An M-egg-yolk pair is a bounded open region A with a ball B ("yolk") such
that B c 2B c A c MB.  Given two matched families of such pairs related by a
sampled homeomorphism, the covering algorithm produces clustered pairs whose
union is unchanged, whose correspondence is preserved, and whose yolks are
pairwise disjoint on both sides.  Families here are finite: the containment
partial order is resolved by explicit maximal-element selection instead of
the maximal-chain argument needed for infinite index sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .geom import Ball, DomainError, Region, balls_disjoint


# ---------------------------------------------------------------------------
# Pairs


@dataclass
class EggYolkPair:
    region: Region
    yolk: Ball
    constant: float

    def __post_init__(self):
        if self.constant < 2:
            raise DomainError("egg-yolk constant must be at least 2")


@dataclass
class PairedFamily:
    """Matched families of egg-yolk pairs under a sampled homeomorphism."""

    domain_pairs: list[EggYolkPair]
    range_pairs: list[EggYolkPair]
    forward: Callable[[np.ndarray], np.ndarray]
    constant: float = 0.0

    def __post_init__(self):
        if len(self.domain_pairs) != len(self.range_pairs):
            raise DomainError("domain and range index sets must coincide")
        if not self.constant:
            self.constant = max([p.constant for p in
                                 self.domain_pairs + self.range_pairs] or [2.0])

    def __len__(self) -> int:
        return len(self.domain_pairs)

    def check_correspondence(self) -> None:
        """f must map each domain region's samples injectively into its
        range region, within 1.5 range pitches of a range sample."""
        for i, (dp, rp) in enumerate(zip(self.domain_pairs, self.range_pairs)):
            img = self.forward(dp.region.samples)
            tol = 1.5 * rp.region.pitch * math.sqrt(rp.region.dim)
            if not rp.region.contains_points(img, tol=tol).all():
                raise DomainError(f"correspondence violated on pair {i}")
            if len(img) > 1:
                order = np.lexsort(img.T)
                gaps = np.linalg.norm(np.diff(img[order], axis=0), axis=1)
                if gaps.min() < 1e-12 * (1 + np.abs(img).max()):
                    raise DomainError(
                        f"sampled correspondence not injective on pair {i}")


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
    pitch_domain: float
    pitch_range: float


def _region_subset(a: Region, b: Region) -> bool:
    tol = 0.75 * max(a.pitch, b.pitch) * math.sqrt(a.dim)
    # a sample of a that lies beyond b's bbox along one axis by more than the
    # query tolerance is that far from every sample of b, so the kd-tree
    # query would fail it; the relative margin covers the rounding of the
    # coordinate differences (each is within one ulp of its exact value)
    (alo, ahi), (blo, bhi) = a.bbox, b.bbox
    reach = (tol + 1e-12) * (1 + 1e-9)
    if (blo - alo > reach).any() or (ahi - bhi > reach).any():
        return False
    return bool(b.contains_points(a.samples, tol=tol).all())


def normalize_comparable(family: PairedFamily) -> tuple[PairedFamily, dict]:
    """Drop pairs contained in other pairs, keeping the union intact.

    On the surviving (maximal) pairs, whenever two yolks intersect, neither
    region contains the other, so the intersecting-yolk comparison property
    gives diam ratios within M(M+1) of each other on both sides.  Returns the
    reduced family and a report with the comparability constant.
    """
    family.check_correspondence()
    n = len(family)
    # scan by decreasing diameter (ties by index); drop a pair only when it
    # sits inside an already-kept one, so every dropped region is within one
    # sampling tolerance of the kept union (no transitive drift)
    order = sorted(range(n),
                   key=lambda i: (-family.domain_pairs[i].region.diameter(), i))
    keep = []
    for i in order:
        ri = family.domain_pairs[i].region
        if not any(_region_subset(ri, family.domain_pairs[j].region)
                   for j in keep):
            keep.append(i)
    keep.sort()
    reduced = PairedFamily([family.domain_pairs[i] for i in keep],
                           [family.range_pairs[i] for i in keep],
                           family.forward, family.constant)
    M = family.constant
    report = {
        "kept_indices": keep,
        "pair_constant": M,
        "comparability_constant": M * (M + 1),
    }
    return reduced, report


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


def _cluster_pass(dom_pairs: list[EggYolkPair], rng_pairs: list[EggYolkPair]):
    """One covering pass: selection yolks become disjoint on the range side.

    Implements the generation scan of the covering proof: pairs are grouped
    into dyadic diameter generations (ties go with the finer generation) and,
    within a generation, scanned by decreasing range diameter.  A selected
    pair absorbs every not-yet-covered pair whose range yolk meets its own.
    """
    n = len(dom_pairs)
    dom_diam = [p.region.diameter() for p in dom_pairs]
    rng_diam = [p.region.diameter() for p in rng_pairs]
    L = max(dom_diam) if dom_diam else 0.0
    covered = [False] * n
    clusters: list[list[int]] = []
    anchors: list[int] = []
    m = 0
    while not all(covered):
        lo, hi = 2.0 ** (-m - 1) * L, 2.0 ** (-m) * L
        gen = [i for i in range(n) if not covered[i] and lo < dom_diam[i] <= hi]
        gen.sort(key=lambda i: (-rng_diam[i], i))
        for i1 in gen:
            if covered[i1]:
                continue
            members = [i1]
            covered[i1] = True
            for j in range(n):
                if covered[j]:
                    continue
                if not balls_disjoint(rng_pairs[i1].yolk, rng_pairs[j].yolk):
                    members.append(j)
                    covered[j] = True
            clusters.append(members)
            anchors.append(i1)
        m += 1
        if m > 64:
            raise RuntimeError("generation scan failed to terminate")
    return clusters, anchors


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

    clusters1, anchors1 = _cluster_pass(dom, rng)
    # phase 2 on swapped sides: treat phase-1 clusters as single pairs
    merged_dom = [_merge_pairs(dom, c, anchors1[k]) for k, c in enumerate(clusters1)]
    merged_rng = [_merge_pairs(rng, c, anchors1[k]) for k, c in enumerate(clusters1)]
    clusters2, anchors2 = _cluster_pass(merged_rng, merged_dom)

    out_pairs: list[CoverPair] = []
    for k, cl in enumerate(clusters2):
        members: list[int] = []
        for c in cl:
            members.extend(clusters1[c])
        dom_pts = np.vstack([dom[i].region.samples for i in members])
        rng_pts = np.vstack([rng[i].region.samples for i in members])
        pitch_d = max(dom[i].region.pitch for i in members)
        pitch_r = max(rng[i].region.pitch for i in members)
        out_pairs.append(CoverPair(
            dom_pts, rng_pts,
            domain_yolk=dom[anchors1[anchors2[k]]].yolk,
            range_yolk=rng[anchors1[anchors2[k]]].yolk,
            member_indices=members, pitch_domain=pitch_d, pitch_range=pitch_r))

    achieved = 2.0
    for cp in out_pairs:
        for pts, yolk in ((cp.domain_points, cp.domain_yolk),
                          (cp.range_points, cp.range_yolk)):
            d = np.linalg.norm(pts - yolk.center, axis=1).max()
            achieved = max(achieved, float(d / yolk.radius))

    report = dict(aux_report)
    report["clusters"] = [cp.member_indices for cp in out_pairs]
    report["verified"] = verify_cover(family, out_pairs)
    return CoverResult(out_pairs, achieved, report)


def _merge_pairs(pairs: list[EggYolkPair], members: list[int],
                 anchor: int) -> EggYolkPair:
    pts = np.vstack([pairs[i].region.samples for i in members])
    pitch = max(pairs[i].region.pitch for i in members)
    return EggYolkPair(Region(pts, pitch), pairs[anchor].yolk,
                       max(pairs[i].constant for i in members))


def verify_cover(family: PairedFamily, out_pairs: list[CoverPair]) -> dict:
    """Exhaustively check the three covering postconditions on samples."""
    # (i) union equality
    dom_in = np.vstack([p.region.samples for p in family.domain_pairs])
    pitch = max(p.region.pitch for p in family.domain_pairs)
    dom_out = np.vstack([cp.domain_points for cp in out_pairs])
    union_ok = (_cloud_subset(dom_in, dom_out, pitch)
                and _cloud_subset(dom_out, dom_in, pitch))
    # (ii) image correspondence: range clouds are the forward images
    image_ok = True
    for cp in out_pairs:
        img = family.forward(cp.domain_points)
        if img.shape != cp.range_points.shape or not np.allclose(
                img, cp.range_points, atol=1e-9 * (1 + np.abs(img).max())):
            image_ok = False
            break
    # (iii) pairwise disjoint yolks, exactly
    dom_disjoint = all(balls_disjoint(a.domain_yolk, b.domain_yolk)
                       for i, a in enumerate(out_pairs)
                       for b in out_pairs[i + 1:])
    rng_disjoint = all(balls_disjoint(a.range_yolk, b.range_yolk)
                       for i, a in enumerate(out_pairs)
                       for b in out_pairs[i + 1:])
    return {"union_equality": bool(union_ok),
            "image_correspondence": bool(image_ok),
            "domain_yolks_disjoint": bool(dom_disjoint),
            "range_yolks_disjoint": bool(rng_disjoint)}


def _cloud_subset(a: np.ndarray, b: np.ndarray, pitch: float) -> bool:
    d, _ = cKDTree(b).query(a, k=1)
    return bool((d <= 0.75 * pitch * math.sqrt(a.shape[1])).all())


# ---------------------------------------------------------------------------
# Random family generation (experiments and property tests)


def affine_map(matrix) -> Callable[[np.ndarray], np.ndarray]:
    mat = np.asarray(matrix, float)

    def f(pts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(pts) @ mat.T

    return f


NAMED_MAPS = {
    "identity": (np.eye(2), "identity"),
    "diag(2,1)": (np.diag([2.0, 1.0]), "diag(2,1)"),
    "rot+scale": (1.5 * np.array([[math.cos(0.7), -math.sin(0.7)],
                                  [math.sin(0.7), math.cos(0.7)]]), "rot+scale"),
}


def random_paired_family(n_pairs: int, M: float, map_name: str,
                         seed: int = 0) -> PairedFamily:
    """Random disk-based M-egg-yolk pairs pushed through a named linear map.

    Domain regions are disks centred in [0, 10]^2; range yolks are
    inscribed-scale balls of the image ellipses.  Anisotropic maps need
    M >= 4 to leave the egg-yolk property intact on the range side (a
    2-egg-yolk pair forces A = 2B, which no non-conformal linear image
    preserves), so M < 4 rejects them.
    """
    mat, _ = NAMED_MAPS[map_name]
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
        dom_pairs.append(EggYolkPair(region, Ball(center, r), M))
        img_center = f(center[None])[0]
        img_pts = f(region.samples)
        # inscribed radius of the image ellipse is s * smin
        r_img = s * svals[-1] / 2
        rng_pairs.append(EggYolkPair(Region(img_pts, pitch * svals[-1]),
                                     Ball(img_center, r_img), M))
    return PairedFamily(dom_pairs, rng_pairs, f, M)


def _disk_cloud(center, radius, pitch) -> Region:
    n = max(3, int(math.ceil(2 * radius / pitch)))
    ax = center[0] - radius + pitch * (np.arange(n) + 0.5)
    ay = center[1] - radius + pitch * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(ax, ay, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    keep = np.linalg.norm(pts - np.asarray(center), axis=1) < radius
    if not keep.any():
        pts = np.asarray(center, float)[None]
        return Region(pts, pitch)
    return Region(pts[keep], pitch)
