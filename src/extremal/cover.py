"""Covering algorithms: the egg-yolk covering machinery.

An M-egg-yolk pair is a bounded open region A with a ball B ("yolk") such
that B c 2B c A c MB.  Given two matched families of such pairs related by a
linear map, the covering algorithm produces clustered pairs whose union is
unchanged, whose correspondence is preserved, and whose yolks are pairwise
disjoint on both sides.  Families here are finite: the containment partial
order is resolved by explicit maximal-element selection instead of the
maximal-chain argument needed for infinite index sets.  A family is held as
stacked arrays, and region diameters are exact without a convex hull
(``_line_extremes``).

Yolk disjointness is decided exactly, for a whole family at once
(``geom.balls_disjoint_matrix``): in floats where a stated rounding bound
settles the comparison, in integers otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import Ball, DomainError, Region, _farthest, balls_disjoint_matrix


# ---------------------------------------------------------------------------
# Families


@dataclass
class FamilySide:
    """One side of a paired family, stacked: region k is the sample cloud
    ``samples[start[k]:start[k + 1]]`` on a lattice of pitch ``pitch[k]``,
    and its yolk is the ball (``centers[k]``, ``radii[k]``)."""

    samples: np.ndarray
    start: np.ndarray
    pitch: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        self.count = np.diff(self.start, append=len(self.samples))
        self.pair = np.repeat(np.arange(len(self.start)), self.count)   # region of each row
        if self.samples.ndim != 2 or not (self.count > 0).all():
            raise DomainError("each region needs a nonempty (N, dim) sample array")

    def __len__(self) -> int:
        return len(self.start)

    def cloud(self, k: int) -> np.ndarray:
        return self.samples[self.start[k]:self.start[k] + self.count[k]]

    def take(self, keep: list[int]) -> FamilySide:
        rows, _ = _gather(self.start, self.count, [keep])
        n = self.count[keep]
        return FamilySide(self.samples[rows], np.cumsum(n) - n,
                          self.pitch[keep], self.centers[keep], self.radii[keep])


def _gather(start: np.ndarray, count: np.ndarray, groups: list[list[int]]) -> tuple:
    """The rows of each group of regions (region k is rows start[k] to
    start[k] + count[k] - 1), concatenated group by group, and each group's
    row count."""
    runs = np.concatenate(groups).astype(int)
    n, sizes = count[runs], np.array([len(g) for g in groups])
    return (np.arange(n.sum()) + np.repeat(start[runs] - (np.cumsum(n) - n), n),
            np.add.reduceat(n, np.cumsum(sizes) - sizes))


@dataclass
class PairedFamily:
    """Matched families of egg-yolk pairs under the linear map ``matrix``."""

    domain: FamilySide
    range: FamilySide
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.domain) != len(self.range):
            raise DomainError("domain and range index sets must coincide")

    def __len__(self) -> int:
        return len(self.domain)

    def forward(self, pts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(pts) @ self.matrix.T

    def _same_rows(self, img: np.ndarray) -> np.ndarray:
        """Where the range sample equals (==) the image ``img`` of the domain
        sample in the same row; nowhere unless every range region has as many
        samples as its domain region and every value is finite."""
        rng = self.range.samples
        if (np.array_equal(self.range.count, self.domain.count) and img.shape == rng.shape
                and np.isfinite(img).all() and np.isfinite(rng).all()):
            return (img == rng).all(axis=1)
        return np.zeros(len(img), bool)

    def check_correspondence(self) -> None:
        """f must map each domain region's samples injectively into its
        range region, within 1.5 range pitches of a range sample.

        The whole family is checked on one forward call.  An image row equal
        (==) to the same row of the range samples is at distance 0 from one;
        only the other rows are queried, against their own range region's
        kd-tree.  Non-finite samples settle nothing, so the tree refuses
        them.  The lowest failing pair is reported, containment before
        injectivity.
        """
        if not len(self):
            return
        start, pair = self.domain.start, self.domain.pair
        img = self.forward(self.domain.samples)
        rng = self.range
        tol = 1.5 * rng.pitch * math.sqrt(img.shape[1])
        same = self._same_rows(img) & (0 <= tol + 1e-12)[pair]
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
            region = Region(rng.cloud(i), rng.pitch[i])
            if not region.contains_points(img[rows], tol[i]).all():
                raise DomainError(f"correspondence violated on pair {i}")
        if first < len(self):
            raise DomainError(f"sampled correspondence not injective on pair {first}")


# ---------------------------------------------------------------------------
# Exact diameters from line extremes


def _line_extremes(side: FamilySide) -> np.ndarray:
    """Row mask of the first and last sample of each line parallel to the
    first axis in each region, from one lexsort keyed by (region, other
    coordinates, first coordinate).  A sample strictly between two others on
    a line is no hull vertex, so these rows hold every hull vertex, and the
    largest distance between them is the region's diameter."""
    pts, pair = side.samples, side.pair
    order = np.lexsort((pts[:, 0], *pts[:, 1:].T, pair))
    s, p = pts[order, 1:], pair[order]
    new = np.ones(len(s) + 1, bool)                 # row k starts a line
    new[1:-1] = (s[1:] != s[:-1]).any(axis=1) | (p[1:] != p[:-1])
    ext = np.empty(len(s), bool)
    ext[order] = new[:-1] | new[1:]
    return ext


def _run_diameters(pts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Largest distance within each run of ``n[k] >= 1`` consecutive rows of
    ``pts``, in ``geom._farthest``'s arithmetic.  Runs whose lengths round up
    to one power of two go through one call, padded to the longest of them
    by repeating their last row."""
    first = np.cumsum(n) - n
    size = np.ceil(np.log2(n))
    out = np.empty(len(n))
    for b in np.unique(size):
        k = np.flatnonzero(size == b)
        pad = np.minimum(np.arange(n[k].max()), n[k, None] - 1)
        out[k] = _farthest(pts[first[k, None] + pad])
    return out


def _diameters(family: PairedFamily) -> tuple:
    """Each side's candidate rows, stacked, their count per pair, and each
    region's diameter.  A linear map sends the hull of a cloud onto the hull
    of its image, so a range region that is its domain's image row for row
    takes the rows of the domain's line extremes; any other takes all its
    rows."""
    dom, rng = family.domain, family.range
    dom_ext = _line_extremes(dom)
    aligned = np.logical_and.reduceat(
        family._same_rows(family.forward(dom.samples)), dom.start)
    rng_ext = np.repeat(~aligned, rng.count)
    if aligned.any():                   # so every region has as many rows on both sides
        rng_ext |= dom_ext
    out = []
    for side, ext in ((dom, dom_ext), (rng, rng_ext)):
        n = np.bincount(side.pair[ext], minlength=len(side))
        out.append((side.samples[ext], n, _run_diameters(side.samples[ext], n)))
    return tuple(out)


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


def _subset_screen(side: FamilySide) -> tuple[np.ndarray, np.ndarray]:
    """Query tolerance of every ordered pair (i, j) of regions and whether
    region i can be a subset of region j at that tolerance.

    A sample of i that lies beyond j's bbox along one axis by more than the
    tolerance is that far from every sample of j, so the kd-tree query would
    fail it; the relative margin covers the rounding of the coordinate
    differences (each is within one ulp of its exact value).
    """
    lo = np.minimum.reduceat(side.samples, side.start)
    hi = np.maximum.reduceat(side.samples, side.start)
    pitch = side.pitch
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
    dom = family.domain
    ext = _line_extremes(dom)
    diam = _run_diameters(dom.samples[ext], np.bincount(dom.pair[ext], minlength=len(dom)))
    # scan by decreasing diameter (ties by index); drop a pair only when it
    # sits inside an already-kept one, so every dropped region is within one
    # sampling tolerance of the kept union (no transitive drift)
    tol, may = _subset_screen(dom)
    kept: dict[int, Region] = {}
    for i in np.argsort(-diam, kind="stable").tolist():
        samples = dom.cloud(i)
        if not any(may[i, j] and r.contains_points(samples, tol[i, j]).all()
                   for j, r in kept.items()):
            kept[i] = Region(samples, dom.pitch[i])
    keep = sorted(kept)
    reduced = PairedFamily(family.domain.take(keep), family.range.take(keep),
                           family.matrix)
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


def _cluster_pass(gen_diam: np.ndarray, scan_diam: np.ndarray,
                  centers: np.ndarray, radii: np.ndarray):
    """One covering pass: the yolks (centers, radii) become disjoint on the
    scanned side.

    Implements the generation scan of the covering proof: pairs are grouped
    into dyadic generations of ``gen_diam`` (ties go with the finer
    generation) and, within a generation, scanned by decreasing
    ``scan_diam``.  A selected pair absorbs every not-yet-covered pair whose
    yolk meets its own.
    """
    apart = balls_disjoint_matrix(centers, radii)
    L = gen_diam.max()
    covered = np.zeros(len(radii), bool)
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
    dom, rng = reduced.domain, reduced.range
    (dom_pts, dom_n, dom_diam), (rng_pts, rng_n, rng_diam) = _diameters(reduced)
    zero = np.flatnonzero((dom_diam == 0) | (rng_diam == 0))
    if len(zero):
        raise DomainError(f"pair {aux_report['kept_indices'][zero[0]]} has a "
                          "region of zero diameter")

    clusters1, anchors1 = _cluster_pass(dom_diam, rng_diam, rng.centers, rng.radii)
    # phase 2 on swapped sides: each phase-1 cluster acts as one pair with
    # its anchor's yolks, and its diameter is that of its members' candidate
    # rows, since the hull vertices of a union are among its members'
    merged = []
    for pts, n in ((rng_pts, rng_n), (dom_pts, dom_n)):
        rows, size = _gather(np.cumsum(n) - n, n, clusters1)
        merged.append(_run_diameters(pts[rows], size))
    clusters2, anchors2 = _cluster_pass(*merged, dom.centers[anchors1], dom.radii[anchors1])

    members = [[i for c in cl for i in clusters1[c]] for cl in clusters2]
    anchor = np.array(anchors1)[anchors2]
    # the achieved constant: the farthest output sample from its yolk's
    # centre over the yolk's radius, on both sides
    achieved = 2.0
    clouds, yolks = [], []
    for side in (dom, rng):
        rows, n = _gather(side.start, side.count, members)
        pts, c, r = side.samples[rows], side.centers[anchor], side.radii[anchor]
        far = np.maximum.reduceat(np.linalg.norm(pts - np.repeat(c, n, axis=0), axis=1),
                                  np.cumsum(n) - n)
        achieved = max(achieved, float((far / r).max()))
        clouds.append(np.split(pts, np.cumsum(n)[:-1]))
        yolks.append([Ball(ci, ri) for ci, ri in zip(c, r.tolist())])
    out_pairs = [CoverPair(*pair) for pair in zip(*clouds, *yolks, members)]

    report = dict(aux_report)
    report["verified"] = verify_cover(family, out_pairs)
    return CoverResult(out_pairs, achieved, report)


def verify_cover(family: PairedFamily, out_pairs: list[CoverPair]) -> dict:
    """Exhaustively check the three covering postconditions on samples.

    (i) the output clouds cover the input union and lie in it, each sample
    within 0.75 pitch sqrt(dim) of the other side; (ii) each output range
    cloud is the forward image of its domain cloud, within an absolute
    tolerance of 1e-9 (1 + max |image coordinate|) and no relative one, on
    one forward call for all the output domain clouds; (iii) the output
    yolks are pairwise disjoint on each side, decided exactly on matrices
    built from the output yolks themselves.
    """
    dom_out = np.vstack([cp.domain_points for cp in out_pairs])
    rng_out = np.vstack([cp.range_points for cp in out_pairs])
    # (i) union equality
    union_ok = _same_union(family.domain.samples, dom_out, family.domain.pitch.max())
    # (ii) image correspondence: range clouds are the forward images
    n = np.array([len(cp.domain_points) for cp in out_pairs])
    img = family.forward(dom_out)
    image_ok = (img.shape == rng_out.shape
                and n.tolist() == [len(cp.range_points) for cp in out_pairs])
    if image_ok:
        atol = 1e-9 * (1 + np.maximum.reduceat(np.abs(img).max(axis=1), np.cumsum(n) - n))
        image_ok = np.isclose(img, rng_out, rtol=0.0,
                              atol=np.repeat(atol, n)[:, None]).all()
    # (iii) pairwise disjoint yolks, exactly, on the output yolks themselves
    upper = np.triu_indices(len(out_pairs), 1)
    dom_disjoint, rng_disjoint = (
        balls_disjoint_matrix([b.center for b in yolks],
                              [b.radius for b in yolks])[upper].all()
        for yolks in ([cp.domain_yolk for cp in out_pairs],
                      [cp.range_yolk for cp in out_pairs]))
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


NAMED_MAPS = {
    "identity": np.eye(2),
    "diag(2,1)": np.diag([2.0, 1.0]),
    "rot+scale": 1.5 * np.array([[math.cos(0.7), -math.sin(0.7)],
                                 [math.sin(0.7), math.cos(0.7)]]),
}


def random_paired_family(n_pairs: int, M: float, map_name: str,
                         seed: int) -> PairedFamily:
    """Random disk-based M-egg-yolk pairs pushed through a named linear map.

    Domain regions are disks centred in [0, 10]^2, sampled at the cell
    centres of a pitch s/7 lattice over their bounding boxes, all at once;
    range yolks are inscribed-scale balls of the image ellipses.  Anisotropic
    maps need M >= 4 to leave the egg-yolk property intact on the range side
    (a 2-egg-yolk pair forces A = 2B, which no non-conformal linear image
    preserves), so M < 4 rejects them.
    """
    mat = NAMED_MAPS[map_name]
    svals = np.linalg.svd(mat, compute_uv=False)
    aniso = svals[0] / svals[-1]
    if 2 * aniso > M and aniso > 1 + 1e-9:
        raise DomainError(f"map {map_name} needs pair constant >= {2 * aniso}")
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_pairs):
        r = float(rng.uniform(0.35, 1.0))
        s = float(rng.uniform(2 * r, M * r))
        center = rng.uniform(0, 10.0, size=2)
        draws.append((r, s, center, (center[None] @ mat.T)[0]))
    r, s, centers, img_centers = map(np.array, zip(*draws))
    pitch = s / 7
    # cell centres of the widest lattice: a cell past a disk's own
    # ceil(2 s / pitch) cells lies half a pitch beyond the disk
    cell = np.arange(np.ceil(2 * s / pitch).max()) + 0.5
    axes = (centers - s[:, None])[:, :, None] + pitch[:, None, None] * cell
    dx, dy = (axes - centers[:, :, None]).transpose(1, 0, 2)
    k, i, j = np.nonzero(np.sqrt(dx[:, :, None] ** 2 + dy[:, None, :] ** 2)
                         < s[:, None, None])
    samples = np.stack([axes[k, 0, i], axes[k, 1, j]], axis=1)
    count = np.bincount(k, minlength=n_pairs)
    start = np.cumsum(count) - count
    # inscribed radius of the image ellipse is s * smin
    return PairedFamily(FamilySide(samples, start, pitch, centers, r),
                        FamilySide(samples @ mat.T, start, pitch * svals[-1],
                                   img_centers, s * svals[-1] / 2), mat)
