"""Covering algorithms: the egg-yolk covering machinery.

An M-egg-yolk pair is a bounded open region A with a ball B ("yolk") such
that B c 2B c A c MB.  Given two matched families of such pairs related by a
linear map, the covering algorithm produces clustered pairs whose union is
unchanged, whose correspondence is preserved, and whose yolks are pairwise
disjoint on both sides.  Families here are finite: the containment partial
order is resolved by explicit maximal-element selection instead of the
maximal-chain argument needed for infinite index sets.  A family is held as
stacked arrays whose range rows are the images of the domain rows by
construction, a covering comes back in the same layout, and region
diameters are exact without a convex hull (``_line_extremes``).

Yolk disjointness is decided exactly, for a whole family at once
(``geom.balls_disjoint_matrix``): in floats where a stated rounding bound
settles the comparison, in integers otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import DomainError, Region, _farthest, balls_disjoint_matrix


# ---------------------------------------------------------------------------
# Families


@dataclass
class FamilySide:
    """One side of a paired family or of a covering, stacked: region k is
    the sample cloud ``samples[start[k]:start[k + 1]]``, and its yolk is the
    ball (``centers[k]``, ``radii[k]``)."""

    samples: np.ndarray
    start: np.ndarray
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


def _gather(start: np.ndarray, count: np.ndarray, groups: list) -> tuple:
    """The rows of each group of regions (region k is rows start[k] to
    start[k] + count[k] - 1), concatenated group by group, and each group's
    row count."""
    runs = np.concatenate(groups).astype(int)
    n, sizes = count[runs], np.array([len(g) for g in groups])
    return (np.arange(n.sum()) + np.repeat(start[runs] - (np.cumsum(n) - n), n),
            np.add.reduceat(n, np.cumsum(sizes) - sizes))


class PairedFamily:
    """Matched families of egg-yolk pairs under the linear map ``matrix``.

    Built from the domain side, the lattice pitch ``pitch[k]`` of each domain
    region, the matrix and the range yolks (``centers``, ``radii``).  The
    range samples are formed here, by one ``forward`` call on the stacked
    domain samples under the domain's ``start`` offsets, so each range
    region is its domain region's image row for row.  A lattice region has
    distinct samples, and ``random_paired_family`` refuses a singular map,
    so the sampled correspondence is injective.
    """

    def __init__(self, domain: FamilySide, pitch, matrix: np.ndarray,
                 centers: np.ndarray, radii: np.ndarray):
        self.domain, self.pitch, self.matrix = domain, np.asarray(pitch, float), matrix
        self.range = FamilySide(self.forward(domain.samples), domain.start, centers, radii)

    def __len__(self) -> int:
        return len(self.domain)

    def forward(self, pts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(pts) @ self.matrix.T


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
    by repeating their last row, so a run's value does not depend on the
    other runs."""
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
    side's region diameters, from one line-extreme pass over the domain.  A
    linear map sends the hull of a cloud onto the hull of its image, and
    each range region is its domain's image row for row, so the range takes
    its candidates at the same rows."""
    ext = _line_extremes(family.domain)
    n = np.bincount(family.domain.pair[ext], minlength=len(family))
    pts = [side.samples[ext] for side in (family.domain, family.range)]
    return pts, n, [_run_diameters(p, n) for p in pts]


# ---------------------------------------------------------------------------
# Auxiliary normalization (comparable diameters on yolk contact)


def _subset_screen(side: FamilySide, pitch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Query tolerance of every ordered pair (i, j) of regions on lattices
    of pitch ``pitch`` and whether region i can be a subset of region j at
    that tolerance.

    A sample of i that lies beyond j's bbox along one axis by more than the
    tolerance is that far from every sample of j, so the kd-tree query would
    fail it; the relative margin covers the rounding of the coordinate
    differences (each is within one ulp of its exact value).
    """
    lo = np.minimum.reduceat(side.samples, side.start)
    hi = np.maximum.reduceat(side.samples, side.start)
    tol = 0.75 * np.maximum(pitch[:, None], pitch[None, :]) * math.sqrt(lo.shape[1])
    reach = ((tol + 1e-12) * (1 + 1e-9))[:, :, None]
    beyond = (((lo[None, :] - lo[:, None]) > reach).any(-1)
              | ((hi[:, None] - hi[None, :]) > reach).any(-1))
    return tol, ~beyond


def normalize_comparable(family: PairedFamily, diam: np.ndarray) -> list[int]:
    """Drop pairs contained in other pairs, keeping the union intact.

    On the surviving (maximal) pairs, whenever two yolks intersect, neither
    region contains the other, so the intersecting-yolk comparison property
    gives diam ratios within M(M+1) of each other on both sides.  ``diam``
    holds each domain region's diameter.  Returns the kept indices, in
    increasing order.
    """
    dom = family.domain
    # scan by decreasing diameter (ties by index); drop a pair only when it
    # sits inside an already-kept one, so every dropped region is within one
    # sampling tolerance of the kept union (no transitive drift)
    tol, may = _subset_screen(dom, family.pitch)
    kept: dict[int, Region] = {}
    for i in np.argsort(-diam, kind="stable").tolist():
        samples = dom.cloud(i)
        if not any(may[i, j] and r.contains_points(samples, tol[i, j]).all()
                   for j, r in kept.items()):
            kept[i] = Region(samples, family.pitch[i])
    return sorted(kept)


# ---------------------------------------------------------------------------
# Egg-yolk covering


@dataclass
class CoverResult:
    """A covering in the family layout: output pair k is region k of
    ``domain`` and of ``range``, and ``pairs[k]`` lists the kept input pairs
    it merges, as positions in ``report["kept_indices"]``."""

    pairs: list[list[int]]
    domain: FamilySide
    range: FamilySide
    achieved_constant: float
    report: dict

    def to_json(self) -> dict:
        dom, rng = self.domain, self.range
        recs = [{"domain_yolk": {"center": dc, "radius": dr},
                 "range_yolk": {"center": rc, "radius": rr},
                 "region_samples": n, "members": members}
                for dc, dr, rc, rr, n, members in zip(
                    dom.centers.tolist(), dom.radii.tolist(), rng.centers.tolist(),
                    rng.radii.tolist(), dom.count.tolist(), self.pairs)]
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
    Each output region is its members' rows gathered in order, on both
    sides, with the yolks of its anchor pair.  Postconditions: the union of
    output regions equals the input union on samples, output range clouds
    are the images of the domain clouds, and both yolk families are
    pairwise disjoint.  The achieved egg-yolk constant of the outputs is
    measured and reported, not assumed.
    """
    (dom_pts, rng_pts), n, (dom_diam, rng_diam) = _diameters(family)
    keep = np.array(normalize_comparable(family, dom_diam))
    zero = keep[(dom_diam[keep] == 0) | (rng_diam[keep] == 0)]
    if len(zero):
        raise DomainError(f"pair {zero[0]} has a region of zero diameter")

    dom, rng = family.domain, family.range
    clusters1, anchors1 = _cluster_pass(dom_diam[keep], rng_diam[keep],
                                        rng.centers[keep], rng.radii[keep])
    # phase 2 on swapped sides: each phase-1 cluster acts as one pair with
    # its anchor's yolks, and its diameter is that of its members' candidate
    # rows, since the hull vertices of a union are among its members'
    rows, size = _gather(np.cumsum(n) - n, n, [keep[c] for c in clusters1])
    anchor = keep[anchors1]
    clusters2, anchors2 = _cluster_pass(
        *(_run_diameters(pts[rows], size) for pts in (rng_pts, dom_pts)),
        dom.centers[anchor], dom.radii[anchor])

    members = [[i for c in cl for i in clusters1[c]] for cl in clusters2]
    anchor = anchor[anchors2]
    rows, size = _gather(dom.start, dom.count, [keep[m] for m in members])
    start = np.cumsum(size) - size
    out = [FamilySide(side.samples[rows], start, side.centers[anchor], side.radii[anchor])
           for side in (dom, rng)]
    # the achieved constant: the farthest output sample from its yolk's
    # centre over the yolk's radius, on both sides
    achieved = 2.0
    for side in out:
        far = np.maximum.reduceat(np.linalg.norm(
            side.samples - np.repeat(side.centers, size, axis=0), axis=1), start)
        achieved = max(achieved, float((far / side.radii).max()))

    report = {"kept_indices": keep.tolist(), "verified": verify_cover(family, *out)}
    return CoverResult(members, *out, achieved, report)


def verify_cover(family: PairedFamily, dom: FamilySide, rng: FamilySide) -> dict:
    """Exhaustively check the three covering postconditions on samples.

    (i) the output domain clouds ``dom`` cover the input union and lie in
    it, each sample within 0.75 pitch sqrt(dim) of the other side; (ii) each
    output range cloud of ``rng`` is the forward image of its domain cloud,
    within an absolute tolerance of 1e-9 (1 + max |image coordinate|) and no
    relative one, on one forward call for all the output domain clouds;
    (iii) the output yolks are pairwise disjoint on each side, decided
    exactly on matrices built from the output yolks themselves.
    """
    # (i) union equality
    union_ok = _same_union(family.domain.samples, dom.samples, family.pitch.max())
    # (ii) image correspondence: range clouds are the forward images
    img = family.forward(dom.samples)
    image_ok = img.shape == rng.samples.shape and np.array_equal(dom.count, rng.count)
    if image_ok:
        atol = 1e-9 * (1 + np.maximum.reduceat(np.abs(img).max(axis=1), dom.start))
        image_ok = np.isclose(img, rng.samples, rtol=0.0,
                              atol=np.repeat(atol, dom.count)[:, None]).all()
    # (iii) pairwise disjoint yolks, exactly, on the output yolks themselves
    upper = np.triu_indices(len(dom), 1)
    dom_disjoint, rng_disjoint = (
        balls_disjoint_matrix(side.centers, side.radii)[upper].all() for side in (dom, rng))
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


# pairs of a covering a config may ask for: the subset screen and the yolk
# matrices allocate (n, n, dim) arrays, so time and memory grow as n^2 (a
# family and its covering took 0.65 s and a 117 MB peak at 1,024 pairs, 1.2 s
# and 231 MB at 2,048; 1 thread, one run each, raw); 68 times the catalog's 30
MAX_COVER_PAIRS = 2048

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
    preserves), so M < 4 rejects them, and so does a singular map
    (anisotropy inf).
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
    return PairedFamily(FamilySide(samples, start, centers, r), pitch, mat,
                        img_centers, s * svals[-1] / 2)
