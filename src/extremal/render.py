"""Minimal SVG emitters for densities, coverings, and cube decompositions."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def _colors(t) -> list[str]:
    """Blue-to-red ramp on [0, 1], one ``#rrggbb`` string per entry of ``t``.

    Each channel is truncated toward zero, as ``int`` would truncate it."""
    t = np.clip(np.asarray(t, float), 0.0, 1.0)
    r = (255 * t).astype(np.int64)
    b = (255 * (1 - t)).astype(np.int64)
    g = (64 * (1 - np.abs(2 * t - 1))).astype(np.int64)
    return [f"#{c:06x}" for c in ((r << 16) | (g << 8) | b).tolist()]


def _color(t: float) -> str:
    return _colors([t])[0]


def _write_doc(path: str, elements: Iterable[str], view: tuple) -> None:
    """Write the SVG document, one element per line, as ``elements`` yields
    them: a 512^2 heatmap is 166k elements, which are never all held."""
    x0, y0, w, h = view
    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'viewBox="{x0:.4f} {y0:.4f} {w:.4f} {h:.4f}" '
                 f'width="640" height="{640 * h / w:.0f}">')
        for el in elements:
            fh.write("\n" + el)
        fh.write("\n</svg>")


def svg_density_heatmap(density, path: str) -> None:
    """One rect per positive cell, colored by relative density.

    The document is built one row of cells at a time: each rect joins its
    row's x-prefix and its column's y-suffix, both formatted once, with its
    colour from one ramp call per row."""
    vals = density.values
    if vals.ndim != 2:
        raise ValueError("heatmaps are 2D only")
    h = density.spacing
    ox, oy = density.origin
    vmax = float(vals.max()) or 1.0
    nx, ny = vals.shape
    suffix = [f'{oy + j * h:.5f}" width="{h:.5f}" height="{h:.5f}" fill="'
              for j in range(ny)]

    def rects():
        for i, row in enumerate(vals):
            cells = np.flatnonzero(row > 0)
            prefix = f'<rect x="{ox + i * h:.5f}" y="'
            for j, col in zip(cells.tolist(), _colors(row[cells] / vmax)):
                yield f'{prefix}{suffix[j]}{col}"/>'

    _write_doc(path, rects(), (ox, oy, nx * h, ny * h))


def svg_covering(cover_pairs, path: str) -> None:
    """Yolk circles over region sample clouds, domain side of a covering."""
    elems = []
    all_pts = []
    for k, cp in enumerate(cover_pairs):
        pts, yolk = cp.domain_points, cp.domain_yolk
        all_pts.append(pts)
        col = _color(k / max(len(cover_pairs) - 1, 1))
        for p in pts[:: max(1, len(pts) // 400)]:
            elems.append(f'<circle cx="{p[0]:.4f}" cy="{p[1]:.4f}" '
                         f'r="0.02" fill="{col}" fill-opacity="0.35"/>')
        elems.append(f'<circle cx="{yolk.center[0]:.4f}" cy="{yolk.center[1]:.4f}" '
                     f'r="{yolk.radius:.4f}" fill="none" stroke="{col}" '
                     f'stroke-width="0.02"/>')
    pts = np.vstack(all_pts)
    lo = pts.min(axis=0) - 1
    hi = pts.max(axis=0) + 1
    _write_doc(path, elems, (lo[0], lo[1], hi[0] - lo[0], hi[1] - lo[1]))


def svg_whitney(decomp, values, path: str) -> None:
    """Whitney cubes colored by ``values`` (one per cube) relative to their
    maximum; the CLI passes each cube's side."""
    vmax = max(values) or 1.0
    colors = _colors(np.asarray(values, float) / vmax)
    elems = (f'<rect x="{q.corner[0]:.5f}" y="{q.corner[1]:.5f}" '
             f'width="{q.side:.5f}" height="{q.side:.5f}" '
             f'fill="{col}" stroke="#333" '
             f'stroke-width="{q.side * 0.03:.5f}"/>'
             for q, col in zip(decomp.cubes, colors))
    lo, hi = decomp.domain.bbox()
    pad = 0.05 * float((hi - lo).max())
    _write_doc(path, elems, (lo[0] - pad, lo[1] - pad,
                             hi[0] - lo[0] + 2 * pad, hi[1] - lo[1] + 2 * pad))
