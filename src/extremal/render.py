"""Minimal SVG emitters for densities, coverings, and cube decompositions."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def _color(t: float) -> str:
    """Blue-to-red ramp on [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    r = int(255 * t)
    b = int(255 * (1 - t))
    g = int(64 * (1 - abs(2 * t - 1)))
    return f"#{r:02x}{g:02x}{b:02x}"


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
    """One rect per positive cell, colored by relative density."""
    vals = density.values
    if vals.ndim != 2:
        raise ValueError("heatmaps are 2D only")
    h = density.spacing
    ox, oy = density.origin
    vmax = float(vals.max()) or 1.0
    rects = (f'<rect x="{ox + i * h:.5f}" y="{oy + j * h:.5f}" width="{h:.5f}" '
             f'height="{h:.5f}" fill="{_color(float(vals[i, j]) / vmax)}"/>'
             for i, j in np.argwhere(vals > 0))
    nx, ny = vals.shape
    _write_doc(path, rects, (ox, oy, nx * h, ny * h))


def svg_covering(cover_pairs, path: str, side: str = "domain") -> None:
    """Yolk circles over region sample clouds for one side of a covering."""
    elems = []
    all_pts = []
    for k, cp in enumerate(cover_pairs):
        pts = cp.domain_points if side == "domain" else cp.range_points
        yolk = cp.domain_yolk if side == "domain" else cp.range_yolk
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


def svg_whitney(decomp, shadow_s, path: str) -> None:
    """Whitney cubes colored by shadow diameter s(Q)."""
    smax = max(shadow_s) or 1.0
    elems = (f'<rect x="{q.corner[0]:.5f}" y="{q.corner[1]:.5f}" '
             f'width="{q.side:.5f}" height="{q.side:.5f}" '
             f'fill="{_color(s / smax)}" stroke="#333" '
             f'stroke-width="{q.side * 0.03:.5f}"/>'
             for q, s in zip(decomp.cubes, shadow_s))
    lo, hi = decomp.domain.bbox()
    pad = 0.05 * float((hi - lo).max())
    _write_doc(path, elems, (lo[0] - pad, lo[1] - pad,
                             hi[0] - lo[0] + 2 * pad, hi[1] - lo[1] + 2 * pad))
