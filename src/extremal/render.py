"""Minimal SVG emitters for densities, coverings, and cube decompositions."""

from __future__ import annotations

import base64
import struct
import zlib
from typing import Iterable

import numpy as np


def _ramp(t) -> tuple:
    """Blue-to-red ramp on [0, 1]: the integer r, g, b channel arrays of ``t``.

    Each channel is truncated toward zero, as ``int`` would truncate it."""
    t = np.clip(np.asarray(t, float), 0.0, 1.0)
    r = (255 * t).astype(np.int64)
    g = (64 * (1 - np.abs(2 * t - 1))).astype(np.int64)
    b = (255 * (1 - t)).astype(np.int64)
    return r, g, b


def _colors(t) -> list[str]:
    """The ramp as one ``#rrggbb`` string per entry of ``t``."""
    r, g, b = _ramp(t)
    return [f"#{c:06x}" for c in ((r << 16) | (g << 8) | b).tolist()]


def _color(t: float) -> str:
    return _colors([t])[0]


def _write_doc(path: str, elements: Iterable[str], view: tuple) -> None:
    """Write the SVG document: the head, one element per line as
    ``elements`` yields them, and the closing tag, with no trailing newline."""
    x0, y0, w, h = view
    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'viewBox="{x0:.4f} {y0:.4f} {w:.4f} {h:.4f}" '
                 f'width="640" height="{640 * h / w:.0f}">')
        for el in elements:
            fh.write("\n" + el)
        fh.write("\n</svg>")


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data)))


def svg_density_heatmap(density, path: str) -> None:
    """One ``<image>`` over the grid: an 8-bit RGBA PNG (RFC 2083) with one
    pixel per cell, colored by relative density, inlined as a base64 data URI.

    Pixel (row j, column i) is cell ``values[i, j]``, so row 0 sits at the
    origin's y.  A positive cell is opaque in the ramp colour of
    ``v / vmax``; a zero cell is transparent.  Every row has filter byte 0
    and the data is compressed at one fixed zlib level, so the bytes depend
    only on the density.  With no positive cell there is no ``<image>``."""
    vals = density.values
    if vals.ndim != 2:
        raise ValueError("heatmaps are 2D only")
    h = density.spacing
    ox, oy = density.origin
    vmax = float(vals.max()) or 1.0
    nx, ny = vals.shape
    image = []
    cols = vals.T
    positive = cols > 0
    if positive.any():
        rows = np.zeros((ny, 1 + 4 * nx), np.uint8)    # column 0: filter byte
        rgba = rows[:, 1:].reshape(ny, nx, 4, copy=False)
        for k, chan in enumerate(_ramp(cols[positive] / vmax)):
            rgba[..., k][positive] = chan
        rgba[..., 3][positive] = 255
        png = (b"\x89PNG\r\n\x1a\n"
               + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", nx, ny, 8, 6, 0, 0, 0))
               + _png_chunk(b"IDAT", zlib.compress(rows, 6))
               + _png_chunk(b"IEND", b""))
        image.append(f'<image x="{ox:.5f}" y="{oy:.5f}" width="{nx * h:.5f}" '
                     f'height="{ny * h:.5f}" preserveAspectRatio="none" '
                     f'style="image-rendering:pixelated" href="data:image/png;base64,'
                     f'{base64.b64encode(png).decode("ascii")}"/>')
    _write_doc(path, image, (ox, oy, nx * h, ny * h))


def svg_covering(side, path: str) -> None:
    """Yolk circles over region sample clouds, domain side of a covering
    (a stacked ``cover.FamilySide``)."""
    elems = []
    for k, ((cx, cy), r) in enumerate(zip(side.centers, side.radii)):
        pts = side.cloud(k)
        col = _color(k / max(len(side) - 1, 1))
        for p in pts[:: max(1, len(pts) // 400)]:
            elems.append(f'<circle cx="{p[0]:.4f}" cy="{p[1]:.4f}" '
                         f'r="0.02" fill="{col}" fill-opacity="0.35"/>')
        elems.append(f'<circle cx="{cx:.4f}" cy="{cy:.4f}" '
                     f'r="{r:.4f}" fill="none" stroke="{col}" '
                     f'stroke-width="0.02"/>')
    lo = side.samples.min(axis=0) - 1
    hi = side.samples.max(axis=0) + 1
    _write_doc(path, elems, (lo[0], lo[1], hi[0] - lo[0], hi[1] - lo[1]))


def svg_whitney(decomp, path: str) -> None:
    """Whitney cubes colored by their side relative to the largest side."""
    side = decomp.side
    colors = _colors(side / side.max())
    elems = (f'<rect x="{x:.5f}" y="{y:.5f}" '
             f'width="{s:.5f}" height="{s:.5f}" '
             f'fill="{col}" stroke="#333" '
             f'stroke-width="{s * 0.03:.5f}"/>'
             for (x, y), s, col in zip(decomp.corner.tolist(), side.tolist(), colors))
    lo, hi = decomp.domain.bbox()
    pad = 0.05 * float((hi - lo).max())
    _write_doc(path, elems, (lo[0] - pad, lo[1] - pad,
                             hi[0] - lo[0] + 2 * pad, hi[1] - lo[1] + 2 * pad))
