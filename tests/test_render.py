import base64
import re
import struct
import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from extremal import modfam, render


def _ref_color(t: float) -> str:
    """The scalar ramp the heatmap used before it was vectorized."""
    t = min(max(t, 0.0), 1.0)
    r = int(255 * t)
    b = int(255 * (1 - t))
    g = int(64 * (1 - abs(2 * t - 1)))
    return f"#{r:02x}{g:02x}{b:02x}"


def _decode_png(data: bytes) -> np.ndarray:
    """An 8-bit RGBA PNG with filter byte 0 on every row, decoded with the
    stdlib only, as a (height, width, 4) array; every check is asserted."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (n,) = struct.unpack(">I", data[pos:pos + 4])
        tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + n]
        (crc,) = struct.unpack(">I", data[pos + 8 + n:pos + 12 + n])
        assert crc == zlib.crc32(tag + body)
        chunks.append((tag, body))
        pos += 12 + n
    assert pos == len(data)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, ctype, comp, filt, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1])
    assert (depth, ctype, comp, filt, interlace) == (8, 6, 0, 0, 0)
    raw = zlib.decompress(b"".join(b for t, b in chunks if t == b"IDAT"))
    rows = np.frombuffer(raw, np.uint8).reshape(height, 1 + 4 * width)
    assert not rows[:, 0].any()                            # filter byte 0
    return rows[:, 1:].reshape(height, width, 4)


def _heatmap_png(text: str) -> bytes:
    """The PNG of the heatmap's one <image> line."""
    (line,) = [ln for ln in text.split("\n") if ln.startswith("<image ")]
    return base64.b64decode(re.search(r'href="data:image/png;base64,([^"]*)"',
                                      line).group(1), validate=True)


# densities at the ramp's truncation edges: t = k/255 flips r and b, t = k/128
# flips g; 1.0 ties the maximum, and subnormals are positive but tiny
EDGE_VALUES = st.one_of(
    st.just(0.0), st.just(1.0),
    st.integers(0, 255).map(lambda k: k / 255),
    st.integers(0, 128).map(lambda k: k / 128),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300]),
    st.floats(0.0, 1.0))


@st.composite
def edge_arrays(draw):
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    n = shape[0] * shape[1]
    vals = np.array(draw(st.lists(EDGE_VALUES, min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1.0, 1.0, 3.7e-5, 2.0 ** 40]))
    if draw(st.booleans()):
        vals[:] = 0.0                                      # all-zero field
    return (vals * scale).reshape(shape)


def test_colors_match_scalar_ramp():
    ts = [0.0, 0.5, 1.0, -0.5, 1.5] + [k / 255 for k in range(256)] \
        + [k / 128 for k in range(129)]
    assert render._colors(ts) == [_ref_color(t) for t in ts]
    assert [render._color(t) for t in ts] == [_ref_color(t) for t in ts]


@settings(max_examples=300, deadline=None)
@given(vals=edge_arrays(),
       h=st.one_of(st.just(1 / 3), st.just(0.25), st.floats(1e-3, 10.0)),
       ox=st.floats(-50.0, 50.0), oy=st.floats(-50.0, 50.0))
def test_heatmap_pixels_match_scalar_ramp(tmp_path_factory, vals, h, ox, oy):
    """Pixel (row j, column i) is cell (i, j): opaque in the ramp colour of
    v / vmax when v > 0, transparent when v == 0; no image when no cell is
    positive."""
    density = modfam.DensityField(vals, h, np.array([ox, oy]))
    path = tmp_path_factory.mktemp("heatmap") / "figure.svg"
    render.svg_density_heatmap(density, str(path))
    lines = path.read_text().split("\n")
    nx, ny = vals.shape
    assert lines[0] == ('<svg xmlns="http://www.w3.org/2000/svg" '
                        f'viewBox="{ox:.4f} {oy:.4f} {nx * h:.4f} {ny * h:.4f}" '
                        f'width="640" height="{640 * (ny * h) / (nx * h):.0f}">')
    assert lines[-1] == "</svg>"
    if not (vals > 0).any():
        assert len(lines) == 2
        return
    assert len(lines) == 3
    assert lines[1].startswith(f'<image x="{ox:.5f}" y="{oy:.5f}" '
                               f'width="{nx * h:.5f}" height="{ny * h:.5f}" ')
    rgba = _decode_png(_heatmap_png(lines[1]))
    assert rgba.shape == (ny, nx, 4)
    vmax = float(vals.max())
    for (i, j), v in np.ndenumerate(vals):
        if v > 0:
            assert f"#{bytes(rgba[j, i, :3]).hex()}" == _ref_color(float(v) / vmax)
            assert rgba[j, i, 3] == 255
        else:
            assert rgba[j, i, 3] == 0


def test_heatmap_is_one_image_placed_over_the_grid(tmp_path):
    """The document is the head, one <image> line over the grid's extent,
    and the closing tag, with no trailing newline."""
    vals = np.array([[0.0, 2.0, 1.0],
                     [4.0, 0.0, 3.0]])
    density = modfam.DensityField(vals, 0.25, np.array([-1.0, 0.5]))
    path = tmp_path / "figure.svg"
    render.svg_density_heatmap(density, str(path))
    text = path.read_text()
    png = _heatmap_png(text)
    head = ('<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="-1.0000 0.5000 0.5000 0.7500" width="640" height="960">')
    image = ('<image x="-1.00000" y="0.50000" width="0.50000" height="0.75000" '
             'preserveAspectRatio="none" style="image-rendering:pixelated" '
             f'href="data:image/png;base64,{base64.b64encode(png).decode()}"/>')
    assert text == "\n".join([head, image, "</svg>"])
    # 2 columns (x) by 3 rows (y); t = v / 4 through the ramp
    clear = [0, 0, 0, 0]
    assert _decode_png(png).tolist() == [
        [clear, [255, 0, 0, 255]],                  # v 0, 4 (t 1)
        [[127, 64, 127, 255], clear],               # v 2 (t 0.5), 0
        [[63, 32, 191, 255], [191, 32, 63, 255]]]   # v 1 (t 0.25), 3 (t 0.75)


def test_empty_heatmap_is_head_and_closing_tag(tmp_path):
    density = modfam.DensityField(np.zeros((2, 2)), 1.0, np.zeros(2))
    path = tmp_path / "figure.svg"
    render.svg_density_heatmap(density, str(path))
    assert path.read_text().split("\n")[1:] == ["</svg>"]
