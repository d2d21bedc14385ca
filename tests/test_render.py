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


def _ref_heatmap(density, path: str) -> None:
    """The per-cell heatmap generator the row-wise writer replaced."""
    vals = density.values
    h = density.spacing
    ox, oy = density.origin
    vmax = float(vals.max()) or 1.0
    rects = (f'<rect x="{ox + i * h:.5f}" y="{oy + j * h:.5f}" width="{h:.5f}" '
             f'height="{h:.5f}" fill="{_ref_color(float(vals[i, j]) / vmax)}"/>'
             for i, j in np.argwhere(vals > 0))
    nx, ny = vals.shape
    render._write_doc(path, rects, (ox, oy, nx * h, ny * h))


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
def test_heatmap_bytes_match_per_cell_writer(tmp_path_factory, vals, h, ox, oy):
    density = modfam.DensityField(vals, h, np.array([ox, oy]))
    out = tmp_path_factory.mktemp("heatmap")
    render.svg_density_heatmap(density, str(out / "new.svg"))
    _ref_heatmap(density, str(out / "ref.svg"))
    assert (out / "new.svg").read_bytes() == (out / "ref.svg").read_bytes()


def test_heatmap_streams_the_document_it_used_to_join(tmp_path):
    """The heatmap is written element by element; the bytes are those of the
    whole document joined in memory: head, one <rect> per positive cell in
    row-major order, closing tag, one per line, no trailing newline."""
    vals = np.array([[0.0, 2.0, 1.0],
                     [4.0, 0.0, 3.0]])
    density = modfam.DensityField(vals, 0.25, np.array([-1.0, 0.5]))
    path = tmp_path / "figure.svg"
    render.svg_density_heatmap(density, str(path))
    rects = [f'<rect x="{-1.0 + i * 0.25:.5f}" y="{0.5 + j * 0.25:.5f}" '
             f'width="0.25000" height="0.25000" fill="{render._color(v / 4.0)}"/>'
             for (i, j), v in np.ndenumerate(vals) if v > 0]
    head = ('<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="-1.0000 0.5000 0.5000 0.7500" width="640" height="960">')
    assert path.read_text() == "\n".join([head, *rects, "</svg>"])


def test_empty_heatmap_is_head_and_closing_tag(tmp_path):
    density = modfam.DensityField(np.zeros((2, 2)), 1.0, np.zeros(2))
    path = tmp_path / "figure.svg"
    render.svg_density_heatmap(density, str(path))
    assert path.read_text().split("\n")[1:] == ["</svg>"]
