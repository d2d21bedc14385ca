import numpy as np

from extremal import modfam, render


def test_heatmap_streams_the_document_it_used_to_join(tmp_path):
    """The heatmap is written element by element; the bytes are those of the
    whole document joined in memory: head, one <rect> per positive cell in
    row-major order, closing tag, one per line, no trailing newline."""
    vals = np.array([[0.0, 2.0, 1.0],
                     [4.0, 0.0, 3.0]])
    density = modfam.DensityField(vals, 0.25, np.array([-1.0, 0.5]), 2.0)
    path = tmp_path / "figure.svg"
    render.svg_density_heatmap(density, str(path))
    rects = [f'<rect x="{-1.0 + i * 0.25:.5f}" y="{0.5 + j * 0.25:.5f}" '
             f'width="0.25000" height="0.25000" fill="{render._color(v / 4.0)}"/>'
             for (i, j), v in np.ndenumerate(vals) if v > 0]
    head = ('<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="-1.0000 0.5000 0.5000 0.7500" width="640" height="960">')
    assert path.read_text() == "\n".join([head, *rects, "</svg>"])


def test_empty_heatmap_is_head_and_closing_tag(tmp_path):
    density = modfam.DensityField(np.zeros((2, 2)), 1.0, np.zeros(2), 2.0)
    path = tmp_path / "figure.svg"
    render.svg_density_heatmap(density, str(path))
    assert path.read_text().split("\n")[1:] == ["</svg>"]
