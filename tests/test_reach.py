"""Every function in ``src/extremal`` is reached by the bundled catalog or has
a named reason to exist.

The test runs each bundled config once, at the smoke sizes of
``test_cli.SMOKE_OVERRIDES``, and ``extremal list`` under a ``sys.setprofile``
call trace.  It then compares the functions entered, by (file, qualified
name), with every function ``ast`` finds in the package.  A function the
catalog does not enter must be in ``KEEP`` with one of the reasons in
``REASONS``, and ``KEEP`` may list nothing the catalog enters, so dead code
cannot grow back and stale entries do not pile up.
"""

import ast
import contextlib
import copy
import io
import re
import sys
from pathlib import Path

import extremal
from extremal import cli
from test_cli import SMOKE_OVERRIDES, _apply_override

REASONS = re.compile(r"CLI input|error path|test reference|test input builder"
                     r"|ROADMAP item \d+")

KEEP = {
    # exit 3 of a Whitney run
    "cli._whitney_breach": "error path",
    # survey set kinds `point` and `cantor-rows`, and the `cantor-product`
    # obstacle with "fat": false
    "sets._seg_point_hits_float": "CLI input",
    "sets.IntervalUnionSet.points": "CLI input",
    "sets.IntervalUnionSet.bbox": "CLI input",
    "sets.IntervalUnionSet.is_finite_point_set": "CLI input",
    "sets.IntervalUnionSet.contains_float_batch": "CLI input",
    "sets.ProductSet.bbox": "CLI input",
    "sets.ProductSet.count_segment_hits_batch": "CLI input",
    "sets.CantorSpec.middle_thirds": "CLI input",
    # `file` scenes
    "modfam.GridScene.from_json": "CLI input",
    "modfam._rle_decode": "CLI input",
    # the exact queries the float batch queries are tested against
    "sets.IntervalUnionSet.contains": "test reference",
    "sets.IntervalUnionSet.contains_fraction": "test reference",
    # inputs of tests of kept code
    "modfam.GridScene.to_json": "test input builder",
    "modfam._rle_encode": "test input builder",
    "qhyp.square_domain": "test input builder",
    "geom.PolyCurve.segment": "test input builder",
    "geom.PolyCurve.circle": "test input builder",
    "geom.PolyCurve.translate": "test input builder",
    "geom.PolyCurve.concatenate": "test input builder",
    "geom.PolyCurve.subcurve": "test input builder",
    "geom.PolyCurve.sample_arclength": "test input builder",
    "geom.PolyCurve.point_at": "test input builder",
    # H^1_delta of E next to the certified CNED verdict
    "geom.hausdorff_content": "ROADMAP item 1",
    "geom.hausdorff_normalization": "ROADMAP item 1",
    "sets.IntervalUnionSet.components": "ROADMAP item 1",
    "sets.IntervalUnionSet.intersects_boxes_batch": "ROADMAP item 1",
    "sets.IntervalUnionSet.intersects_intervals_batch": "ROADMAP item 1",
    "sets.ProductSet.intersects_boxes_batch": "ROADMAP item 1",
    # the n = 3 shell
    "modfam.annulus_scene_3d": "ROADMAP item 5",
}

_PACKAGE = Path(extremal.__file__).parent


def _defined() -> set:
    """module.qualname of every function and method in the package."""
    out = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add(prefix + child.name)
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")

    for path in _PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem + ".")
    return out


def _entered_by_catalog(tmp_path) -> set:
    entered = set()
    root = str(_PACKAGE)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            code = frame.f_code
            entered.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        for name, obj in cli.builtin_experiments().items():
            obj = copy.deepcopy(obj)
            obj.update(name=name, out=str(tmp_path / name))
            obj.setdefault("seed", 1)
            for path, value in SMOKE_OVERRIDES.get(name, {}).items():
                _apply_override(obj, path, value)
            assert cli.run_experiment(cli.ExperimentConfig.from_json(obj, name)) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["list"]) == 0
    finally:
        sys.setprofile(None)
    return entered


def test_every_function_is_reached_or_kept_for_a_reason(tmp_path):
    defined = _defined()
    entered = _entered_by_catalog(tmp_path) & defined
    assert sorted(set(KEEP) - defined) == []              # no stale name
    assert sorted(k for k, why in KEEP.items() if not REASONS.fullmatch(why)) == []
    assert sorted(defined - entered - set(KEEP)) == []    # unreached, no reason
    assert sorted(set(KEEP) & entered) == []              # reached after all
