"""Every function in ``src/extremal`` is reached by the bundled catalog, and
every dataclass field is read in the package, or has a named reason to exist.

The function test runs each bundled config once, at the smoke sizes of
``test_cli.SMOKE_OVERRIDES``, and ``extremal list`` under a ``sys.setprofile``
call trace.  It then compares the functions entered, by (file, qualified
name), with every function ``ast`` finds in the package.  A function the
catalog does not enter must be in ``KEEP`` with one of the reasons in
``REASONS``, and ``KEEP`` may list nothing the catalog enters, so dead code
cannot grow back and stale entries do not pile up.

The parameter test does the same for the defaulted parameters of package
functions, with ``KEEP_PARAMS``: a parameter counts as passed when some call
in the package to a function of that name (a class name for ``__init__``)
gives it by keyword or by position.  A default that no call overrides is a
constant, and one that only tests override is a test-only option.

The field test does the same for the fields of every ``@dataclass`` in the
package, with ``KEEP_FIELDS``: a field counts as read when its name is read
as an attribute (``obj.name``) anywhere in the package.  It compares names,
not owners, so it is coarse by design, as the function test is.
"""

import ast
import contextlib
import copy
import io
import math
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
    # survey set kinds `point` and `cantor-rows`
    "sets._seg_point_hits_float": "CLI input",
    "sets.IntervalUnionSet.points": "CLI input",
    "sets.IntervalUnionSet.bbox": "CLI input",
    "sets.IntervalUnionSet.is_finite_point_set": "CLI input",
    "sets.IntervalUnionSet.contains_float_batch": "CLI input",
    "sets.ProductSet.bbox": "CLI input",
    "sets.ProductSet.count_segment_hits_batch": "CLI input",
    # `file` scenes
    "modfam.GridScene.from_json": "CLI input",
    "modfam._rle_decode": "CLI input",
    # the writer of `file` scenes that README documents
    "modfam.GridScene.to_json": "test input builder",
    "modfam._rle_encode": "test input builder",
    # H^1_delta of E next to the certified CNED verdict
    "geom.hausdorff_content": "ROADMAP item 1",
    "geom.hausdorff_normalization": "ROADMAP item 1",
    "sets.IntervalUnionSet.components": "ROADMAP item 1",
    "sets.IntervalUnionSet.intersects_boxes_batch": "ROADMAP item 1",
    "sets.ProductSet.intersects_boxes_batch": "ROADMAP item 1",
    # the n = 3 shell
    "modfam.annulus_scene_3d": "ROADMAP item 5",
    # the Qhull diameter that the line-extreme diameters of a covering are
    # checked against
    "geom.Region.diameter": "test reference",
}

KEEP_PARAMS = {
    # `extremal` reads sys.argv when no list is given
    "cli.main.argv": "CLI input",
    # the gauge of the H^1_delta ladder
    "geom.hausdorff_content.delta": "ROADMAP item 1",
}

KEEP_FIELDS = {
    # the invariants the distortion tests check
    "distort.DistortionProbe.big_l": "test reference",
    "distort.DistortionProbe.small_l": "test reference",
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields_and_reads() -> tuple[dict, set]:
    """module.Class.field of every dataclass field in the package, mapped to
    the field name, and the name of every attribute the package reads."""
    fields, read = {}, set()
    for path in _PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        name = stmt.target.id
                        fields[f"{path.stem}.{node.name}.{name}"] = name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return fields, read


def test_every_dataclass_field_is_read_or_kept_for_a_reason():
    fields, read = _fields_and_reads()
    unread = {key for key, name in fields.items() if name not in read}
    assert sorted(set(KEEP_FIELDS) - set(fields)) == []   # no stale name
    assert sorted(k for k, why in KEEP_FIELDS.items() if not REASONS.fullmatch(why)) == []
    assert sorted(unread - set(KEEP_FIELDS)) == []        # unread, no reason
    assert sorted(set(KEEP_FIELDS) - unread) == []        # read after all


def _defaulted_and_calls() -> tuple[dict, list]:
    """module.qualname.param of every defaulted parameter of a package
    function, mapped to (the name its calls use, its position among the
    arguments a call gives, or None if keyword-only, the parameter name);
    and (name, positional count, keywords) of every call in the package.
    A call with ``*args`` counts as giving every position, one with
    ``**kwargs`` every keyword."""
    defaulted, calls = {}, []

    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" else child.name
                with_default = [(k - skip, a) for k, a in
                                enumerate(pos) if k >= len(pos) - len(args.defaults)]
                with_default += [(None, a) for a, d in
                                 zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                for index, arg in with_default:
                    defaulted[f"{prefix}{child.name}.{arg.arg}"] = (name, index, arg.arg)
                walk(child, prefix + child.name + ".<locals>.", None)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", child.name)

    for path in _PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        walk(tree, path.stem + ".", None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                npos = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                        else len(node.args))
                keywords = {k.arg for k in node.keywords}
                calls.append((name, npos, keywords))
    return defaulted, calls


def test_every_defaulted_parameter_is_passed_or_kept_for_a_reason():
    defaulted, calls = _defaulted_and_calls()
    passed = {key for key, (name, index, arg) in defaulted.items()
              if any(c == name and ((index is not None and index < npos)
                                    or arg in kws or None in kws)
                     for c, npos, kws in calls)}
    unpassed = set(defaulted) - passed
    assert sorted(set(KEEP_PARAMS) - set(defaulted)) == []   # no stale name
    assert sorted(k for k, why in KEEP_PARAMS.items() if not REASONS.fullmatch(why)) == []
    assert sorted(unpassed - set(KEEP_PARAMS)) == []         # never passed, no reason
    assert sorted(set(KEEP_PARAMS) - unpassed) == []         # passed after all
