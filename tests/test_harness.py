"""The suite's warning policy, run on a small suite of its own in a fresh
pytest process: a failing ``@given`` test fails alone instead of aborting the
session, and a warning from the program still fails its test."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import extremal

_INNER = '''
import numpy as np
import scipy.sparse.linalg
from hypothesis import given, strategies as st

from extremal import modfam


@given(st.integers())
def test_a_failing_given(n):
    assert n < 5


def test_b_runs_after_it():
    pass


def test_c_program_warning_fails(monkeypatch):
    sc = modfam.annulus_scene(1.0, 2.0, 16)
    monkeypatch.setattr(scipy.sparse.linalg, "cg",
                        lambda A, b, **kwargs: (np.zeros_like(b), 1))
    modfam._dirichlet_rho(sc.u, sc.f1, sc.f2, sc.spacing, 2)
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    # before the mypy_extensions filter, the first test ended the session in
    # INTERNALERROR (exit 3) and the two after it never ran
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_inner.py").write_text(_INNER)
    src = str(Path(extremal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
                          "test_inner.py"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "test_inner.py::test_a_failing_given FAILED" in out
    assert "test_inner.py::test_b_runs_after_it PASSED" in out
    assert "test_inner.py::test_c_program_warning_fails FAILED" in out
    assert "RuntimeWarning: multigrid-CG" in out
