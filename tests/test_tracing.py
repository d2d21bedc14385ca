"""The benchmark's traced pass (``perfbench/tracing.py``) patches the
package's entry points by name, from outside, so renaming one would break a
``--trace 1`` run with no other test noticing.  The tracer is installed in a
fresh process, which leaves no module of this one patched."""

import os
import subprocess
import sys
from pathlib import Path

import extremal

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_on_the_package():
    src = str(Path(extremal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(_PERFBENCH), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c",
                          "import tracing; tracing.install(tracing.Tracer())"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
