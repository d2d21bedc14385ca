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
    run = subprocess.run([sys.executable, "-c", _COVERING_COUNTERS],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr


# the covering counters that ``cover.pairs_out_per_in`` is made of: the input
# pair count and the output pair count of one traced covering
_COVERING_COUNTERS = """
import tracing
from extremal import cover

tracer = tracing.Tracer()
tracing.install(tracer)
res = cover.egg_yolk_cover(cover.random_paired_family(8, 4.0, "identity", seed=5))
(counters,) = [span[5] for span in tracer.spans if span[2] == "cover.egg_yolk_cover"]
assert counters == {"pairs_in": 8, "pairs_out": len(res.to_json()["pairs"])}, counters
"""
