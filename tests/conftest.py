"""Every test under this directory fails on a warning it does not expect: a
degraded path (a CG that falls back to spsolve warns) must not pass silently."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(_HERE):
            item.add_marker(pytest.mark.filterwarnings("error"))
