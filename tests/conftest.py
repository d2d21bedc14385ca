"""Every test under this directory fails on a warning it does not expect: a
degraded path (a CG that falls back to spsolve warns) must not pass silently.

The one exception is a third-party warning that no test can act on:
hypothesis's report hook reads ``mypy_extensions.TypedDict``, which warns
that it is deprecated.  As an error that warning is raised inside pytest's
hook teardown, where it aborts the whole session (INTERNALERROR, exit 3) at
the first failing ``@given`` test."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent

_FILTERS = ("error",
            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(_HERE):
            item.add_marker(pytest.mark.filterwarnings(*_FILTERS))
