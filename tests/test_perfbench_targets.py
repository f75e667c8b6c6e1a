"""The benchmark's span targets still name attributes of the program.

``perfbench/tracing.py`` wraps program functions by module attribute name
and raises when a pattern matches nothing, so renaming or dropping one of
those names breaks every traced benchmark run.  The benchmark's own smoke
test is outside this suite's ``testpaths``; this check only reads the file.
"""

import fnmatch
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


@pytest.mark.parametrize("module_name, pattern, span", span_targets())
def test_span_target_matches_an_attribute(module_name, pattern, span):
    module = importlib.import_module(module_name)
    assert fnmatch.filter(vars(module), pattern), (
        f"{module_name} has no attribute matching {pattern!r} (span {span})")
