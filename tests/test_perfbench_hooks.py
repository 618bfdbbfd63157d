"""The names the traced benchmark wraps must exist where it looks them up.

perfbench/traced.py replaces `module.name` and `Class.method` by timed
wrappers; a rename in the package would only show when the benchmark
runs.  This loads traced.py by path, without installing its wrappers,
and checks every name it would wrap.
"""

import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_callable(traced):
    missing = [f"{owner.__name__}.{name}"
               for owner, name, _ in traced.SPANS + traced.METHODS
               if not callable(getattr(owner, name, None))]
    assert traced.SPANS and traced.METHODS
    assert missing == []
