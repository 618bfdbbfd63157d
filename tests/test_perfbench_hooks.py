"""The names the traced benchmark wraps must exist where it looks them up.

perfbench/traced.py replaces `module.name` and `Class.method` by timed
wrappers; a rename in the package would only show when the benchmark
runs.  This loads traced.py by path, without installing its wrappers,
and checks every name it would wrap.  It also loads workloads.py by path
and runs every workload's set-up and derived counts at seed 0.
"""

import importlib.util
import sys
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


WORKLOADS = TRACED.with_name("workloads.py")


def test_every_workload_sets_up_and_derives_its_counts(monkeypatch):
    # the benchmark's set-up and derived counts call the library directly
    # (config builders, schedule generation, population values); a changed
    # signature there would only show when the benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, commands in workloads.WORKLOADS.items():
        for command in commands:
            assert workloads.setup(name, command.name, 0)
        counts = workloads.expected_counts(name, 0)
        assert set(counts) == {command.name for command in commands}
