"""Checks of the benchmark itself: traced counts and byte-identical outputs.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at the default seed.
The traced counts must equal the counts derived from the regenerated
inputs (workloads.expected_counts), and every output must match the
recorded digest and the untraced run.
"""

import os
import shutil
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import CHECKED_COUNTS, SRC, WORK, Workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, SRC)


@pytest.fixture
def workload(request):
    name, seed = request.param
    w = Workload(name, seed, os.path.join(WORK, f"test-{name}-{os.getpid()}"))
    os.makedirs(w.dir)
    yield w
    shutil.rmtree(w.dir, ignore_errors=True)


@pytest.mark.parametrize("workload", [(name, 0) for name in WORKLOADS],
                         indirect=True, ids=list(WORKLOADS))
def test_traced_counts_and_outputs(workload):
    # digests recorded on another platform do not apply; the repeats must
    # then still agree with each other
    if workload.reference:
        assert set(workload.reference) == {f"{c.name}/{f}" for c in workload.commands
                                           for f in c.outputs}
    workload.repeat()
    traced = workload.repeat(traced=True)
    assert workload.failures == {}
    assert set(traced["summaries"]) == {c.name for c in workload.commands}


@pytest.mark.parametrize("workload", [("scalar_paths", 5)], indirect=True)
def test_count_mismatch_fails_the_operation(workload):
    # a derived count one off must be reported, so the check is not vacuous
    workload.expected["rotated_sweep"] += Counter({CHECKED_COUNTS[0]: 1})
    workload.repeat(traced=True)
    (reasons,) = workload.failures.values()
    assert any(CHECKED_COUNTS[0] in r for r in reasons)
