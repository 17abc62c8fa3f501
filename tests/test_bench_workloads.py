"""Each benchmark workload runs one operation against gridstore and passes its
own output checks, so a change that breaks bench/'s calls into gridstore
fails here rather than only in a benchmark run."""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", [workloads.QuickstartPlace, workloads.RtsGreedy])
def test_workload_runs_and_matches_its_references(tmp_path, workload):
    (tmp_path / "cases").symlink_to(REPO / "cases")  # outputs go under tmp_path
    w = workload(tmp_path, seed=1)
    w.setup()
    w.warm_up()
    result = w.run(w.jobs)
    assert w.check(result) == []
    assert w.check_reference(result) == []
