"""The benchmark's correctness gate, run on the bkpq under test.

perfbench/run.py refuses a timed op whose reports differ from the set its
workload names, or whose verdicts do not all pass (`run.verdict`).  The
harness's own tests (perfbench/tests) check that gate on small ops and
forced failures, not on the workloads' ops, so a change that drops a report
from `verify --suite all`, say, still passes them.  Here the first cycle of
the cli-verify and spec-scan workloads runs in this process, as the
benchmark's worker runs it, and each op must pass.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", ["cli-verify", "spec-scan"])
def test_first_cycle_passes_the_benchmark_gate(workload):
    for op in inputs.first_cycle(workload, 1):
        result = worker.execute(op, None)
        assert run.verdict({"op": op, "result": result}) is None, (op, result)
