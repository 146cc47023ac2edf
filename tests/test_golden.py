"""Every operation of every benchmark workload, run once at the golden
seed, must write the CSV bytes and counts recorded in
``perfbench/golden.json``: the one table of reference outputs.

A change that must move bytes re-records that table on purpose and says
which hashes moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_operation_matches_golden(workload, tmp_path):
    ops = workloads.setup(workload, GOLDEN["seed"])
    assert sorted(op.name for op in ops) == sorted(
        GOLDEN["workloads"][workload])
    checker = worker.Checker(GOLDEN, workload)
    worker.run_pass(ops, GOLDEN["seed"], tmp_path, checker, False, [])
    assert checker.errors == []
    assert (checker.attempted, checker.failed) == (len(ops), 0)
