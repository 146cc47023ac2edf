"""Every operation of every benchmark workload, run once at the golden
seed, must write the CSV bytes and counts recorded in
``perfbench/golden.json``: the one table of reference outputs.  Every
BER preset variant at its shipped seed must write the full CSV bytes
recorded in ``PRESET_SHA256``.

A change that must move bytes re-records these tables on purpose and
says which hashes moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())

# sha256 of each variant's ``BerCurve.to_csv`` file, in table order
PRESET_SHA256 = {
    ("fig3_interleaver", "structured"):
        "146ff60c8d2f7443bf498833f132136f8793af331a6024a21e5fd494879b3c36",
    ("fig3_interleaver", "adversarial"):
        "e10042fa57185be151c7ebe2f277759f2e9c7585a84ed6469aa257d609ee246f",
    ("fig4_streams", "ns1"):
        "34ff670e2b5bd620e62d599da5c7341b72eb9337c101025fa98e67a0a8ff8e4c",
    ("fig4_streams", "ns2"):
        "d89ccafad69a793cbff7538afe5eabde664be794ed28f905c276864309dc0a8e",
    ("fig4_streams", "ns4"):
        "e9c0391eab3bf968116927c5f4b3e5f36198bf323f375528d7690c77ad74bf65",
    ("fig5_colocated_vs_distributed", "distributed"):
        "5145ea8594438a4920261e73a3c5e84dc0480d2e93c548e91fb954b398bdd78d",
    ("fig5_colocated_vs_distributed", "colocated"):
        "016b6ca38db61cd47ccafd06fe8e578b5dac8f7f29baac22318a010cfa874110",
    ("fig6_fading", "b1"):
        "98e746bf40c143bfcac68c2820139245810c3388e4fe6e8dde3602a97076f4a5",
    ("fig6_fading", "b2"):
        "0a8444850911054a4212b38fd5545a73c4574f0d9122e737887b4859f0fcd946",
    ("fig6_fading", "b3"):
        "1d53514419c47f6fdd17860b22463856ddbf473a59df89091eccea7bdf25ddc0",
    ("fig6_fading", "b4"):
        "398c15159da8c89e4736fe30fa67e6f8b7066d41812cc156e455491b874a06a8",
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_operation_matches_golden(workload, tmp_path):
    ops = workloads.setup(workload, GOLDEN["seed"])
    assert sorted(op.name for op in ops) == sorted(
        GOLDEN["workloads"][workload])
    checker = worker.Checker(GOLDEN, workload)
    worker.run_pass(ops, GOLDEN["seed"], tmp_path, checker, False, [])
    assert checker.errors == []
    assert (checker.attempted, checker.failed) == (len(ops), 0)


def test_every_preset_variant_matches_its_csv_hash(preset_curves, tmp_path):
    # the session's preset run that criteria 6 and 7 use, so no extra sweep
    curves, _ = preset_curves
    got = {}
    for name, variants in curves.items():
        for key, curve in variants.items():
            path = tmp_path / f"{name}_{key}.csv"
            curve.to_csv(path)
            got[name, key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == PRESET_SHA256
