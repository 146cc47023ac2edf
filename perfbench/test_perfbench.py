"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Covers the self-time arithmetic on a synthetic span tree, rejection of a
tampered output by the hash check, a seconds-long smoke run of every
workload (traced and untraced, against the golden hashes), and the
runner's command-line interface.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

worker.import_package()

GOLDEN = json.loads((HERE / "golden.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [9, 12] (running past its parent); a has a child g [2, 3].
    return [
        spans.Span("bench.op", 0.0, 10.0, -1),
        spans.Span("coding.viterbi_decode", 1.0, 4.0, 0,
                   attrs={"acs_ops": 100, "survivor_bytes": 50}),
        spans.Span("coding.viterbi_decode", 3.0, 6.0, 0,
                   attrs={"acs_ops": 300, "survivor_bytes": 150}),
        spans.Span("numpy.linalg.svd", 2.0, 3.0, 1,
                   attrs={"matrices": 4, "flops": 40}),
        spans.Span("channel.draw_channel", 9.0, 12.0, 0),
    ]


def test_self_time_of_synthetic_tree():
    # root: children cover [1, 6] and [9, 10] -> 10 - 6 = 4
    assert spans.self_times(_tree()) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_of_synthetic_tree():
    m = spans.layer_metrics(_tree())
    assert m["coding.viterbi_s"] == 5.0
    assert m["beamforming.svd_s"] == 1.0
    assert m["channel.draw_channel_s"] == 3.0
    assert m["channel.draws"] == 1
    assert m["channel.us_per_draw"] == 3e6
    assert m["coding.viterbi_acs_ops"] == 400
    assert m["coding.viterbi_survivor_bytes"] == 150
    assert m["coding.viterbi_ns_per_acs"] == 5.0 / 400 * 1e9
    assert m["beamforming.matrices"] == 4
    assert m["bicm.map_frame_calls"] == 0
    assert m["trace.spans"] == 5


def test_tracer_nests_spans_and_restores_names():
    from bicmb import cli, coding, harness
    original = harness.viterbi_decode
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.install()
    try:
        assert harness.viterbi_decode is not original
        assert cli.distance_spectrum is coding.distance_spectrum
        tracer.run_op(7, lambda: coding.distance_spectrum(
            coding.build_trellis(coding.CodeSpec.from_octal("5,7")), 6))
    finally:
        tracer.uninstall()
    assert harness.viterbi_decode is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["bench.op", "coding.build_trellis",
                         "coding.distance_spectrum"]
    assert all(s.op == 7 for s in tracer.spans)
    assert all(s.parent == 0 for s in tracer.spans[1:3])
    # free_distance runs inside distance_spectrum
    assert tracer.spans[names.index("coding.free_distance")].parent == 2
    assert tracer.spans[2].attrs["events"] > 0


def test_svd_flops_formula():
    # square real n x n: 4n^3 - 4n^3/3 = 8n^3/3
    assert spans.svd_real_flops(3, 3, False) == 72
    assert spans.svd_real_flops(128, 64, True) == spans.svd_real_flops(64, 128, True)


def test_tampered_output_is_rejected(tmp_path):
    op = workloads.analytic_tools(GOLDEN["seed"])[0]
    checker = worker.Checker(GOLDEN, "analytic_tools")
    op_dir = tmp_path / op.name
    op_dir.mkdir()
    result = op.run(op_dir)
    hashes = worker.hash_outputs(op.name, op_dir)
    assert checker.check(op.name, GOLDEN["seed"], result, hashes, None)

    csv = sorted(op_dir.glob("*.csv"))[0]
    csv.write_text(csv.read_text().replace("e-", "e+", 1))
    tampered = worker.hash_outputs(op.name, op_dir)
    assert not checker.check(op.name, GOLDEN["seed"], result, tampered, None)
    # at another seed the first pass is the reference
    assert checker.check(op.name, 99, result, hashes, None)
    assert not checker.check(op.name, 99, result, tampered, None)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke_first_operation_matches_golden(workload, traced, tmp_path):
    ops = workloads.setup(workload, GOLDEN["seed"])[:1]
    checker = worker.Checker(GOLDEN, workload)
    record = worker.run_pass(ops, GOLDEN["seed"], tmp_path, checker, traced, [])
    assert checker.errors == []
    assert (checker.attempted, checker.failed) == (1, 0)
    if traced:
        assert record["layers"]["trace.spans"] > 1


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert set(GOLDEN["workloads"]) == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic_tools",
         "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_every_metric(trace, section):
    done = _run(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        k: v["unit"] for k, v in last["metrics"].items()}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
