"""Benchmark of the bicmb link simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk_presets --seed 1 --seconds 15 --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``)
in a separate process with BLAS and OpenMP pinned to one thread and
``workers = 1``, checks every CSV it writes, and prints a summary
followed by one JSON line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  ``setup_s``
is the median over several fresh processes of the time from process
start to the point where the first operation could begin.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up takes ~0.2 s and the host's speed drifts over tens of seconds,
# so half the probes run before the workload process and half after it.
SETUP_PROBES = 16
DEADLINE_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def worker_cmd(args, out: Path) -> list:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(out)]


def probe_setup(cmd: list, env: dict, timeout: float) -> float:
    """Seconds from starting a fresh worker to the end of its set-up."""
    start = time.monotonic()
    done = subprocess.run(cmd + ["--setup-only"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout,
                          check=True)
    return float(done.stdout.split()[-1]) - start


def fmt_summary(s: dict) -> str:
    tail = "max" if s["tail_pct"] == 100 else f"p{s['tail_pct']}"
    return f"median {s['median']:.6g}  {tail} {s['tail']:.6g}  (n={s['n']})"


def report(result: dict, setups: list, units: dict) -> None:
    env = result["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, nproc {env['nproc']} "
          f"({env['cpus_allowed']} allowed), {threads}, "
          f"workers {env['workers']}")
    e2e = result["end_to_end"]
    print(f"wall_s [s]          {fmt_summary(e2e['wall_s'])} timed passes")
    print(f"frames_per_s [1/s]  {fmt_summary(e2e['frames_per_s'])}")
    for name, s in e2e["op_seconds"].items():
        print(f"  op {name:40s} [s]  {fmt_summary(s)}")
    if setups:
        print(f"setup_s [s]         median {statistics.median(setups):.6g}  "
              f"max {max(setups):.6g}  (n={len(setups)} processes)")
    print(f"peak_rss_mib [MiB]  {result['peak_rss_mib']:.6g}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:34s} [{units[name]}] {value:.6g}")
    print(f"failed_frac   {result['failed']}/{result['attempted']} operations")
    for key, digest in result["sha256"].items():
        print(f"sha256 seed={result['seed']} {key} {digest}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "bicmb" / "__init__.py").is_file():
        print("perfbench: this checkout has no src/bicmb to benchmark",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, **PINNED_THREADS)
    cmd = worker_cmd(args, out)
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [probe_setup(cmd, env, deadline - time.monotonic())
                  for _ in range(probes)]
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       timeout=deadline - time.monotonic())
        setups += [probe_setup(cmd, env, deadline - time.monotonic())
                   for _ in range(probes)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        if getattr(exc, "stderr", None):
            print(exc.stderr, file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())
    report(result, setups, {m["name"]: m["unit"] for m in spec["per_layer"]})

    if args.trace:
        values = result["per_layer"]
        wanted = spec["per_layer"]
    else:
        e2e = result["end_to_end"]
        values = {"wall_s": e2e["wall_s"]["median"],
                  "frames_per_s": e2e["frames_per_s"]["median"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": result["peak_rss_mib"]}
        wanted = spec["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
