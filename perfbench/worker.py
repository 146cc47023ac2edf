"""Workload process: runs one workload's passes and writes a result file.

Started by ``run.py`` with the BLAS/OpenMP thread counts already pinned
in its environment.  A run is one untimed warm-up pass at the golden
seed, whose CSV hashes are checked against ``golden.json``, then timed
passes at the run's seed until ``--seconds`` have elapsed (at least
two).  With ``--trace 1`` the warm-up pass and every other timed pass
are traced, so traced and untraced passes of one seed are compared hash
for hash and timed against each other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, layer_metrics, work_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TIMED_PASSES = 2


def import_package():
    """Import ``bicmb`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "bicmb" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bicmb sources under {src}")
    sys.path.insert(0, str(src))
    import bicmb
    if Path(bicmb.__file__).resolve().parent != src / "bicmb":
        raise SystemExit(f"perfbench: imported bicmb from {bicmb.__file__}")
    return bicmb


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "workers": 1,
    }


def hash_outputs(op_name: str, op_dir: Path) -> dict:
    return {f"{op_name}/{p.relative_to(op_dir).as_posix()}":
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(op_dir.rglob("*.csv"))}


class Checker:
    """Decides whether each operation of a pass succeeded.

    An operation fails if it raised, if its outcome counts differ from
    ``golden.json``, if its CSV hashes differ from ``golden.json`` (at
    the golden seed) or from the first pass at the same seed, or if its
    traced work counts differ from an earlier traced pass.
    """

    def __init__(self, golden: dict, workload: str):
        self.seed = golden["seed"]
        self.ops = golden["workloads"][workload]
        self.first_hashes: dict[tuple, dict] = {}
        self.first_work: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> bool:
        self.errors.append(message)
        print(f"perfbench: {message}", file=sys.stderr)
        return False

    def check(self, name, seed, result, hashes, work) -> bool:
        ok = self._verdict(name, seed, result, hashes, work)
        self.attempted += 1
        self.failed += not ok
        return ok

    def _verdict(self, name, seed, result, hashes, work) -> bool:
        if result is None:
            return False
        golden = self.ops.get(name, {})
        if vars(result) != golden.get("counts"):
            return self.fail(f"{name} seed {seed}: counts {vars(result)} "
                             f"differ from golden.json {golden.get('counts')}")
        if seed == self.seed:
            expected = golden.get("sha256", {})
        else:
            expected = self.first_hashes.setdefault((seed, name), hashes)
        if hashes != expected:
            bad = sorted(k for k in set(hashes) | set(expected)
                         if hashes.get(k) != expected.get(k))
            return self.fail(f"{name} seed {seed}: output hash mismatch {bad}")
        if work is not None and work != self.first_work.setdefault(name, work):
            return self.fail(f"{name}: traced work counts {work} differ "
                             f"from an earlier pass {self.first_work[name]}")
        return True


def run_pass(ops, seed: int, out: Path, checker: Checker, traced: bool,
             span_log: list) -> dict:
    tracer = Tracer() if traced else None
    runs = []
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        for op_id, op in enumerate(ops):
            op_dir = out / f"seed{seed}" / op.name
            shutil.rmtree(op_dir, ignore_errors=True)
            op_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            try:
                result = (tracer.run_op(op_id, lambda: op.run(op_dir))
                          if tracer else op.run(op_dir))
            except Exception:
                result = None
                checker.fail(f"{op.name} seed {seed} raised:\n"
                             + traceback.format_exc())
            runs.append((op, op_dir, result, time.perf_counter() - t0))
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()

    records = []
    for op_id, (op, op_dir, result, seconds) in enumerate(runs):
        hashes = hash_outputs(op.name, op_dir)
        work = (work_counts([s for s in tracer.spans if s.op == op_id])
                if tracer else None)
        ok = checker.check(op.name, seed, result, hashes, work)
        records.append({"name": op.name, "seconds": seconds, "ok": ok,
                        "hashes": hashes,
                        "result": vars(result) if result else None})
    record = {"seed": seed, "traced": traced, "wall_s": wall, "ops": records}
    if tracer:
        record["layers"] = layer_metrics(tracer.spans) | {
            f"harness.{key}": sum(r["result"][key] for r in records if r["result"])
            for key in ("frames", "batches", "points_capped")}
        span_log.append([s.as_list() for s in tracer.spans])
    return record


def summary(values) -> dict:
    """Median and tail of a sample, with the sample count.

    The tail is the highest percentile with at least ten samples beyond
    it; below eleven samples no such percentile exists and the maximum
    is given instead (``tail_pct`` 100).
    """
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs),
           "tail_pct": 100, "tail": xs[-1]}
    if n >= 11:
        out["tail_pct"] = round(100 * (n - 10) / n)
        out["tail"] = xs[n - 11]
    return out


def end_to_end(passes) -> dict:
    """Wall time and throughput of untraced timed passes.

    Throughput is frames (or channel realisations, for a spectrum study)
    per second of the operations that produce them.
    """
    rates = []
    op_seconds: dict[str, list] = {}
    for p in passes:
        units = busy = 0
        for op in p["ops"]:
            op_seconds.setdefault(op["name"], []).append(op["seconds"])
            r = op["result"]
            if r and (r["frames"] or r["draws"]):
                units += r["frames"] + r["draws"]
                busy += op["seconds"]
        if busy:
            rates.append(units / busy)
    return {"wall_s": summary([p["wall_s"] for p in passes]),
            "frames_per_s": summary(rates or [0.0]),
            "op_seconds": {k: summary(v) for k, v in op_seconds.items()}}


def _median_or_exact(values):
    """Counts repeat exactly and are kept as integers; times take the median."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def per_layer(passes) -> dict:
    """Medians of traced timed passes' layer metrics, plus trace overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {name: _median_or_exact([p["layers"][name] for p in traced])
               for name in traced[0]["layers"]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the monotonic clock once set up, then exit")
    args = ap.parse_args(argv)

    import_package()
    ops = workloads.setup(args.workload, args.seed)
    if args.setup_only:
        print(time.monotonic())
        return 0

    checker = Checker(json.loads((HERE / "golden.json").read_text()),
                      args.workload)
    traced = bool(args.trace)
    span_log: list = []
    warm = run_pass(workloads.WORKLOADS[args.workload](checker.seed),
                    checker.seed, args.out, checker, traced, span_log)
    passes = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(passes) < MIN_TIMED_PASSES):
        passes.append(run_pass(ops, args.seed, args.out, checker,
                               traced and len(passes) % 2 == 0, span_log))

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "attempted": checker.attempted, "failed": checker.failed,
        "errors": checker.errors,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sha256": {k: v for op in passes[0]["ops"] for k, v in op["hashes"].items()},
        "golden_entry": {op["name"]: {"counts": op["result"], "sha256": op["hashes"]}
                         for op in warm["ops"]},
        "end_to_end": end_to_end([p for p in passes if not p["traced"]]),
        "passes": [{"seed": p["seed"], "traced": p["traced"],
                    "wall_s": p["wall_s"],
                    "op_seconds": [op["seconds"] for op in p["ops"]]}
                   for p in [warm] + passes],
    }
    if traced:
        result["per_layer"] = per_layer(passes)
        (args.out / "spans.json").write_text(json.dumps(span_log))
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
