"""The benchmark's workloads: fixed lists of operations on ``bicmb``.

An operation is one sweep variant or one CLI call.  It writes CSV files
into its own directory; the worker hashes them afterwards.  Every input
is derived from the workload seed; the program sees only those inputs.
All load runs in one process with ``workers = 1``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

# One variant per shipped BER preset family, at its first (lowest) SNR
# point: BER there is high enough that the 200-error stop rule ends every
# point after exactly one 1024-frame batch, so the work per pass is the
# same for every seed.
DESK_VARIANTS = (
    ("fig3_interleaver", "structured"),
    ("fig3_interleaver", "adversarial"),
    ("fig4_streams", "ns4"),
    ("fig5_colocated_vs_distributed", "colocated"),
    ("fig6_fading", "b1"),
)

# A 64 x 128 composite link run from config-file text with the file
# defaults (256-frame batches, min_errors 200).  Every point of the grid
# sees hundreds of bit errors in its first batch, so each point stops
# after one batch: 1024 frames per pass.
MASSIVE_CONFIG = """\
m_r = 2
m_t = 2
n_r = 32
n_t = 64
beta_db = -20
paths = 2
n_s = 4
modulation = bpsk
generators = 133,171
interleaver = random
frame_bits = 128
snr_db = 0:1.5:4.5
master_seed = {seed}
"""

BER_PRESETS = ("fig3_interleaver", "fig4_streams",
               "fig5_colocated_vs_distributed", "fig6_fading")
SPECTRUM_DRAWS = 2000
# Spectrum depth d_free + 8 (d_free is 10 and 12).
CODE_INFO = (("133,171", 18), ("561,753", 20))


@dataclass
class OpResult:
    frames: int = 0           # coded frames simulated
    batches: int = 0          # frame batches the stop rule scheduled
    points_capped: int = 0    # SNR points stopped by max_frames
    draws: int = 0            # channel realisations of a spectrum study


@dataclass
class Operation:
    name: str
    run: Callable[[Path], OpResult]


def _sweep_result(curve, config) -> OpResult:
    frames = [int(f) for f in curve.frames]
    return OpResult(
        frames=sum(frames),
        batches=sum(-(-f // config.batch_frames) for f in frames),
        points_capped=int(curve.warning_flags.sum()))


def _sweep_op(name: str, make_config) -> Operation:
    def run(out: Path) -> OpResult:
        from bicmb import harness
        config = make_config(harness)
        if config.workers != 1:
            raise ValueError("the benchmark runs single-worker sweeps only")
        curve = harness.sweep(config)
        curve.to_csv(out / "ber.csv")
        return _sweep_result(curve, config)
    return Operation(name, run)


def _desk_config(preset_name, variant, seed):
    def make(harness):
        config = harness.preset(preset_name, master_seed=seed,
                                workers=1).variants[variant]
        return replace(config, snr_grid_db=config.snr_grid_db[:1])
    return make


def _cli_op(name: str, argv: list, result: OpResult | None = None) -> Operation:
    def run(out: Path) -> OpResult:
        from bicmb import cli
        args = [a.format(out=out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"bicmb {' '.join(args)} exited {code}")
        return result or OpResult()
    return Operation(name, run)


def desk_presets(seed: int) -> list:
    return [_sweep_op(f"{p}.{v}", _desk_config(p, v, seed))
            for p, v in DESK_VARIANTS]


def massive_array(seed: int) -> list:
    return [_sweep_op("massive", lambda harness: harness.parse_config(
        MASSIVE_CONFIG.format(seed=seed)))]


def analytic_tools(seed: int) -> list:
    ops = [_cli_op(f"analyze.{p}", ["analyze", "--preset", p, "--seed",
                                    str(seed), "--out", "{out}"])
           for p in BER_PRESETS]
    ops.append(_cli_op(
        "channel-stats.fig2_spectrum",
        ["channel-stats", "--preset", "fig2_spectrum", "--seed", str(seed),
         "--draws", str(SPECTRUM_DRAWS), "--out", "{out}/spectrum.csv"],
        OpResult(draws=SPECTRUM_DRAWS)))
    for generators, dmax in CODE_INFO:
        ops.append(_cli_op(
            f"code-info.{generators.replace(',', '_')}",
            ["code-info", "--generators", generators, "--dmax", str(dmax),
             "--out", "{out}/spectrum.csv"]))
    return ops


WORKLOADS = {
    "desk_presets": desk_presets,
    "massive_array": massive_array,
    "analytic_tools": analytic_tools,
}


def setup(workload: str, seed: int) -> list:
    """Everything a workload does before its first operation.

    Imports the package, builds the operations, and parses every input
    and builds every sweep's runtime once, as a sweep does on entry.
    """
    from bicmb import cli, harness  # noqa: F401  (cli: analytic_tools)
    ops = WORKLOADS[workload](seed)
    if workload == "desk_presets":
        for p, v in DESK_VARIANTS:
            harness.build_runtime(_desk_config(p, v, seed)(harness))
    elif workload == "massive_array":
        harness.build_runtime(harness.parse_config(
            MASSIVE_CONFIG.format(seed=seed)))
    else:
        for p in BER_PRESETS:
            harness.preset(p, master_seed=seed)
    return ops
