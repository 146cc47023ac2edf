"""Command-line interface.

Subcommands
-----------
simulate       run a BER sweep from a config file or preset, emit CSV
analyze        evaluate the analytic bounds on a config's SNR grid
channel-stats  average singular-value spectrum vs large-array prediction
code-info      convolutional code constants and distance spectrum

Exit codes: 0 success, 1 configuration error, 2 numerical error,
3 completed with stop-rule warnings.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import gamma_fit, union_bound_ber
from .coding import CodeSpec, build_trellis, distance_spectrum, free_distance
from .errors import ConfigurationError, NumericalError
from .harness import (SPECTRUM_CSV_HEADER, SimConfig, build_runtime,
                      load_config, preset, preset_names, spectrum_stats,
                      sweep)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_WARNINGS = 3

ANALYZE_CSV_HEADER = "snr_db,pep_exact,pep_high_snr,union_bound,diversity_gain"

# Bound truncation: events up to free distance + this margin.
_SPECTRUM_MARGIN = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicmb",
        description="Coded-beamforming link simulator and bound calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--config", type=Path, help="flat key=value config file")
        p.add_argument("--preset", choices=preset_names(),
                       help="built-in experiment preset")
        p.add_argument("--variant", help="single preset variant to run")
        p.add_argument("--seed", type=int, help="override the master seed")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo BER sweep")
    add_source(p_sim)
    p_sim.add_argument("--workers", type=int, help="override the worker count")
    p_sim.add_argument("--out", type=Path, required=True,
                       help="output CSV file (directory for multi-variant presets)")

    p_an = sub.add_parser("analyze", help="evaluate analytic BER bounds")
    add_source(p_an)
    p_an.add_argument("--out", type=Path, required=True)

    p_cs = sub.add_parser("channel-stats", help="singular-value spectrum stats")
    add_source(p_cs)
    p_cs.add_argument("--draws", type=int, default=100)
    p_cs.add_argument("--out", type=Path, required=True)

    p_ci = sub.add_parser("code-info", help="code constants and spectrum table")
    p_ci.add_argument("--generators", required=True,
                      help="octal taps, e.g. 133,171")
    p_ci.add_argument("--constraint-length", type=int, default=None)
    p_ci.add_argument("--dmax", type=int, default=16)
    p_ci.add_argument("--out", type=Path, default=None,
                      help="write the CSV table here instead of stdout")
    return parser


def _selected_configs(args, workers: int | None = None) -> dict[str, SimConfig]:
    """Resolve --config/--preset/--variant (and simulate's --workers)
    into named run configs."""
    if (args.config is None) == (args.preset is None):
        raise ConfigurationError("give exactly one of --config or --preset")
    if args.config is not None:
        if not args.config.is_file():
            raise ConfigurationError(f"config file not found: {args.config}")
        cfg = load_config(args.config)
        variants = {cfg.label or "run": cfg}
    else:
        p = preset(args.preset, master_seed=args.seed, workers=workers)
        if not p.variants:
            raise ConfigurationError(
                f"preset {p.name!r} is a spectrum study; use channel-stats")
        variants = p.variants
    if args.variant is not None:
        if args.variant not in variants:
            raise ConfigurationError(
                f"unknown variant {args.variant!r}; have {sorted(variants)}")
        variants = {args.variant: variants[args.variant]}
    if args.config is not None:
        if args.seed is not None:
            variants = {k: replace(v, master_seed=args.seed)
                        for k, v in variants.items()}
        if workers is not None:
            variants = {k: replace(v, workers=workers)
                        for k, v in variants.items()}
    return variants


def _out_file(path: Path) -> Path:
    """``path`` once its directory is known to exist and it is not a
    directory itself, so that a bad ``--out`` fails before any work."""
    if not path.parent.is_dir():
        raise ConfigurationError(f"output directory not found: {path.parent}")
    if path.is_dir():
        raise ConfigurationError(f"output file is a directory: {path}")
    return path


def _out_paths(out: Path, names) -> dict[str, Path]:
    names = list(names)
    if len(names) == 1 and not out.is_dir():
        return {names[0]: _out_file(out)}
    out.mkdir(parents=True, exist_ok=True)
    return {name: _out_file(out / f"{name}.csv") for name in names}


def _cmd_simulate(args) -> int:
    variants = _selected_configs(args, args.workers)
    paths = _out_paths(args.out, variants)
    warned = False
    for name, cfg in variants.items():
        curve = sweep(cfg)
        curve.to_csv(paths[name])
        print(f"{name}: wrote {paths[name]}"
              + (" (stop rule not reached on some points)"
                 if curve.warning_flags.any() else ""))
        warned = warned or bool(curve.warning_flags.any())
    return EXIT_WARNINGS if warned else EXIT_OK


def _write_bound_csv(path: Path, cfg: SimConfig, spectra: dict) -> None:
    """Write one config's bound CSV; ``spectra`` caches each code's
    spectrum across the configs of one call."""
    rt = build_runtime(cfg)
    if cfg.code not in spectra:
        try:
            spectra[cfg.code] = distance_spectrum(
                rt.trellis, free_distance(rt.trellis) + _SPECTRUM_MARGIN)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    spectrum = spectra[cfg.code]
    fit = gamma_fit(cfg.profile)
    grid = np.asarray(cfg.snr_grid_db)
    report = union_bound_ber(spectrum, rt.interleaver, fit, rt.constellation,
                             n_t=cfg.n_t, l_t=cfg.l_t,
                             snr_grid=10.0 ** (grid / 10.0))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        fh.write(f"# alpha_min_leading={report.alpha_min_leading}\n")
        fh.write(f"# coverage_ok={int(report.coverage_ok)}\n")
        fh.write(ANALYZE_CSV_HEADER + "\n")
        for k in range(grid.size):
            fh.write(f"{grid[k]:g},{report.pep[k]:.12e},"
                     f"{report.pep_high_snr[k]:.12e},"
                     f"{report.union_bound[k]:.12e},"
                     f"{report.diversity:.6f}\n")


def _cmd_analyze(args) -> int:
    variants = _selected_configs(args)
    paths = _out_paths(args.out, variants)
    spectra = {}
    for name, cfg in variants.items():
        _write_bound_csv(paths[name], cfg, spectra)
        print(f"{name}: wrote {paths[name]}")
    return EXIT_OK


def _cmd_channel_stats(args) -> int:
    cfg = (preset(args.preset, master_seed=args.seed).spectrum
           if args.preset is not None else None)
    if cfg is None:
        cfg = next(iter(_selected_configs(args).values()))
    elif args.config is not None:
        raise ConfigurationError("give exactly one of --config or --preset")
    elif args.variant is not None:
        raise ConfigurationError(
            f"unknown variant {args.variant!r}; preset {args.preset!r} has none")
    _out_file(args.out)
    sv, pred = spectrum_stats(cfg, args.draws)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SPECTRUM_CSV_HEADER + "\n")
        for k in range(sv.size):
            fh.write(f"{k + 1},{sv[k]:.12e},{pred[k]:.12e}\n")
    print(f"wrote {args.out} ({sv.size} modes, {args.draws} draws)")
    return EXIT_OK


def _cmd_code_info(args) -> int:
    if args.out is not None:
        _out_file(args.out)
    try:
        spec = CodeSpec.from_octal(args.generators, args.constraint_length)
        trellis = build_trellis(spec)
        spectrum = distance_spectrum(trellis, args.dmax)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc

    print(f"generators: {','.join(f'{g:o}' for g in spec.generators)} (octal)")
    print(f"constraint_length: {spec.constraint_length}")
    print(f"states: {trellis.n_states}")
    print(f"d_free: {spectrum.d_free}")
    lines = ["d,count,input_weight"]
    lines += [f"{d},{spectrum.multiplicity(d)},{spectrum.input_weight(d)}"
              for d in spectrum.distances()]
    if args.out is not None:
        args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "channel-stats":
            return _cmd_channel_stats(args)
        return _cmd_code_info(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
