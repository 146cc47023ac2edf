"""Monte Carlo harness: configuration, deterministic BER sweeps, presets.

A sweep draws a fresh channel for every coded frame (quasi-static
fading), runs the coded chain over the scalar subchannels, and
accumulates bit errors per SNR point until a stop rule is met.  Every
frame's randomness is derived from (master_seed, snr index, frame
index) alone, frames are scheduled in fixed-size batches, and workers
only split batches into contiguous chunks, so the emitted curve is
byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import bicm
from .beamforming import (_path_singular_values, predicted_gains,
                          singular_values)
from .channel import (ArrayGeometry, FadingProfile, draw_channels,
                      draw_path_sets, linear_to_db)
from .coding import CodeSpec, build_trellis, encode, free_distance, viterbi_decode
from .errors import ConfigurationError, NumericalError

__all__ = [
    "SimConfig",
    "BerCurve",
    "SpectrumJob",
    "Preset",
    "parse_config",
    "load_config",
    "build_runtime",
    "sweep",
    "spectrum_stats",
    "preset",
    "preset_names",
]

BER_CSV_HEADER = "snr_db,frames,bits,bit_errors,ber,warning"
SPECTRUM_CSV_HEADER = "index,singular_value,predicted_value"

# Seed-derivation namespaces (first spawn_key element).
_NS_FRAME = 0
_NS_INTERLEAVER = 1
_NS_SPECTRUM = 2

# Draws per stacked SVD in spectrum_stats.  A chunk of 32 fig2 matrices
# is 1 MiB.  Over 2000 fig2 draws, chunks of 64 and 128 ran no faster
# and raised peak memory by 2 and 6 MiB; one chunk of all draws by 65 MiB.
_SPECTRUM_CHUNK = 32

# Decoder survivor bytes (one bool per step, state and frame) that one
# sub-batch of a span may hold.  A span runs through the link this many
# frames at a time, so its working set does not grow with batch_frames:
# the 64-state desk presets get 254 frames of 1030 steps, and 128-bit
# frames stay whole up to 1956.  Over the five desk benchmark sweeps
# (one BLAS thread), 254-frame sub-batches peaked at 88 MiB and whole
# 1024-frame batches at 204 MiB, at about the same speed; 64-frame
# sub-batches ran 1.5x slower, as the decoder's per-step calls dominate.
_SUBBATCH_SURVIVOR_BYTES = 16 << 20

# Each worker is a forked process, and the pool starts all of them at
# its first task, so the count is bounded whatever the core count.
_MAX_WORKERS = 64

_MODULATIONS = ("bpsk", "qpsk", "16qam")
_INTERLEAVERS = ("structured", "random", "adversarial")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one BER simulation.

    ``profile`` holds linear-scale fading powers (configs give dB).
    ``adversarial_run`` of 0 means "use the code's free distance".
    ``rf_chains_per_stream`` is recorded for documentation only; the
    unconstrained beamformer does not use it.
    """

    m_r: int
    m_t: int
    n_r: int
    n_t: int
    profile: FadingProfile
    n_s: int
    modulation: str
    code: CodeSpec
    interleaver: str = "structured"
    depth: int = 8
    adversarial_run: int = 0
    frame_bits: int = 1024
    snr_grid_db: tuple = ()
    min_errors: int = 200
    max_frames: int = 100_000
    master_seed: int = 1
    workers: int = 1
    batch_frames: int = 256
    spacing: float = 0.5
    angle_range_deg: tuple = (-90.0, 90.0)
    rf_chains_per_stream: int = 2
    label: str = ""

    def __post_init__(self):
        if self.profile.m_r != self.m_r or self.profile.m_t != self.m_t:
            raise ConfigurationError("fading profile shape must be m_r x m_t")
        for name in ("m_r", "m_t", "n_r", "n_t", "n_s", "frame_bits",
                     "min_errors", "max_frames", "depth", "batch_frames",
                     "workers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be a positive integer")
        if self.workers > _MAX_WORKERS:
            raise ConfigurationError(f"workers cannot exceed {_MAX_WORKERS}")
        if self.n_s > min(self.m_r * self.n_r, self.m_t * self.n_t):
            raise ConfigurationError(
                "n_s cannot exceed the composite channel dimensions")
        if self.modulation not in _MODULATIONS:
            raise ConfigurationError(f"unknown modulation {self.modulation!r}")
        if self.interleaver not in _INTERLEAVERS:
            raise ConfigurationError(f"unknown interleaver {self.interleaver!r}")
        if (self.interleaver == "structured" and self.n_s == 1 and self.depth < 2
                and bicm.make_constellation(self.modulation).bits_per_symbol > 1):
            raise ConfigurationError(
                "the structured interleaver needs depth >= 2 for a single "
                "stream of multi-bit symbols")
        grid = tuple(float(v) for v in self.snr_grid_db)
        if len(grid) == 0:
            raise ConfigurationError("snr_db grid is empty")
        if not all(math.isfinite(v) for v in grid):
            raise ConfigurationError("snr_db values must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigurationError("snr_db grid must be strictly increasing")
        if self.adversarial_run < 0:
            raise ConfigurationError("adversarial_run cannot be negative")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed cannot be negative")
        if not np.any(self.profile.beta > 0):
            raise ConfigurationError(
                "fading profile has no power in any subarray pair")
        _check_spacing(self.spacing, self.n_r, self.n_t)
        k = self.code.constraint_length
        survivors = (self.frame_bits + k - 1) << (k - 1)
        if survivors > _SUBBATCH_SURVIVOR_BYTES:
            raise ConfigurationError(
                f"frame_bits {self.frame_bits} is too large: one frame's "
                f"decoder survivors take {survivors} bytes, above the "
                f"{_SUBBATCH_SURVIVOR_BYTES}-byte sub-batch budget")
        lo, hi = self.angle_range_deg
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError("azimuth bounds must be finite")
        if not lo < hi:
            raise ConfigurationError("empty azimuth range")
        object.__setattr__(self, "snr_grid_db", grid)
        object.__setattr__(self, "angle_range_deg", (float(lo), float(hi)))

    @property
    def l_t(self) -> int:
        return self.profile.total_paths

    def canonical_text(self) -> str:
        """Stable key=value rendering used for hashing and export.

        Covers every field that can change simulation results; execution
        knobs that cannot (worker count, display label) are left out so
        reruns of the same experiment hash identically.
        """
        beta_db = self.profile.beta_db
        if beta_db is None:
            beta_db = linear_to_db(np.maximum(self.profile.beta, 1e-300))
        items = [
            ("m_r", self.m_r), ("m_t", self.m_t),
            ("n_r", self.n_r), ("n_t", self.n_t),
            ("beta_db", _matrix_text(beta_db)),
            ("paths", _matrix_text(self.profile.paths)),
            ("n_s", self.n_s),
            ("modulation", self.modulation),
            ("generators", ",".join(f"{g:o}" for g in self.code.generators)),
            ("constraint_length", self.code.constraint_length),
            ("interleaver", self.interleaver),
            ("depth", self.depth),
            ("adversarial_run", self.adversarial_run),
            ("frame_bits", self.frame_bits),
            ("snr_db", ",".join(_number_text(v) for v in self.snr_grid_db)),
            ("min_errors", self.min_errors),
            ("max_frames", self.max_frames),
            ("master_seed", self.master_seed),
            ("batch_frames", self.batch_frames),
            ("spacing", _number_text(self.spacing)),
            ("angle_min_deg", _number_text(self.angle_range_deg[0])),
            ("angle_max_deg", _number_text(self.angle_range_deg[1])),
            ("rf_chains_per_stream", self.rf_chains_per_stream),
        ]
        return "".join(f"{k} = {v}\n" for k, v in items)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _check_spacing(spacing: float, n_r: int, n_t: int) -> None:
    if not (math.isfinite(spacing) and spacing > 0):
        raise ConfigurationError("spacing must be a positive finite number")
    # the largest steering phase is below 2 pi * spacing * N
    if not math.isfinite(2 * math.pi * spacing * max(n_r, n_t)):
        raise ConfigurationError(
            f"spacing {spacing!r} is too large: steering phases overflow")


def _number_text(v) -> str:
    """``:g`` form when it reads back exactly, else the shortest exact repr."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


def _matrix_text(mat) -> str:
    mat = np.atleast_2d(mat)
    return "; ".join(" ".join(_number_text(v) for v in row) for row in mat)


def _parse_matrix(value: str) -> np.ndarray:
    try:
        rows = [[float(tok) for tok in row.split()] for row in value.split(";")]
    except ValueError as exc:
        raise ConfigurationError(f"bad matrix value {value!r}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows) or not rows[0]:
        raise ConfigurationError(f"ragged matrix value {value!r}")
    return np.asarray(rows)


def _parse_snr_grid(value: str) -> tuple:
    value = value.strip()
    try:
        if ":" in value:
            start, step, stop = (float(t) for t in value.split(":"))
        else:
            return tuple(float(t) for t in value.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad snr_db value {value!r}") from exc
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ConfigurationError("snr_db range bounds must be finite")
    if step <= 0:
        raise ConfigurationError("snr_db range step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + k * step for k in range(max(count, 0)))


_INT_KEYS = {"m_r", "m_t", "n_r", "n_t", "n_s", "depth", "adversarial_run",
             "frame_bits", "min_errors", "max_frames", "master_seed",
             "workers", "batch_frames", "constraint_length",
             "rf_chains_per_stream"}
_FLOAT_KEYS = {"spacing", "angle_min_deg", "angle_max_deg"}
_STR_KEYS = {"modulation", "interleaver", "generators", "snr_db",
             "beta_db", "paths", "label"}
_REQUIRED = {"m_r", "m_t", "n_r", "n_t", "beta_db", "paths", "n_s",
             "modulation", "generators", "snr_db"}


def parse_config(text: str) -> SimConfig:
    """Parse the flat key = value config format.

    Lines are ``key = value``; blank lines and ``#`` comments are
    ignored.  beta_db/paths accept a scalar or a ``;``-row matrix, the
    SNR grid a comma list or an inclusive start:step:stop range, and
    generators a comma-separated octal list.
    """
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {ln}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigurationError(f"line {ln}: duplicate key {key!r}")
        known = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS
        if key not in known:
            raise ConfigurationError(f"line {ln}: unknown key {key!r}")
        raw[key] = value

    missing = _REQUIRED - raw.keys()
    if missing:
        raise ConfigurationError(f"missing config keys: {sorted(missing)}")

    vals: dict[str, object] = {}
    for key, value in raw.items():
        if key in _INT_KEYS:
            try:
                vals[key] = int(value)
            except ValueError as exc:
                raise ConfigurationError(f"{key} must be an integer") from exc
        elif key in _FLOAT_KEYS:
            try:
                vals[key] = float(value)
            except ValueError as exc:
                raise ConfigurationError(f"{key} must be a number") from exc
        else:
            vals[key] = value

    beta_db = _parse_matrix(str(vals.pop("beta_db")))
    paths = _parse_matrix(str(vals.pop("paths")))
    if not np.all(np.isfinite(paths) & (paths == np.floor(paths))):
        raise ConfigurationError("paths must be whole numbers")
    paths = paths.astype(np.int64)
    m_r, m_t = int(vals.pop("m_r")), int(vals.pop("m_t"))
    if beta_db.size == 1:
        beta_db = np.full((m_r, m_t), float(beta_db.flat[0]))
    if paths.size == 1:
        paths = np.full((m_r, m_t), int(paths.flat[0]))
    if beta_db.shape != (m_r, m_t) or paths.shape != (m_r, m_t):
        raise ConfigurationError("beta_db/paths shape must be m_r x m_t")
    profile = FadingProfile.from_db(beta_db, paths)

    try:
        code = CodeSpec.from_octal(str(vals.pop("generators")),
                                   vals.pop("constraint_length", None))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc

    grid = _parse_snr_grid(str(vals.pop("snr_db")))
    angle_lo = float(vals.pop("angle_min_deg", -90.0))
    angle_hi = float(vals.pop("angle_max_deg", 90.0))
    vals["modulation"] = str(vals.get("modulation", "bpsk")).lower()
    try:
        return SimConfig(m_r=m_r, m_t=m_t, profile=profile, code=code,
                         snr_grid_db=grid, angle_range_deg=(angle_lo, angle_hi),
                         **vals)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# per-config runtime objects


@dataclass
class Runtime:
    """Objects derived from a config once and reused across frames.

    ``sub_frames`` is the most frames one sub-batch of a span holds.
    """

    config: SimConfig
    trellis: object
    constellation: bicm.Constellation
    interleaver: bicm.Interleaver
    rx_geometry: ArrayGeometry
    tx_geometry: ArrayGeometry
    angle_range: tuple
    n_coded: int
    n_steps: int
    sub_frames: int


def build_runtime(config: SimConfig) -> Runtime:
    """Build trellis, constellation, and interleaver for a config.

    The coded frame is zero-padded up to the interleaver period; pad
    bits ride along as filler and their metrics are dropped before
    decoding.
    """
    trellis = build_trellis(config.code)
    constellation = bicm.make_constellation(config.modulation)
    m = constellation.bits_per_symbol
    k = config.code.constraint_length
    n_steps = config.frame_bits + k - 1
    n_coded = n_steps * config.code.n_out

    if config.interleaver == "structured":
        period = config.n_s * m * config.depth
    elif config.interleaver == "adversarial":
        run = config.adversarial_run or free_distance(trellis)
        period = config.n_s * m * run
    else:
        period = config.n_s * m
    n_total = ((n_coded + period - 1) // period) * period

    if config.interleaver == "structured":
        itl = bicm.structured_interleaver(n_total, config.n_s, m, config.depth)
    elif config.interleaver == "adversarial":
        itl = bicm.adversarial_interleaver(n_total, config.n_s, m, run)
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence(config.master_seed,
                                   spawn_key=(_NS_INTERLEAVER,)))
        itl = bicm.random_interleaver(n_total, config.n_s, m, rng)

    if config.n_s > config.l_t:
        warnings.warn(
            f"n_s={config.n_s} exceeds the total path count {config.l_t}; "
            f"extra streams ride zero-gain modes", stacklevel=2)

    lo, hi = config.angle_range_deg
    return Runtime(
        config=config,
        trellis=trellis,
        constellation=constellation,
        interleaver=itl,
        rx_geometry=ArrayGeometry(config.n_r, config.spacing),
        tx_geometry=ArrayGeometry(config.n_t, config.spacing),
        angle_range=(np.deg2rad(lo), np.deg2rad(hi)),
        n_coded=n_coded,
        n_steps=n_steps,
        sub_frames=max(1, _SUBBATCH_SURVIVOR_BYTES
                       // (n_steps * trellis.n_states)),
    )


def _frame_seed(config: SimConfig, snr_idx: int, frame_idx: int):
    """Root seed of one frame; its children 0 and 1 seed the channel
    stream and the frame stream."""
    return np.random.SeedSequence(config.master_seed,
                                  spawn_key=(_NS_FRAME, snr_idx, frame_idx))


def _frame_rngs(config: SimConfig, snr_idx: int, frames: range,
                child: int) -> list:
    """One generator per frame from child ``child`` of the frame's root.

    Building the child seed directly is state-identical to
    ``_frame_seed(...).spawn(2)[child]`` and skips the root.
    """
    return [np.random.default_rng(np.random.SeedSequence(
        config.master_seed, spawn_key=(_NS_FRAME, snr_idx, f, child)))
        for f in frames]


def _simulate_frames(config: SimConfig, rt: Runtime, snr_idx: int,
                     frames: range, noise_var: float) -> int:
    """Run one sub-batch of frames through the link; return its
    info-bit error count.

    Each frame's channel generator draws its path sets, and its frame
    generator the message, then the real and the imaginary noise parts.
    Every stage runs once on the whole sub-batch and treats frames
    independently, so results do not depend on how frames are grouped.
    """
    blocks = draw_path_sets(config.profile,
                            _frame_rngs(config, snr_idx, frames, 0),
                            rt.angle_range)
    try:
        gains = _path_singular_values(config.profile, blocks, rt.rx_geometry,
                                      rt.tx_geometry, config.n_s)
    except NumericalError as exc:
        raise NumericalError(
            "SVD failed to converge during sweep",
            seed=_frame_seed(config, snr_idx, frames[exc.index])) from exc
    # each stage's input is dropped once the next stage has it, so the
    # peak holds few sub-batch arrays at a time
    del blocks

    itl = rt.interleaver
    B = len(frames)
    n_sym, n_s = itl.n_symbols, itl.n_substreams
    messages = np.empty((B, config.frame_bits), dtype=np.int64)
    noise_re = np.empty((B, n_sym, n_s))
    noise_im = np.empty((B, n_sym, n_s))
    for b, rng in enumerate(_frame_rngs(config, snr_idx, frames, 1)):
        messages[b] = rng.integers(0, 2, config.frame_bits)
        rng.standard_normal(out=noise_re[b])
        rng.standard_normal(out=noise_im[b])

    # pad bits past the code's output are zeros and get dropped after demap
    coded = np.zeros((B, itl.n_coded), dtype=np.uint8)
    coded[:, :rt.n_coded] = encode(rt.trellis, messages)
    x = bicm.map_frame(coded, itl, rt.constellation)
    del coded
    # y = gains * x + sqrt(noise_var / 2) * (re + 1j im), built in place:
    # the parts add in either order to the same bits
    y = np.empty(x.shape, dtype=complex)
    scale = np.sqrt(noise_var / 2.0)
    np.multiply(noise_re, scale, out=y.real)
    np.multiply(noise_im, scale, out=y.imag)
    del noise_re, noise_im
    y += gains[:, None, :] * x
    del x
    metrics = bicm.bit_metrics(y, gains, rt.constellation)
    del y
    costs = bicm.deinterleave_metrics(metrics, itl, rt.n_coded)
    del metrics
    costs = costs.reshape(B, rt.n_steps, config.code.n_out, 2)
    decoded = viterbi_decode(rt.trellis, costs, terminated=True)
    return int((decoded != messages).sum())


def _simulate_span(config: SimConfig, rt: Runtime, snr_idx: int,
                   lo: int, hi: int) -> int:
    """Total bit errors over frames [lo, hi) of one SNR point.

    The frames run through the link in consecutive sub-batches of at
    most ``rt.sub_frames``, so the span's length does not set its
    working set.
    """
    snr = 10.0 ** (config.snr_grid_db[snr_idx] / 10.0)
    # noise variance n_t / snr keeps the per-antenna transmit power fixed
    noise_var = config.n_t / snr
    return sum(_simulate_frames(config, rt, snr_idx,
                                range(start, min(start + rt.sub_frames, hi)),
                                noise_var)
               for start in range(lo, hi, rt.sub_frames))


def _run_span(config: SimConfig, rt: Runtime, pool, snr_idx: int,
              lo: int, hi: int) -> int:
    if pool is None:
        return _simulate_span(config, rt, snr_idx, lo, hi)
    n = hi - lo
    w = config.workers
    chunk = (n + w - 1) // w
    futures = [
        pool.submit(_simulate_span, config, rt, snr_idx,
                    lo + k * chunk, min(lo + (k + 1) * chunk, hi))
        for k in range(w) if lo + k * chunk < hi
    ]
    return sum(f.result() for f in futures)


@dataclass
class BerCurve:
    """Per-SNR error statistics of one sweep, with provenance.

    ``warning_flags`` marks points whose stop rule was not reached
    before the frame budget ran out.
    """

    snr_db: np.ndarray
    frames: np.ndarray
    bits: np.ndarray
    bit_errors: np.ndarray
    warning_flags: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def ber(self) -> np.ndarray:
        return self.bit_errors / np.maximum(self.bits, 1)

    def diversity_estimate(self, window: int = 4) -> float:
        from .analysis import estimate_slope
        return estimate_slope(self.snr_db, self.ber, window)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key in sorted(self.provenance):
                fh.write(f"# {key}={self.provenance[key]}\n")
            fh.write(BER_CSV_HEADER + "\n")
            for k in range(self.snr_db.size):
                ber = self.bit_errors[k] / max(int(self.bits[k]), 1)
                fh.write(f"{self.snr_db[k]:g},{int(self.frames[k])},"
                         f"{int(self.bits[k])},{int(self.bit_errors[k])},"
                         f"{ber:.12e},{int(self.warning_flags[k])}\n")

    @classmethod
    def from_csv(cls, path) -> "BerCurve":
        provenance: dict[str, str] = {}
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    provenance[key] = value
                    continue
                if line == BER_CSV_HEADER:
                    continue
                rows.append(line.split(","))
        snr = np.array([float(r[0]) for r in rows])
        frames = np.array([int(r[1]) for r in rows])
        bits = np.array([int(r[2]) for r in rows])
        errs = np.array([int(r[3]) for r in rows])
        warn = np.array([bool(int(r[5])) for r in rows])
        return cls(snr, frames, bits, errs, warn, provenance)


def sweep(config: SimConfig) -> BerCurve:
    """Run the full BER sweep described by a config.

    Frames advance in fixed batches of ``batch_frames``; the stop rule
    (min_errors, capped by max_frames) is evaluated only at batch
    boundaries so the set of simulated frames is worker-independent.
    """
    rt = build_runtime(config)
    pool = None
    if config.workers > 1:
        pool = ProcessPoolExecutor(max_workers=config.workers)
    try:
        n_pts = len(config.snr_grid_db)
        frames = np.zeros(n_pts, dtype=np.int64)
        errors = np.zeros(n_pts, dtype=np.int64)
        warn = np.zeros(n_pts, dtype=bool)
        for si in range(n_pts):
            done = 0
            errs = 0
            while done < config.max_frames and errs < config.min_errors:
                b = min(config.batch_frames, config.max_frames - done)
                errs += _run_span(config, rt, pool, si, done, done + b)
                done += b
            frames[si] = done
            errors[si] = errs
            warn[si] = errs < config.min_errors
    finally:
        if pool is not None:
            pool.shutdown()

    return BerCurve(
        snr_db=np.asarray(config.snr_grid_db, dtype=np.float64),
        frames=frames,
        bits=frames * config.frame_bits,
        bit_errors=errors,
        warning_flags=warn,
        provenance={"config_hash": config.config_hash,
                    "master_seed": str(config.master_seed),
                    "label": config.label or "-"},
    )


# ---------------------------------------------------------------------------
# spectrum jobs and presets


@dataclass(frozen=True)
class SpectrumJob:
    """Inputs of a singular-value spectrum study (no coded chain)."""

    profile: FadingProfile
    n_r: int
    n_t: int
    spacing: float = 0.5
    angle_range_deg: tuple = (-90.0, 90.0)
    master_seed: int = 1

    def __post_init__(self):
        if self.master_seed < 0:
            raise ConfigurationError("master_seed cannot be negative")
        _check_spacing(self.spacing, self.n_r, self.n_t)


def spectrum_stats(job: SpectrumJob, draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Average sorted singular values and their large-array predictions.

    Returns (singular, predicted), each of the full spectrum length,
    averaged over ``draws`` independent realizations; predictions beyond
    the total path count are zero.
    """
    if draws < 1:
        raise ConfigurationError("draws must be positive")
    rx = ArrayGeometry(job.n_r, job.spacing)
    tx = ArrayGeometry(job.n_t, job.spacing)
    lo, hi = np.deg2rad(job.angle_range_deg[0]), np.deg2rad(job.angle_range_deg[1])
    rng = np.random.default_rng(
        np.random.SeedSequence(job.master_seed, spawn_key=(_NS_SPECTRUM,)))
    n_vals = min(job.profile.m_r * job.n_r, job.profile.m_t * job.n_t)
    sv_acc = np.zeros(n_vals)
    pred_acc = np.zeros(n_vals)
    for start in range(0, draws, _SPECTRUM_CHUNK):
        n = min(_SPECTRUM_CHUNK, draws - start)
        # one generator repeated n times draws what n single draws would
        chan = draw_channels(job.profile, rx, tx, [rng] * n, (lo, hi))
        try:
            sv = singular_values(chan.h)
        except NumericalError as exc:
            raise NumericalError(
                f"SVD failed to converge on spectrum draw {start + exc.index}",
                seed=job.master_seed) from exc
        pred = predicted_gains(job.profile, chan.blocks, rx, tx)[:, :n_vals]
        # one row at a time, in draw order, so the sums are those of a
        # per-draw loop bit for bit
        for k in range(n):
            sv_acc += sv[k]
            pred_acc[:pred.shape[1]] += pred[k]
    return sv_acc / draws, pred_acc / draws


@dataclass(frozen=True)
class Preset:
    """A named experiment: BER variants and/or a spectrum job."""

    name: str
    variants: dict
    spectrum: SpectrumJob | None = None


_CODE = "133,171"
_DESK_NT = 32
_DESK_NR = 16


def _base(m_r, m_t, beta_db, l, n_s, snr_grid, modulation="bpsk",
          seed=1, label="", **kw) -> SimConfig:
    profile = FadingProfile.homogeneous(m_r, m_t, beta_db, l) \
        if np.isscalar(beta_db) else FadingProfile.from_db(beta_db, l)
    # Deep grid points see bursty frame errors (a faded subchannel wipes
    # out most of a frame), so stop-rule checks use coarse batches: every
    # point then collects at least one full batch of frames, keeping the
    # smallest BER estimates on the grid statistically meaningful.
    kw.setdefault("batch_frames", 1024)
    kw.setdefault("max_frames", 50_000)
    return SimConfig(
        m_r=m_r, m_t=m_t, n_r=_DESK_NR, n_t=_DESK_NT, profile=profile,
        n_s=n_s, modulation=modulation, code=CodeSpec.from_octal(_CODE),
        snr_grid_db=snr_grid, master_seed=seed, label=label, **kw)


def preset_names() -> tuple:
    return ("fig2_spectrum", "fig3_interleaver", "fig4_streams",
            "fig5_colocated_vs_distributed", "fig6_fading")


def preset(name: str, master_seed: int | None = None,
           workers: int | None = None) -> Preset:
    """Desk-scale experiment presets.

    Antenna counts are shrunk to 32/16 per subarray (rank and slope
    behavior do not depend on them); fading defaults to -20 dB with two
    paths per subarray pair.  SNR grids are calibrated so the last
    points sit in the high-SNR slope region at the default stop rule.
    """
    seed = 1 if master_seed is None else master_seed
    grids = _PRESET_GRIDS

    if name == "fig2_spectrum":
        prof = FadingProfile.homogeneous(2, 2, -20.0, 2)
        return Preset(name, {}, SpectrumJob(prof, _DESK_NR, _DESK_NT,
                                            master_seed=seed))
    # Variants take consecutive seeds so that statistically-equivalent
    # runs (e.g. a fading profile rescaled onto a shifted SNR grid) do
    # not replay the same noise and trivially coincide.
    if name == "fig3_interleaver":
        variants = {
            "structured": _base(2, 2, -20.0, 2, 6, grids["fig3_structured"],
                                seed=seed, label="structured"),
            "adversarial": _base(2, 2, -20.0, 2, 6, grids["fig3_adversarial"],
                                 interleaver="adversarial", seed=seed + 1,
                                 label="adversarial"),
        }
    elif name == "fig4_streams":
        variants = {
            f"ns{k}": _base(1, 3, -20.0, 2, k, grids[f"fig4_ns{k}"],
                            seed=seed + off, label=f"ns{k}")
            for off, k in enumerate((1, 2, 4))
        }
    elif name == "fig5_colocated_vs_distributed":
        variants = {
            "distributed": _base(2, 2, -20.0, 2, 3, grids["fig5_distributed"],
                                 seed=seed, label="distributed"),
            "colocated": _base(1, 1, -20.0, 4, 3, grids["fig5_colocated"],
                               seed=seed + 1, label="colocated"),
        }
    elif name == "fig6_fading":
        b3 = np.array([[-20.0, -35.0], [-35.0, -20.0]])
        variants = {
            "b1": _base(2, 2, -20.0, 2, 1, grids["fig6_b1"],
                        modulation="16qam", seed=seed, label="b1"),
            "b2": _base(2, 2, -25.0, 2, 1, grids["fig6_b2"],
                        modulation="16qam", seed=seed + 1, label="b2"),
            "b3": _base(2, 2, b3, 2, 1, grids["fig6_b3"],
                        modulation="16qam", seed=seed + 2, label="b3"),
            "b4": _base(1, 1, -20.0, 4, 1, grids["fig6_b4"],
                        modulation="16qam", seed=seed + 3, label="b4"),
        }
    else:
        raise ConfigurationError(f"unknown preset {name!r}; "
                                 f"choose from {preset_names()}")

    if workers is not None:
        variants = {k: replace(v, workers=workers) for k, v in variants.items()}
    return Preset(name, variants)


# Grids are calibrated so the last four points (the default slope
# window) sit in each curve's decaying region, roughly BER 1e-2 down to
# a few 1e-5, reachable under the 200-error stop rule in seconds.
_PRESET_GRIDS = {
    "fig3_structured": (1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0),
    "fig3_adversarial": (4.0, 8.0, 12.0, 16.0, 18.0, 20.0, 22.0, 24.0),
    "fig4_ns1": (3.0, 5.0, 7.0, 9.0, 11.0, 13.0),
    "fig4_ns2": (5.0, 7.0, 9.0, 11.0, 13.0, 15.0),
    "fig4_ns4": (8.0, 10.0, 12.0, 14.0, 16.0, 18.0),
    "fig5_distributed": (1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0),
    "fig5_colocated": (7.0, 10.0, 13.0, 16.0, 19.0, 22.0, 25.0),
    "fig6_b1": (9.0, 11.0, 13.0, 15.0, 17.0, 19.0, 21.0),
    "fig6_b2": (14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0),
    "fig6_b3": (12.0, 14.5, 17.0, 19.5, 22.0, 24.5),
    "fig6_b4": (13.0, 16.0, 19.0, 22.0, 25.0, 28.0),
}
