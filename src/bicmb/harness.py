"""Monte Carlo harness: configuration, deterministic BER sweeps, presets.

A sweep draws a fresh channel for every coded frame (quasi-static
fading), runs the coded chain over the scalar subchannels, and
accumulates bit errors per SNR point until a stop rule is met.  Every
frame's randomness is derived from (master_seed, snr index, frame
index) alone, every stage treats frames independently, and frames are
scheduled in fixed-size batches, each cut into one list of sub-batches
that runs serially or on a worker pool alike, so the emitted curve is
byte-identical for any worker count.
"""

from __future__ import annotations

import functools
import hashlib
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bicm
from .beamforming import (_path_singular_values, predicted_gains,
                          singular_values)
from .channel import (ArrayGeometry, FadingProfile, draw_channels,
                      draw_path_sets, linear_to_db)
from .coding import (CodeSpec, build_trellis, encode, free_distance,
                     viterbi_decode)
from .errors import ConfigurationError, NumericalError

__all__ = [
    "SimConfig",
    "BerCurve",
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

# Draws per stacked SVD in spectrum_stats, fewer when that many matrices
# exceed the sub-batch budget.  A chunk of 32 fig2 matrices is 1 MiB.
# Over 2000 fig2 draws, chunks of 64 and 128 ran no faster and raised
# peak memory by 2 and 6 MiB; one chunk of all draws by 65 MiB.
_SPECTRUM_CHUNK = 32

# Decoder survivor bytes (one bool per step, state and frame),
# steering-factor bytes (16 per complex value), or a spectrum study's
# channel-matrix bytes, that one sub-batch may hold.  A batch runs
# through the link in sub-batches of at most this many frames, so its
# working set does not grow with batch_frames: the 64-state desk
# presets allow 254 frames of 1030 steps, and a 64 x 128 composite
# array with 128-bit frames 682.  Over the five desk
# benchmark sweeps (one BLAS thread), 254-frame sub-batches peaked at
# 88 MiB and whole 1024-frame batches at 204 MiB, at about the same
# speed; 64-frame sub-batches ran 1.5x slower, as the decoder's
# per-step calls dominate.
_SUBBATCH_SURVIVOR_BYTES = 16 << 20

# Each worker is a forked process, and the pool starts all of them at
# its first task, so the count is bounded whatever the core count.
_MAX_WORKERS = 64

# Points an snr_db start:step:stop range may hold (presets have <= 8).
_MAX_SNR_POINTS = 10_000

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
                     "workers", "rf_chains_per_stream"):
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
        m = bicm.make_constellation(self.modulation).bits_per_symbol
        if (self.interleaver == "structured" and self.n_s == 1 and self.depth < 2
                and m > 1):
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
        # A frame is padded to a multiple of the interleaver period
        # n_s * m * run; a period within one frame's code bits keeps the
        # padding under one frame.
        code_bits = self.n_steps * self.code.n_out
        key = {"structured": "depth",
               "adversarial": "adversarial_run"}.get(self.interleaver)
        if key is not None and self.n_s * m * getattr(self, key) > code_bits:
            raise ConfigurationError(
                f"{key} {getattr(self, key)} is too large: the interleaver "
                f"period n_s * bits_per_symbol * {key} exceeds the "
                f"{code_bits} code bits of a frame")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed cannot be negative")
        if not np.any(self.profile.beta > 0):
            raise ConfigurationError(
                "fading profile has no power in any subarray pair")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ConfigurationError("spacing must be a positive finite number")
        # the largest steering phase is below 2 pi * spacing * N; an N past
        # the float range overflows as well
        try:
            phase = 2 * math.pi * self.spacing * max(self.n_r, self.n_t)
        except OverflowError:
            phase = math.inf
        if not math.isfinite(phase):
            raise ConfigurationError(
                f"spacing {self.spacing!r} is too large for the array size: "
                f"steering phases overflow")
        self.frame_bytes    # rejects a frame above the sub-batch budget
        lo, hi = self.angle_range_deg
        # a ULA aliases azimuths past +-90 degrees onto the half plane
        if not (-90.0 <= lo <= 90.0 and -90.0 <= hi <= 90.0):
            raise ConfigurationError(
                "azimuth bounds must be finite and lie in [-90, 90] degrees")
        if not lo < hi:
            raise ConfigurationError("empty azimuth range")
        object.__setattr__(self, "snr_grid_db", grid)
        object.__setattr__(self, "angle_range_deg", (float(lo), float(hi)))

    @property
    def l_t(self) -> int:
        return self.profile.total_paths

    @property
    def n_steps(self) -> int:
        """Trellis steps of one terminated frame: its bits and K - 1
        flush steps."""
        return self.frame_bits + self.code.constraint_length - 1

    @property
    def frame_bytes(self) -> int:
        """Bytes one frame holds in a sub-batch (see ``_frame_bytes``)."""
        return _frame_bytes(self.n_steps, self.code.constraint_length,
                            self.m_r, self.n_r, self.m_t, self.n_t, self.l_t)

    @property
    def geometry(self) -> tuple:
        """Receive and transmit arrays and the azimuth range in radians."""
        lo, hi = self.angle_range_deg
        return (ArrayGeometry(self.n_r, self.spacing),
                ArrayGeometry(self.n_t, self.spacing),
                (np.deg2rad(lo), np.deg2rad(hi)))

    def canonical_text(self) -> str:
        """Stable key=value rendering used for hashing and export.

        Covers every field that can change simulation results; execution
        knobs that cannot (worker count, display label) are left out so
        reruns of the same experiment hash identically.
        ``rf_chains_per_stream`` is included although it changes no
        result; dropping it would change every existing hash.
        """
        beta_db = self.profile.beta_db
        if beta_db is None:
            beta_db = linear_to_db(np.maximum(self.profile.beta, 1e-300))
        values = {key: getattr(self, key, None) for key in _KEYS
                  if key not in ("workers", "label")}
        # the keys that are not fields of the same name
        values.update(
            beta_db=_matrix_text(beta_db),
            paths=_matrix_text(self.profile.paths),
            generators=",".join(f"{g:o}" for g in self.code.generators),
            constraint_length=self.code.constraint_length,
            snr_db=",".join(_number_text(v) for v in self.snr_grid_db),
            angle_min_deg=self.angle_range_deg[0],
            angle_max_deg=self.angle_range_deg[1])
        return "".join(
            f"{key} = {_number_text(v) if _KEYS[key] is float else v}\n"
            for key, v in values.items())

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    # configs are equal when they describe the same experiment; the
    # generated methods would compare the profile's numpy arrays
    def __eq__(self, other):
        if not isinstance(other, SimConfig):
            return NotImplemented
        return self.canonical_text() == other.canonical_text()

    def __hash__(self):
        return hash(self.canonical_text())


def _frame_bytes(n_steps: int, k: int, m_r: int, n_r: int, m_t: int,
                 n_t: int, l_t: int) -> int:
    """Bytes one frame holds in a sub-batch: the larger of its decoder
    survivors (one bool per trellis step and state) and its steering
    factors U and V, (m_r n_r + m_t n_t) x l_t complex values.

    The steering factors stay the bound although most frames take their
    gains from the l_t x l_t Gram matrices: a side where a frame nearly
    collides, or where some subarray has more paths than elements,
    builds its U or V, and a frame may do so on both sides.  On any
    other side l_t <= m n, so its Gram matrix is never the larger.

    Sizes are Python ints, so no count overflows; either part above the
    sub-batch budget is a configuration error.
    """
    survivors = n_steps << (k - 1)
    if survivors > _SUBBATCH_SURVIVOR_BYTES:
        raise ConfigurationError(
            f"frame_bits {n_steps - k + 1} is too large: one frame's "
            f"decoder survivors take {survivors} bytes, above the "
            f"{_SUBBATCH_SURVIVOR_BYTES}-byte sub-batch budget")
    steering = 16 * (m_r * n_r + m_t * n_t) * l_t
    if steering > _SUBBATCH_SURVIVOR_BYTES:
        raise ConfigurationError(
            f"the arrays are too large: one frame's steering factors take "
            f"{steering} bytes, above the {_SUBBATCH_SURVIVOR_BYTES}-byte "
            f"sub-batch budget")
    return max(survivors, steering)


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
    # the last point's index, unfloored; an overflow to inf fails too
    last = (stop - start) / step + 1e-9
    if not last < _MAX_SNR_POINTS:
        raise ConfigurationError(
            f"snr_db range has more than {_MAX_SNR_POINTS} points")
    count = int(math.floor(last)) + 1
    return tuple(start + k * step for k in range(max(count, 0)))


# Every config key with its value type, in canonical_text order; the
# execution knobs workers and label come last and are not hashed.
_KEYS = {
    "m_r": int, "m_t": int, "n_r": int, "n_t": int, "beta_db": str,
    "paths": str, "n_s": int, "modulation": str, "generators": str,
    "constraint_length": int, "interleaver": str, "depth": int,
    "adversarial_run": int, "frame_bits": int, "snr_db": str,
    "min_errors": int, "max_frames": int, "master_seed": int,
    "batch_frames": int, "spacing": float, "angle_min_deg": float,
    "angle_max_deg": float, "rf_chains_per_stream": int,
    "workers": int, "label": str,
}
_REQUIRED = {"m_r", "m_t", "n_r", "n_t", "beta_db", "paths", "n_s",
             "modulation", "generators", "snr_db"}


def parse_config(text: str) -> SimConfig:
    """Parse the flat key = value config format.

    Lines are ``key = value``; blank lines and ``#`` comments are
    ignored.  beta_db/paths accept a scalar or a ``;``-row matrix, the
    SNR grid a comma list or an inclusive start:step:stop range, and
    generators a comma-separated octal list.
    """
    vals: dict = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {ln}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in vals:
            raise ConfigurationError(f"line {ln}: duplicate key {key!r}")
        if key not in _KEYS:
            raise ConfigurationError(f"line {ln}: unknown key {key!r}")
        vals[key] = value

    missing = _REQUIRED - vals.keys()
    if missing:
        raise ConfigurationError(f"missing config keys: {sorted(missing)}")

    for key, value in vals.items():
        kind = _KEYS[key]
        try:
            vals[key] = kind(value)
        except ValueError as exc:
            raise ConfigurationError(
                f"{key} must be "
                f"{'an integer' if kind is int else 'a number'}") from exc

    beta_db = _parse_matrix(vals.pop("beta_db"))
    paths = _parse_matrix(vals.pop("paths"))
    if not np.all(np.isfinite(paths) & (paths == np.floor(paths))):
        raise ConfigurationError("paths must be whole numbers")
    if np.any(np.abs(paths) >= 2.0 ** 63):
        raise ConfigurationError("paths must fit a 64-bit integer")
    paths = paths.astype(np.int64)
    m_r, m_t = vals["m_r"], vals["m_t"]
    for name in ("m_r", "m_t", "n_r", "n_t"):
        if vals[name] < 1:
            raise ConfigurationError(f"{name} must be a positive integer")

    try:
        code = CodeSpec.from_octal(vals.pop("generators"),
                                   vals.pop("constraint_length", None))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc

    # every pair has a path, so L_t >= m_r * m_t: bounds a frame before a
    # scalar beta_db, then paths, is filled out to m_r x m_t
    k = code.constraint_length
    _frame_bytes(vals.get("frame_bits", SimConfig.frame_bits) + k - 1, k,
                 m_r, vals["n_r"], m_t, vals["n_t"], m_r * m_t)
    if beta_db.size == 1:
        beta_db = np.full((m_r, m_t), beta_db.flat[0])
    profile = FadingProfile.from_db(beta_db, paths)

    lo, hi = SimConfig.angle_range_deg
    angles = (vals.pop("angle_min_deg", lo), vals.pop("angle_max_deg", hi))
    vals["modulation"] = vals["modulation"].lower()
    return SimConfig(profile=profile, code=code,
                     snr_grid_db=_parse_snr_grid(vals.pop("snr_db")),
                     angle_range_deg=angles, **vals)


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# per-config runtime objects


@dataclass
class Runtime:
    """Objects derived from a config once and reused across frames.

    ``sub_frames`` is the most frames one sub-batch holds.
    """

    config: SimConfig
    trellis: object
    constellation: bicm.Constellation
    interleaver: bicm.Interleaver
    n_coded: int
    sub_frames: int


def build_runtime(config: SimConfig) -> Runtime:
    """Build trellis, constellation, and interleaver for a config.

    The coded frame is zero-padded up to the interleaver period; pad
    bits ride along as filler and their metrics are dropped before
    decoding.
    """
    trellis = build_trellis(config.code)
    if trellis.catastrophic:
        raise ConfigurationError(
            "the code has a zero-weight loop (catastrophic generator set)")
    constellation = bicm.make_constellation(config.modulation)
    m = constellation.bits_per_symbol
    n_coded = config.n_steps * config.code.n_out

    # each interleaver permutes whole periods of n_s * m * run code bits
    if config.interleaver == "structured":
        build, run, arg = bicm.structured_interleaver, config.depth, config.depth
    elif config.interleaver == "adversarial":
        run = config.adversarial_run or free_distance(trellis)
        build, arg = bicm.adversarial_interleaver, run
    else:
        build, run = bicm.random_interleaver, 1
        arg = np.random.default_rng(
            np.random.SeedSequence(config.master_seed,
                                   spawn_key=(_NS_INTERLEAVER,)))
    period = config.n_s * m * run
    itl = build(-(-n_coded // period) * period, config.n_s, m, arg)

    if config.n_s > config.l_t:
        warnings.warn(
            f"n_s={config.n_s} exceeds the total path count {config.l_t}; "
            f"extra streams ride zero-gain modes", stacklevel=2)

    return Runtime(
        config=config,
        trellis=trellis,
        constellation=constellation,
        interleaver=itl,
        n_coded=n_coded,
        sub_frames=max(1, _SUBBATCH_SURVIVOR_BYTES // config.frame_bytes),
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


def _simulate_frames(rt: Runtime, snr_idx: int, frames: range) -> int:
    """Run one sub-batch of frames through the link; return its
    info-bit error count.

    Each frame's channel generator draws its paths, and its frame
    generator the message, then the real and the imaginary noise parts.
    Every stage runs once on the whole sub-batch and treats frames
    independently, so results do not depend on how frames are grouped.
    """
    config = rt.config
    rx, tx, angles = config.geometry
    paths = draw_path_sets(config.profile,
                           _frame_rngs(config, snr_idx, frames, 0), angles)
    try:
        gains = _path_singular_values(config.profile, paths, rx, tx,
                                      config.n_s)
    except NumericalError as exc:
        raise NumericalError(
            "SVD failed to converge during sweep",
            seed=_frame_seed(config, snr_idx, frames[exc.index])) from exc
    # each stage's input is dropped once the next stage has it, so the
    # peak holds few sub-batch arrays at a time
    del paths

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
    # noise variance n_t / snr keeps the per-antenna transmit power fixed
    noise_var = config.n_t / 10.0 ** (config.snr_grid_db[snr_idx] / 10.0)
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
    costs = costs.reshape(B, config.n_steps, config.code.n_out, 2)
    decoded = viterbi_decode(rt.trellis, costs)
    return int((decoded != messages).sum())


def _sub_batches(lo: int, hi: int, sub_frames: int, workers: int) -> list:
    """Cut frames [lo, hi) into consecutive ranges of near-equal size.

    The count is the fewest ranges of at most ``sub_frames`` frames,
    rounded up to a multiple of ``workers`` so that a pool gets work for
    every worker, and never above the frame count.  Sizes differ by at
    most one frame.
    """
    n = hi - lo
    k = -(-n // sub_frames)
    k = min(n, -(-k // workers) * workers)
    return [range(lo + i * n // k, lo + (i + 1) * n // k) for i in range(k)]


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
    Each batch runs as the list of ``_sub_batches``, mapped in order
    either in this process or on the worker pool.
    """
    rt = build_runtime(config)
    pool = None
    run = map
    if config.workers > 1:
        pool = ProcessPoolExecutor(max_workers=config.workers)
        run = pool.map
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
                errs += sum(run(functools.partial(_simulate_frames, rt, si),
                                _sub_batches(done, done + b, rt.sub_frames,
                                             config.workers)))
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
# spectrum studies and presets


def spectrum_stats(config: SimConfig,
                   draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Average sorted singular values and their large-array predictions.

    Draws the channel of ``config`` (its profile, arrays, spacing,
    azimuths and master seed; the coded chain is not used).  Returns
    (singular, predicted), each of the full spectrum length, averaged
    over ``draws`` independent realizations; predictions beyond the
    total path count are zero.  One matrix must fit the sub-batch
    budget, and a stacked SVD holds at most as many as fit it.
    """
    if draws < 1:
        raise ConfigurationError("draws must be positive")
    rows, cols = config.m_r * config.n_r, config.m_t * config.n_t
    matrix_bytes = 16 * rows * cols
    if matrix_bytes > _SUBBATCH_SURVIVOR_BYTES:
        raise ConfigurationError(
            f"the arrays are too large: one {rows} x {cols} channel matrix "
            f"takes {matrix_bytes} bytes, above the "
            f"{_SUBBATCH_SURVIVOR_BYTES}-byte sub-batch budget")
    chunk = min(_SPECTRUM_CHUNK, _SUBBATCH_SURVIVOR_BYTES // matrix_bytes)
    rx, tx, angles = config.geometry
    rng = np.random.default_rng(
        np.random.SeedSequence(config.master_seed, spawn_key=(_NS_SPECTRUM,)))
    n_vals = min(rows, cols)
    sv_acc = np.zeros(n_vals)
    pred_acc = np.zeros(n_vals)
    for start in range(0, draws, chunk):
        n = min(chunk, draws - start)
        # one generator repeated n times draws what n single draws would
        chan = draw_channels(config.profile, rx, tx, [rng] * n, angles)
        try:
            sv = singular_values(chan.h)
        except NumericalError as exc:
            raise NumericalError(
                f"SVD failed to converge on spectrum draw {start + exc.index}",
                seed=config.master_seed) from exc
        pred = predicted_gains(config.profile, chan.paths, rx, tx)[:, :n_vals]
        # one row at a time, in draw order, so the sums are those of a
        # per-draw loop bit for bit
        for k in range(n):
            sv_acc += sv[k]
            pred_acc[:pred.shape[1]] += pred[k]
    return sv_acc / draws, pred_acc / draws


@dataclass(frozen=True)
class Preset:
    """A named experiment: BER variants, or the config whose channel a
    spectrum study draws."""

    name: str
    variants: dict
    spectrum: SimConfig | None = None


_CODE = "133,171"
_DESK_NT = 32
_DESK_NR = 16

# Variant k of a BER preset, in table order, runs at master_seed + k so
# that statistically-equivalent runs (e.g. a fading profile rescaled
# onto a shifted SNR grid) do not replay the same noise and trivially
# coincide.  Grids are calibrated so the last four points (the default
# slope window) sit in each curve's decaying region, roughly BER 1e-2
# down to a few 1e-5, reachable under the 200-error stop rule in seconds.
_BER_PRESETS = {
    "fig3_interleaver": {
        "structured": dict(m_r=2, m_t=2, n_s=6,
                           snr_grid=(1, 3, 5, 7, 9, 11, 13, 15)),
        "adversarial": dict(m_r=2, m_t=2, n_s=6, interleaver="adversarial",
                            snr_grid=(4, 8, 12, 16, 18, 20, 22, 24)),
    },
    "fig4_streams": {
        "ns1": dict(m_r=1, m_t=3, n_s=1, snr_grid=(3, 5, 7, 9, 11, 13)),
        "ns2": dict(m_r=1, m_t=3, n_s=2, snr_grid=(5, 7, 9, 11, 13, 15)),
        "ns4": dict(m_r=1, m_t=3, n_s=4, snr_grid=(8, 10, 12, 14, 16, 18)),
    },
    "fig5_colocated_vs_distributed": {
        "distributed": dict(m_r=2, m_t=2, n_s=3,
                            snr_grid=(1, 3, 5, 7, 9, 11, 13)),
        "colocated": dict(m_r=1, m_t=1, paths=4, n_s=3,
                          snr_grid=(7, 10, 13, 16, 19, 22, 25)),
    },
    "fig6_fading": {
        "b1": dict(m_r=2, m_t=2, n_s=1, modulation="16qam",
                   snr_grid=(9, 11, 13, 15, 17, 19, 21)),
        "b2": dict(m_r=2, m_t=2, beta_db=-25.0, n_s=1, modulation="16qam",
                   snr_grid=(14, 16, 18, 20, 22, 24, 26)),
        "b3": dict(m_r=2, m_t=2, beta_db=((-20.0, -35.0), (-35.0, -20.0)),
                   n_s=1, modulation="16qam",
                   snr_grid=(12, 14.5, 17, 19.5, 22, 24.5)),
        "b4": dict(m_r=1, m_t=1, paths=4, n_s=1, modulation="16qam",
                   snr_grid=(13, 16, 19, 22, 25, 28)),
    },
}


def _base(m_r, m_t, n_s, snr_grid, beta_db=-20.0, paths=2,
          modulation="bpsk", **kw) -> SimConfig:
    profile = FadingProfile.homogeneous(m_r, m_t, beta_db, paths) \
        if np.isscalar(beta_db) else FadingProfile.from_db(beta_db, paths)
    # Deep grid points see bursty frame errors (a faded subchannel wipes
    # out most of a frame), so stop-rule checks use coarse batches: every
    # point then collects at least one full batch of frames, keeping the
    # smallest BER estimates on the grid statistically meaningful.
    return SimConfig(
        m_r=m_r, m_t=m_t, n_r=_DESK_NR, n_t=_DESK_NT, profile=profile,
        n_s=n_s, modulation=modulation, code=CodeSpec.from_octal(_CODE),
        snr_grid_db=snr_grid, batch_frames=1024, max_frames=50_000, **kw)


def preset_names() -> tuple:
    return ("fig2_spectrum", *_BER_PRESETS)


def preset(name: str, master_seed: int | None = None,
           workers: int | None = None) -> Preset:
    """Desk-scale experiment presets.

    Antenna counts are shrunk to 32/16 per subarray (rank and slope
    behavior do not depend on them); fading defaults to -20 dB with two
    paths per subarray pair.  SNR grids are calibrated so the last
    points sit in the high-SNR slope region at the default stop rule.
    """
    seed = 1 if master_seed is None else master_seed
    if name == "fig2_spectrum":
        # the fig3_interleaver/structured channel at the same seed
        fields = _BER_PRESETS["fig3_interleaver"]["structured"]
        return Preset(name, {}, _base(master_seed=seed, **fields))
    if name not in _BER_PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; "
                                 f"choose from {preset_names()}")
    opts = {} if workers is None else {"workers": workers}
    return Preset(name, {
        label: _base(master_seed=seed + k, label=label, **fields, **opts)
        for k, (label, fields) in enumerate(_BER_PRESETS[name].items())})
