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
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import bicm
from .analysis import estimate_slope
from .beamforming import (_fallback_bytes, _path_singular_values,
                          predicted_gains, singular_values)
from .channel import (ArrayGeometry, FadingProfile, draw_channels,
                      draw_path_sets)
from .coding import (_DECODE_CHUNK_STEPS, CodeSpec, Trellis, build_trellis,
                     encode, free_distance, viterbi_decode)
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

# Seed-derivation namespaces (first spawn_key element).
_NS_FRAME = 0
_NS_INTERLEAVER = 1
_NS_SPECTRUM = 2

# Draws per stacked SVD in spectrum_stats, fewer when that many matrices
# exceed the sub-batch budget.  A chunk of 32 fig2 matrices is 1 MiB.
# Over 2000 fig2 draws, chunks of 64 and 128 ran no faster and raised
# peak memory by 2 and 6 MiB; one chunk of all draws by 65 MiB.
_SPECTRUM_CHUNK = 32

# Bytes that one sub-batch's frames (``_frame_bytes``), one chunk of the
# QR fallback or one chunk of spectrum matrices may take, so a batch's
# working set does not grow with batch_frames.  216-235 desk frames fit,
# so 1024-frame desk batches run as 204 + 4 x 205: over the five desk
# benchmark sweeps (one BLAS thread), 205-frame sub-batches peaked at
# 52 MiB and whole batches at 94 MiB at about the same speed, and
# 64-frame ones ran 1.5-1.8x slower, as the decoder's steps dominate.
_SUBBATCH_BYTES = 12 << 20

# Frames are demapped in blocks whose squared-distance planes (this many
# float64 entries, 1 MiB) stay in cache while the minima read them.
_METRIC_BLOCK_ENTRIES = 1 << 17

# Each worker is a forked process, and the pool starts all of them at
# its first task, so the count is bounded whatever the core count.
_MAX_WORKERS = 64

# Points an snr_db start:step:stop range may hold (presets have <= 8).
_MAX_SNR_POINTS = 10_000

# Largest |snr_db| (presets use 1-28 dB): noise variances, their squares
# and a frame's summed decoder metrics stay far inside the float range.
_MAX_SNR_DB = 1000.0


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one BER simulation.

    ``adversarial_run`` of 0 means "use the code's free distance".
    ``rf_chains_per_stream`` is recorded for documentation only; the
    unconstrained beamformer does not use it.

    The last check builds the link's ``trellis``, ``constellation`` and
    ``bit_interleaver``; the builders in ``coding`` and ``bicm`` state
    their own rules, and a catastrophic code is rejected.  The coded
    frame is zero-padded up to the interleaver period; the pad bits'
    metrics are dropped before decoding.
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
    trellis: Trellis = field(init=False, repr=False)
    constellation: bicm.Constellation = field(init=False, repr=False)
    bit_interleaver: bicm.Interleaver = field(init=False, repr=False)

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
        # the CLI names a config's output file after its label, and the
        # CSV writes it on one comment line
        if (self.label in (".", "..") or any(c in self.label for c in "/\\")
                or not self.label.isprintable()):
            raise ConfigurationError(
                f"label {self.label!r} cannot be '.' or '..' or contain "
                f"'/', '\\' or a control character")
        if self.n_s > min(self.m_r * self.n_r, self.m_t * self.n_t):
            raise ConfigurationError(
                "n_s cannot exceed the composite channel dimensions")
        grid = tuple(float(v) for v in self.snr_grid_db)
        if len(grid) == 0:
            raise ConfigurationError("snr_db grid is empty")
        if not all(abs(v) <= _MAX_SNR_DB for v in grid):
            raise ConfigurationError(
                f"snr_db values must be finite and within "
                f"+-{_MAX_SNR_DB:g} dB")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigurationError("snr_db grid must be strictly increasing")
        if self.adversarial_run < 0:
            raise ConfigurationError("adversarial_run cannot be negative")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed cannot be negative")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ConfigurationError("spacing must be a positive finite number")
        self.sub_frames    # rejects a frame over budget; bounds N to 2**19
        # the largest steering phase is below 2 pi * spacing * N
        phase = 2 * math.pi * self.spacing * max(self.n_r, self.n_t)
        if not math.isfinite(phase):
            raise ConfigurationError(
                f"spacing {self.spacing!r} is too large for the array size: "
                f"steering phases overflow")
        lo, hi = self.angle_range_deg
        # a ULA aliases azimuths past +-90 degrees onto the half plane
        if not (-90.0 <= lo <= 90.0 and -90.0 <= hi <= 90.0):
            raise ConfigurationError(
                "azimuth bounds must be finite and lie in [-90, 90] degrees")
        if not lo < hi:
            raise ConfigurationError("empty azimuth range")
        object.__setattr__(self, "snr_grid_db", grid)
        object.__setattr__(self, "angle_range_deg", (float(lo), float(hi)))
        trellis = build_trellis(self.code)
        if trellis.catastrophic:
            raise ConfigurationError(
                "the code has a zero-weight loop (catastrophic generator set)")
        constellation = bicm.make_constellation(self.modulation)
        m = constellation.bits_per_symbol
        # each interleaver permutes whole periods of n_s * m * run code bits
        if self.interleaver == "structured":
            build, run = bicm.structured_interleaver, self.depth
            arg = run
        elif self.interleaver == "adversarial":
            build = bicm.adversarial_interleaver
            run = arg = self.adversarial_run or free_distance(trellis)
        elif self.interleaver == "random":
            build, run = bicm.random_interleaver, 1
            arg = np.random.default_rng(np.random.SeedSequence(
                self.master_seed, spawn_key=(_NS_INTERLEAVER,)))
        else:
            raise ConfigurationError(
                f"unknown interleaver {self.interleaver!r}")
        # a period within one frame's code bits keeps the padding under
        # one frame
        code_bits = self.code_bits
        period = self.n_s * m * run
        if period > code_bits:
            key = {"structured": "depth",
                   "adversarial": "adversarial_run"}.get(self.interleaver, "n_s")
            raise ConfigurationError(
                f"{key} is too large: the {self.interleaver} interleaver's "
                f"period n_s * bits_per_symbol * run = {period} exceeds the "
                f"{code_bits} code bits of a frame")
        try:
            itl = build(-(-code_bits // period) * period, self.n_s, m, arg)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        object.__setattr__(self, "modulation", constellation.name)
        object.__setattr__(self, "trellis", trellis)
        object.__setattr__(self, "constellation", constellation)
        object.__setattr__(self, "bit_interleaver", itl)

    @property
    def l_t(self) -> int:
        return self.profile.total_paths

    @property
    def n_steps(self) -> int:
        """Trellis steps of one terminated frame: its bits and K - 1
        flush steps."""
        return self.frame_bits + self.code.constraint_length - 1

    @property
    def code_bits(self) -> int:
        """Code bits of one frame, before the interleaver's padding."""
        return self.n_steps * self.code.n_out

    @property
    def sub_frames(self) -> int:
        """Most frames one sub-batch holds under the current budget (see
        ``_frame_bytes``)."""
        return max(1, _SUBBATCH_BYTES // _frame_bytes(
            self.code, self.frame_bits, self.l_t,
            max(self.m_r * self.n_r, self.m_t * self.n_t)))

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
        values = {key: getattr(self, key, None) for key in _KEYS
                  if key not in ("workers", "label")}
        # the keys that are not fields of the same name
        values.update(
            beta_db=_matrix_text(self.profile.beta_db),
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
    # generated methods would compare profiles by identity
    def __eq__(self, other):
        if not isinstance(other, SimConfig):
            return NotImplemented
        return self.canonical_text() == other.canonical_text()

    def __hash__(self):
        return hash(self.canonical_text())


def _frame_bytes(code: CodeSpec, frame_bits: int, l_t: int,
                 rows: int) -> int:
    """Bytes one frame of ``l_t`` paths takes in a sub-batch: per trellis
    step its decoder costs (2n float64) and packed survivors (2^(K-1)/8
    bytes); the bit costs, pattern costs and decisions of one decoder
    chunk of steps; one step's metrics, candidates and branch costs (40
    bytes per state); and six L_t x L_t complex gain-stage matrices.  Its
    message, code and decoded bits, a byte per step each, are left out.

    The QR fallback runs in chunks, so it is not charged, but one frame's
    fallback on its larger side, of ``rows`` elements, must fit the
    budget, like the frame, or the config is an error.  Sizes are Python
    ints, so no count overflows.
    """
    n, k = code.n_out, code.constraint_length
    states, n_steps = 1 << (k - 1), frame_bits + k - 1
    size = (n_steps * 16 * n + n_steps * states // 8 + 40 * states
            + min(n_steps, _DECODE_CHUNK_STEPS) * (16 * n + (8 << n) + states)
            + 96 * l_t * l_t)
    if size > _SUBBATCH_BYTES:
        raise ConfigurationError(
            f"a frame is too large: frame_bits {frame_bits} at K = {k} and "
            f"L_t = {l_t} takes {size} bytes, above the {_SUBBATCH_BYTES}-"
            f"byte sub-batch budget")
    fallback = _fallback_bytes(rows, l_t)
    if fallback > _SUBBATCH_BYTES:
        raise ConfigurationError(
            f"the arrays are too large: one frame's QR fallback on a side "
            f"of {rows} elements takes {fallback} bytes, above the "
            f"{_SUBBATCH_BYTES}-byte sub-batch budget")
    return size


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
    _frame_bytes(code, vals.get("frame_bits", SimConfig.frame_bits),
                 m_r * m_t, max(m_r * vals["n_r"], m_t * vals["n_t"]))
    if beta_db.size == 1:
        beta_db = np.full((m_r, m_t), beta_db.flat[0])
    profile = FadingProfile(beta_db, paths)

    lo, hi = SimConfig.angle_range_deg
    angles = (vals.pop("angle_min_deg", lo), vals.pop("angle_max_deg", hi))
    return SimConfig(profile=profile, code=code,
                     snr_grid_db=_parse_snr_grid(vals.pop("snr_db")),
                     angle_range_deg=angles, **vals)


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# the sweep


def build_runtime(config: SimConfig) -> None:
    """Warn when there are more streams than paths: the extra streams
    ride zero-gain modes.  ``sweep`` and ``analyze`` call it on entry."""
    if config.n_s > config.l_t:
        warnings.warn(
            f"n_s={config.n_s} exceeds the total path count {config.l_t}; "
            f"extra streams ride zero-gain modes", stacklevel=2)


def _frame_seed(config: SimConfig, snr_idx: int, frame_idx: int):
    """Root seed of one frame; its children 0 and 1 seed the channel
    stream and the frame stream."""
    return np.random.SeedSequence(config.master_seed,
                                  spawn_key=(_NS_FRAME, snr_idx, frame_idx))


# SeedSequence's hash constants (numpy.random.SeedSequence, pool of 4
# words): entropy words are hashed with the A pair, output words with B.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list:
    """Little-endian 32-bit words of a nonnegative int; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive hash step."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


# The steps below take a Python int or a uint32 array alike: every
# product is reduced mod 2**32 before it meets an array.
def _hashmix(value, consts):
    xor, mult = next(consts)
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)
             & _MASK32)
    return value ^ value >> 16


def _spawn_seed_words(seed: int, prefix: tuple, frames: range,
                      child: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(*prefix, f, child))
    .generate_state(4, np.uint64)`` for every f of the consecutive
    ``frames``, as one (len(frames), 4) uint64 array.

    This is SeedSequence's algorithm over all frames at once: the seed's
    words, zero-padded to the pool, then the spawn key's are hashed into
    the pool, which gives 8 output words.  Words before the frame index
    are the same for every frame and stay Python ints.  A frame index
    of 2**32 or more has more words, so frames are hashed in groups of
    one word count.
    """
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_WORDS - len(entropy))
    for key in prefix:
        entropy += _uint32_words(key)
    out = np.empty((len(frames), 2 * _POOL_WORDS), dtype=np.uint32)
    lo = frames.start
    while lo < frames.stop:
        n_words = len(_uint32_words(lo))
        hi = min(frames.stop, 1 << 32 * n_words)
        # the words of lo + k, carried in uint64 (a sub-batch has far
        # fewer than 2**32 frames)
        index = np.arange(hi - lo, dtype=np.uint64)
        frame_words = []
        for i in range(n_words):
            index += lo >> 32 * i & _MASK32
            frame_words.append((index & _MASK32).astype(np.uint32))
            index >>= 32
        words = entropy + frame_words + _uint32_words(child)
        consts = _hash_constants(_INIT_A, _MULT_A)
        pool = [_hashmix(w, consts) for w in words[:_POOL_WORDS]]
        for src in range(_POOL_WORDS):
            for dst in range(_POOL_WORDS):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
        for w in words[_POOL_WORDS:]:
            for dst in range(_POOL_WORDS):
                pool[dst] = _mix(pool[dst], _hashmix(w, consts))
        consts = _hash_constants(_INIT_B, _MULT_B)
        for i in range(2 * _POOL_WORDS):
            out[lo - frames.start:hi - frames.start, i] = _hashmix(
                pool[i % _POOL_WORDS], consts)
        lo = hi
    # word pairs (low, high) make each uint64, whatever the byte order
    return out[:, 0::2].astype(np.uint64) | out[:, 1::2].astype(np.uint64) << 32


class _SeedWords(ISeedSequence):
    """Precomputed PCG64 seed words: a ``PCG64`` built on them has the
    state that the SeedSequence they came from would give it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only a PCG64 seed, 4 uint64 words, is stored")
        return self.words


def _frame_rngs(config: SimConfig, snr_idx: int, frames: range,
                child: int) -> list:
    """One generator per frame of the consecutive ``frames`` from child
    ``child`` of the frame's root, state-identical to
    ``default_rng(_frame_seed(...).spawn(2)[child])``."""
    words = _spawn_seed_words(config.master_seed, (_NS_FRAME, snr_idx),
                              frames, child)
    return [np.random.Generator(np.random.PCG64(_SeedWords(w)))
            for w in words]


def _message_bits(rngs: list, length: int) -> np.ndarray:
    """The (len(rngs), length) bits that ``rng.integers(0, 2, length)``
    would draw from each generator, taken from raw PCG64 words.

    That bounded draw returns the top bit of each 32-bit half of the
    generator's 64-bit words, low half first, so the bits are bits 31
    and 63 of ceil(length / 2) words.  The raw call leaves the 64-bit
    stream where ``integers`` leaves it, so later normal draws match.
    """
    words = np.empty((len(rngs), -(-length // 2)), dtype=np.uint64)
    for b, rng in enumerate(rngs):
        words[b] = rng.bit_generator.random_raw(words.shape[1])
    bits = words[:, :, None] >> np.array([31, 63], dtype=np.uint64) & 1
    return bits.reshape(len(rngs), -1)[:, :length].astype(np.uint8)


def _simulate_frames(config: SimConfig, snr_idx: int, frames: range) -> int:
    """Run one sub-batch of frames through the link; return its
    info-bit error count.

    The seed words of every frame's two generators are hashed in one
    pass.  Each frame's channel generator draws its paths, and its frame
    generator the message as raw words, then the real and the imaginary
    noise parts in one call.  The gain stage, the encoder and the
    decoder run once on the whole sub-batch, the demap stage once per
    block of frames.
    Every stage treats frames independently, so results do not depend
    on how frames are grouped.
    """
    rx, tx, angles = config.geometry
    paths = draw_path_sets(config.profile,
                           _frame_rngs(config, snr_idx, frames, 0), angles)
    try:
        gains = _path_singular_values(config.profile, paths, rx, tx,
                                      config.n_s, _SUBBATCH_BYTES)
    except NumericalError as exc:
        raise NumericalError(
            "SVD failed to converge during sweep",
            seed=_frame_seed(config, snr_idx, frames[exc.index])) from exc
    # each stage's input is dropped once the next stage has it, so the
    # peak holds few sub-batch arrays at a time
    del paths

    itl = config.bit_interleaver
    constellation = config.constellation
    B = len(frames)
    n_sym, n_s = itl.n_symbols, itl.n_substreams
    rngs = _frame_rngs(config, snr_idx, frames, 1)
    messages = _message_bits(rngs, config.frame_bits)

    # pad bits past the code's output are zeros and get dropped after demap
    coded = np.zeros((B, itl.n_coded), dtype=np.uint8)
    coded[:, :config.code_bits] = encode(config.trellis, messages)
    # noise variance n_t / snr keeps the per-antenna transmit power fixed
    noise_var = config.n_t / 10.0 ** (config.snr_grid_db[snr_idx] / 10.0)
    scale = np.sqrt(noise_var / 2.0)
    # Frames run from channel output to decoder costs a block at a time,
    # so only the (B, code_bits, 2) costs span the whole sub-batch.
    step = max(1, _METRIC_BLOCK_ENTRIES // (n_sym * n_s * constellation.size))
    costs = np.empty((B, config.n_steps, config.code.n_out, 2))
    coded_costs = costs.reshape(B, config.code_bits, 2)
    for lo in range(0, B, step):
        hi = min(B, lo + step)
        # one call per frame draws the real, then the imaginary parts
        noise = np.empty((hi - lo, 2, n_sym, n_s))
        for b in range(lo, hi):
            rngs[b].standard_normal(out=noise[b - lo])
        x = bicm.map_frame(coded[lo:hi], itl, constellation)
        # y = gains * x + sqrt(noise_var / 2) * (re + 1j im), built in
        # place: the parts add in either order to the same bits
        y = np.empty(x.shape, dtype=complex)
        np.multiply(noise[:, 0], scale, out=y.real)
        np.multiply(noise[:, 1], scale, out=y.imag)
        del noise
        y += gains[lo:hi, None, :] * x
        del x
        metrics = bicm.bit_metrics(y, gains[lo:hi], constellation)
        del y
        coded_costs[lo:hi] = bicm.deinterleave_metrics(metrics, itl,
                                                       config.code_bits)
        del metrics
    del rngs, coded
    decoded = viterbi_decode(config.trellis, costs)
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
        return estimate_slope(self.snr_db, self.ber, window)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key in sorted(self.provenance):
                fh.write(f"# {key}={self.provenance[key]}\n")
            fh.write(BER_CSV_HEADER + "\n")
            for k in range(self.snr_db.size):
                ber = self.bit_errors[k] / max(int(self.bits[k]), 1)
                fh.write(f"{_number_text(self.snr_db[k])},"
                         f"{int(self.frames[k])},{int(self.bits[k])},"
                         f"{int(self.bit_errors[k])},"
                         f"{ber:.12e},{int(self.warning_flags[k])}\n")


def sweep(config: SimConfig) -> BerCurve:
    """Run the full BER sweep described by a config.

    Frames advance in fixed batches of ``batch_frames``; the stop rule
    (min_errors, capped by max_frames) is evaluated only at batch
    boundaries so the set of simulated frames is worker-independent.
    Each batch runs as the list of ``_sub_batches``, mapped in order
    either in this process or on the worker pool.
    """
    build_runtime(config)
    pool = None
    run = map
    if config.workers > 1:
        # imported here: the pool's modules (multiprocessing, sockets)
        # would otherwise load, and take memory, in every single-worker
        # process and CLI call
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=config.workers)
        run = pool.map
    try:
        n_pts = len(config.snr_grid_db)
        frames = np.zeros(n_pts, dtype=np.int64)
        errors = np.zeros(n_pts, dtype=np.int64)
        warn = np.zeros(n_pts, dtype=bool)
        for si in range(n_pts):
            simulate = functools.partial(_simulate_frames, config, si)
            done = 0
            errs = 0
            while done < config.max_frames and errs < config.min_errors:
                b = min(config.batch_frames, config.max_frames - done)
                errs += sum(run(simulate, _sub_batches(
                    done, done + b, config.sub_frames, config.workers)))
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
    if matrix_bytes > _SUBBATCH_BYTES:
        raise ConfigurationError(
            f"the arrays are too large: one {rows} x {cols} channel matrix "
            f"takes {matrix_bytes} bytes, above the "
            f"{_SUBBATCH_BYTES}-byte sub-batch budget")
    chunk = min(_SPECTRUM_CHUNK, _SUBBATCH_BYTES // matrix_bytes)
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
    """A named experiment: its run configs by variant label."""

    name: str
    variants: dict


_CODE = "133,171"
_DESK_NT = 32
_DESK_NR = 16

_FIG3_STRUCTURED = dict(m_r=2, m_t=2, n_s=6,
                        snr_grid=(1, 3, 5, 7, 9, 11, 13, 15))

# Variant k of a preset, in table order, runs at master_seed + k so
# that statistically-equivalent runs (e.g. a fading profile rescaled
# onto a shifted SNR grid) do not replay the same noise and trivially
# coincide.  Grids are calibrated so the last four points (the default
# slope window) sit in each curve's decaying region, roughly BER 1e-2
# down to a few 1e-5, reachable under the 200-error stop rule in seconds.
# The Fig. 2 spectrum study is the fig3_interleaver/structured config at
# the same seed, so its one variant is that config under another label.
_PRESETS = {
    "fig2_spectrum": {"spectrum": _FIG3_STRUCTURED},
    "fig3_interleaver": {
        "structured": _FIG3_STRUCTURED,
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
    profile = FadingProfile(np.broadcast_to(beta_db, (m_r, m_t)), paths)
    # Deep grid points see bursty frame errors (a faded subchannel wipes
    # out most of a frame), so stop-rule checks use coarse batches: every
    # point then collects at least one full batch of frames, keeping the
    # smallest BER estimates on the grid statistically meaningful.
    return SimConfig(
        m_r=m_r, m_t=m_t, n_r=_DESK_NR, n_t=_DESK_NT, profile=profile,
        n_s=n_s, modulation=modulation, code=CodeSpec.from_octal(_CODE),
        snr_grid_db=snr_grid, batch_frames=1024, max_frames=50_000, **kw)


def preset_names() -> tuple:
    return tuple(_PRESETS)


def preset(name: str, master_seed: int | None = None,
           workers: int | None = None) -> Preset:
    """Desk-scale experiment presets.

    Antenna counts are shrunk to 32/16 per subarray (rank and slope
    behavior do not depend on them); fading defaults to -20 dB with two
    paths per subarray pair.  SNR grids are calibrated so the last
    points sit in the high-SNR slope region at the default stop rule.
    """
    if name not in _PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; "
                                 f"choose from {preset_names()}")
    seed = 1 if master_seed is None else master_seed
    opts = {} if workers is None else {"workers": workers}
    return Preset(name, {
        label: _base(master_seed=seed + k, label=label, **fields, **opts)
        for k, (label, fields) in enumerate(_PRESETS[name].items())})
