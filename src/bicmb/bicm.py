"""Bit-interleaved coded modulation over parallel subchannels.

Gray-labeled constellations, the coded-bit-to-(symbol, subchannel,
bit-position) interleavers, the two design criteria those interleavers
must satisfy, and max-log bit metrics for the decoder.

Labels are read MSB first: bit position 0 of a symbol's label is its
most significant bit.  All constellations have unit average energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Constellation",
    "Interleaver",
    "CriteriaReport",
    "make_constellation",
    "structured_interleaver",
    "random_interleaver",
    "adversarial_interleaver",
    "check_criteria",
    "map_frame",
    "bit_metrics",
    "deinterleave_metrics",
]


@dataclass(frozen=True)
class Constellation:
    """A complex constellation with its binary labeling.

    ``points[v]`` is the symbol whose label is the integer v, bits read
    MSB first.
    """

    name: str
    bits_per_symbol: int
    points: np.ndarray

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def min_distance(self) -> float:
        """Smallest Euclidean distance between two distinct points."""
        d = np.abs(self.points[:, None] - self.points[None, :])
        return float(d[~np.eye(self.size, dtype=bool)].min())

    def label_bits(self) -> np.ndarray:
        """(size, m) table of label bits, MSB first."""
        m = self.bits_per_symbol
        v = np.arange(self.size)
        return ((v[:, None] >> (m - 1 - np.arange(m))[None, :]) & 1).astype(np.uint8)

    def subsets(self) -> np.ndarray:
        """(m, 2, size // 2) label indices with bit i equal to b."""
        bits = self.label_bits()
        m = self.bits_per_symbol
        out = np.empty((m, 2, self.size // 2), dtype=np.int64)
        for i in range(m):
            for b in (0, 1):
                out[i, b] = np.flatnonzero(bits[:, i] == b)
        return out

    def map_labels(self, labels: np.ndarray) -> np.ndarray:
        return self.points[labels]


def _gray_axis(levels: int) -> np.ndarray:
    """Gray-labeled PAM amplitudes, index = label value.

    For 4 levels: labels 00, 01, 11, 10 sit at +3, +1, -1, -3, so walking
    the axis flips one bit at a time.
    """
    if levels == 2:
        return np.array([1.0, -1.0])
    if levels == 4:
        return np.array([3.0, 1.0, -3.0, -1.0])
    raise ValueError(f"unsupported axis size {levels}")


def make_constellation(name: str) -> Constellation:
    """Build one of the supported Gray constellations.

    bpsk   : {+1, -1}, label 0 maps to +1
    qpsk   : product Gray, one bit per axis, scaled by 1/sqrt(2)
    16qam  : square Gray, two bits per axis, scaled by 1/sqrt(10)
    """
    key = name.lower()
    if key == "bpsk":
        return Constellation("bpsk", 1, _gray_axis(2).astype(complex))
    if key == "qpsk":
        axis = _gray_axis(2)
        pts = (axis[:, None] + 1j * axis[None, :]).reshape(-1) / np.sqrt(2.0)
        return Constellation("qpsk", 2, pts)
    if key == "16qam":
        axis = _gray_axis(4)
        pts = (axis[:, None] + 1j * axis[None, :]).reshape(-1) / np.sqrt(10.0)
        return Constellation("16qam", 4, pts)
    raise ConfigurationError(f"unknown constellation {name!r}")


@dataclass(frozen=True)
class Interleaver:
    """Bijection from coded-bit index to (symbol time, subchannel, bit position).

    ``positions[k]`` is the flat slot of coded bit k in the modulation
    buffer laid out symbol-time major: slot = (t * n_substreams + s) * m + i.
    """

    kind: str
    n_substreams: int
    bits_per_symbol: int
    positions: np.ndarray

    @property
    def n_coded(self) -> int:
        return self.positions.size

    @property
    def n_symbols(self) -> int:
        """Symbol times per substream."""
        return self.n_coded // (self.n_substreams * self.bits_per_symbol)

    def subchannels(self) -> np.ndarray:
        """Subchannel index of each coded bit."""
        return (self.positions // self.bits_per_symbol) % self.n_substreams

    def symbol_ids(self) -> np.ndarray:
        """Distinct id of the (symbol time, subchannel) slot of each coded bit."""
        return self.positions // self.bits_per_symbol

    def bit_positions(self) -> np.ndarray:
        return self.positions % self.bits_per_symbol

    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.positions)
        inv[self.positions] = np.arange(self.n_coded)
        return inv


def _validate_sizes(n_coded: int, n_substreams: int, bits_per_symbol: int,
                    period: int) -> None:
    if n_substreams < 1 or bits_per_symbol < 1:
        raise ValueError("need at least one substream and one bit per symbol")
    if n_coded < period or n_coded % period:
        raise ValueError(
            f"coded length {n_coded} is not a positive multiple of the "
            f"interleaver period {period}"
        )


def structured_interleaver(n_coded: int, n_substreams: int, bits_per_symbol: int,
                           depth: int = 8) -> Interleaver:
    """Deterministic interleaver: subchannels rotate at bit granularity,
    and within each substream a depth-column block spreads neighbors into
    different symbol times.

    Coded bit k goes to subchannel k mod n_s.  Its within-substream index
    j = k // n_s fills blocks of depth * m slots column-wise: symbol time
    (j // (depth * m)) * depth + j mod depth and bit position
    (j // depth) mod m.  Consecutive coded bits therefore never share a
    symbol (for n_s = 1 this needs depth >= 2 when m >= 2), and any run
    of n_s consecutive bits touches every subchannel.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if n_substreams == 1 and bits_per_symbol > 1 and depth < 2:
        raise ValueError("single-substream multi-bit symbols need depth >= 2")
    period = n_substreams * bits_per_symbol * depth
    _validate_sizes(n_coded, n_substreams, bits_per_symbol, period)

    k = np.arange(n_coded)
    s = k % n_substreams
    j = k // n_substreams
    block, r = np.divmod(j, depth * bits_per_symbol)
    t = block * depth + r % depth
    i = r // depth
    positions = (t * n_substreams + s) * bits_per_symbol + i
    return Interleaver("structured", n_substreams, bits_per_symbol, positions)


def random_interleaver(n_coded: int, n_substreams: int, bits_per_symbol: int,
                       rng: np.random.Generator,
                       max_tries: int = 100) -> Interleaver:
    """Random interleaver, redrawn until both design criteria hold.

    Subchannels still rotate bit by bit (that is what makes full
    subchannel coverage of short windows achievable at all); the slot
    order within each substream is a fresh uniform permutation per draw.
    """
    period = n_substreams * bits_per_symbol
    _validate_sizes(n_coded, n_substreams, bits_per_symbol, period)
    per_stream = n_coded // n_substreams

    k = np.arange(n_coded)
    s = k % n_substreams
    for _ in range(max_tries):
        positions = np.empty(n_coded, dtype=np.int64)
        for sub in range(n_substreams):
            slots = rng.permutation(per_stream)
            t, i = np.divmod(slots, bits_per_symbol)
            positions[s == sub] = (t * n_substreams + sub) * bits_per_symbol + i
        itl = Interleaver("random", n_substreams, bits_per_symbol, positions)
        report = check_criteria(itl)
        if report.ok:
            return itl
    raise ConfigurationError(
        f"no valid random interleaver found in {max_tries} draws "
        f"(n_coded={n_coded}, n_substreams={n_substreams}, m={bits_per_symbol})"
    )


def adversarial_interleaver(n_coded: int, n_substreams: int, bits_per_symbol: int,
                            run: int) -> Interleaver:
    """Deliberately bad interleaver: ``run`` consecutive coded bits go to
    the same subchannel before moving to the next.

    With more than one subchannel this violates the window-coverage
    criterion whenever run >= the window, concentrating whole error
    events onto single subchannels; it exists to demonstrate the
    resulting diversity collapse.
    """
    if run < 1:
        raise ValueError("run length must be positive")
    period = n_substreams * bits_per_symbol * run
    _validate_sizes(n_coded, n_substreams, bits_per_symbol, period)

    k = np.arange(n_coded)
    s = (k // run) % n_substreams
    # within its substream, each bit takes the next free slot in order
    j = (k // (n_substreams * run)) * run + k % run
    t, i = np.divmod(j, bits_per_symbol)
    positions = (t * n_substreams + s) * bits_per_symbol + i
    return Interleaver("adversarial", n_substreams, bits_per_symbol, positions)


@dataclass(frozen=True)
class CriteriaReport:
    """Outcome of the two interleaver design checks.

    consecutive_ok : no two consecutive coded bits share a symbol
    coverage_ok    : every window of ``window`` consecutive coded bits
                     touches all subchannels
    """

    consecutive_ok: bool
    coverage_ok: bool
    window: int

    @property
    def ok(self) -> bool:
        return self.consecutive_ok and self.coverage_ok


def check_criteria(interleaver: Interleaver, window: int | None = None) -> CriteriaReport:
    """Check the two design criteria; ``window`` defaults to the free
    distance requirement's minimum, the number of substreams."""
    if window is None:
        window = interleaver.n_substreams
    if window < interleaver.n_substreams:
        # fewer slots than subchannels can never cover them all
        return CriteriaReport(False, False, window)

    ids = interleaver.symbol_ids()
    consecutive_ok = bool(np.all(ids[1:] != ids[:-1]))

    subs = interleaver.subchannels()
    n = interleaver.n_coded
    coverage_ok = True
    for sub in range(interleaver.n_substreams):
        at = np.flatnonzero(subs == sub)
        if at.size == 0:
            coverage_ok = False
            break
        gaps = np.diff(at, prepend=-1, append=n)
        if gaps.max() > window:
            coverage_ok = False
            break
    return CriteriaReport(consecutive_ok, coverage_ok, window)


def map_frame(coded_bits: np.ndarray, interleaver: Interleaver,
              constellation: Constellation) -> np.ndarray:
    """Interleave and modulate one coded frame, or a batch of them.

    ``coded_bits`` is (n_coded,) or (B, n_coded).  Returns the complex
    transmit symbols, (n_symbols, n_substreams) per frame with one row
    per symbol time, and the batch axis kept.
    """
    bits = np.asarray(coded_bits)
    if bits.ndim not in (1, 2) or bits.shape[-1] != interleaver.n_coded:
        raise ValueError(
            f"expected {interleaver.n_coded} coded bits per frame, got {bits.shape}")
    m = constellation.bits_per_symbol
    if m != interleaver.bits_per_symbol:
        raise ValueError("interleaver and constellation disagree on bits per symbol")

    # Slot k of the modulation buffer carries coded bit inverse[k]; each
    # symbol's m slots form its label, MSB first.
    bits = bits.astype(np.uint8, copy=False)
    source = interleaver.inverse().reshape(-1, m)
    labels = bits[..., source[:, 0]]
    for i in range(1, m):
        labels <<= 1
        labels |= bits[..., source[:, i]]
    return constellation.map_labels(labels).reshape(
        bits.shape[:-1] + (interleaver.n_symbols, interleaver.n_substreams))


# Frames are processed in blocks whose squared-distance planes (this many
# float64 entries, 1 MiB) stay in cache while the minima read them.
_METRIC_BLOCK_ENTRIES = 1 << 17


def bit_metrics(received: np.ndarray, gains: np.ndarray,
                constellation: Constellation) -> np.ndarray:
    """Max-log metrics for every label bit of every received symbol.

    ``received`` has shape (n_symbols, n_substreams), or (B, n_symbols,
    n_substreams) for a batch, and ``gains`` holds the per-substream
    amplitudes, (n_substreams,) or (B, n_substreams).  Entry
    [..., t, s, i, b] is min over x with label bit i = b of
    |y[..., t, s] - gains[..., s] * x|^2.
    """
    y = np.asarray(received)
    lam = np.asarray(gains, dtype=np.float64)
    if y.ndim not in (2, 3) or lam.shape != y.shape[:-2] + y.shape[-1:]:
        raise ValueError("received must be ([B,] n_symbols, n_substreams) "
                         "with one gain per substream")

    m = constellation.bits_per_symbol
    out = np.empty(y.shape + (m, 2))
    frames = y.reshape((-1,) + y.shape[-2:])
    frame_gains = lam.reshape(-1, y.shape[-1])
    frame_out = out.reshape(frames.shape + (m, 2))
    subsets = constellation.subsets()
    entries = max(1, y.shape[-2] * y.shape[-1] * constellation.size)
    step = max(1, _METRIC_BLOCK_ENTRIES // entries)
    for lo in range(0, frames.shape[0], step):
        _metric_block(frames[lo:lo + step], frame_gains[lo:lo + step],
                      constellation.points, subsets, frame_out[lo:lo + step])
    return out


def _metric_block(y, gains, points, subsets, out) -> None:
    """:func:`bit_metrics` of a (B, n_symbols, n_substreams) block, into ``out``."""
    # one contiguous plane of squared distances per constellation point
    scaled = gains[:, None, :]
    diff = np.empty(y.shape, dtype=complex)
    d2 = np.empty((points.size,) + y.shape)
    for p, point in enumerate(points):
        np.subtract(y, scaled * point, out=diff)
        np.square(np.abs(diff, out=d2[p]), out=d2[p])

    # max-log: the minimum over each label subset is exact in any order
    low = np.empty(y.shape)
    for i, bit_subsets in enumerate(subsets):
        for b, members in enumerate(bit_subsets):
            if members.size == 1:
                out[..., i, b] = d2[members[0]]
                continue
            np.minimum(d2[members[0]], d2[members[1]], out=low)
            for p in members[2:]:
                np.minimum(low, d2[p], out=low)
            out[..., i, b] = low


def deinterleave_metrics(metrics: np.ndarray, interleaver: Interleaver,
                         n_bits: int | None = None) -> np.ndarray:
    """Reorder per-bit metrics back to coded order.

    ``metrics`` is the ([B,] n_symbols, n_substreams, m, 2) array from
    :func:`bit_metrics`; the result is ([B,] n_bits, 2), row k holding
    the two costs of coded bit k.  ``n_bits`` defaults to every coded
    bit; a smaller count drops the trailing pad bits without gathering
    them.
    """
    metrics = np.asarray(metrics)
    flat = metrics.reshape(metrics.shape[:-4] + (interleaver.n_coded, 2))
    return np.take(flat, interleaver.positions[:n_bits], axis=-2)
