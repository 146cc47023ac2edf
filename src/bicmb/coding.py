"""Rate-1/n binary convolutional codes.

Provides trellis construction from octal generator polynomials, a
terminated encoder, a batched soft-decision Viterbi decoder, and an
error-event search that yields the free distance and the distance
spectrum with per-event input weights and error-bit positions.

Conventions
-----------
The encoder register holds the current input bit in its most significant
position: with constraint length ``K`` and state ``s`` (the previous
``K - 1`` inputs, most recent in the MSB of the state), feeding input
``u`` forms ``r = (u << (K - 1)) | s``, emits ``parity(r & g)`` for each
generator ``g``, and moves to state ``r >> 1``.  Output bits of one step
are ordered first generator first.  Ties in the decoder resolve toward
the lower-indexed predecessor state, so an all-equal-metric input decodes
to the all-zero message.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CodeSpec",
    "Trellis",
    "SpectrumEntry",
    "DistanceSpectrum",
    "build_trellis",
    "encode",
    "viterbi_decode",
    "free_distance",
    "distance_spectrum",
]

# Events kept per distance in the spectrum; counts stay exact beyond it.
EVENT_STORAGE_CAP = 10_000

# Trellis tables and decoder survivors grow as 2**(K - 1) states (K = 40
# would ask for terabytes); the cap admits every shipped code (K <= 9).
_MAX_CONSTRAINT_LENGTH = 10

# Events whose bit positions are expanded at once in ``distance_spectrum``.
_POSITION_ROWS = 512

# Paths the error-event search may hold, counting the next level's
# candidates: the frontier grows exponentially with d_max, so a large
# d_max must fail before it allocates.  133,171 and 561,753 at d_max 22
# keep 1.8 M and 0.6 M.
_MAX_SPECTRUM_PATHS = 1 << 22

_INPUTS = np.arange(2, dtype=np.int32)


@dataclass(frozen=True)
class CodeSpec:
    """Rate-1/n convolutional code described by its generator taps.

    Parameters
    ----------
    generators : tuple of int
        Tap masks as plain integers (parse octal notation at the call
        site, e.g. ``CodeSpec.from_octal("133,171")``).
    constraint_length : int
        Number of register taps K; the code has ``2**(K - 1)`` states.
    """

    generators: tuple[int, ...]
    constraint_length: int

    def __post_init__(self):
        if len(self.generators) < 2:
            raise ValueError("need at least two generator polynomials")
        if self.constraint_length < 2:
            raise ValueError("constraint length must be at least 2")
        if self.constraint_length > _MAX_CONSTRAINT_LENGTH:
            raise ValueError(f"constraint length cannot exceed "
                             f"{_MAX_CONSTRAINT_LENGTH}")
        for g in self.generators:
            if not 0 < g < (1 << self.constraint_length):
                raise ValueError(
                    f"generator {g:#o} does not fit constraint length "
                    f"{self.constraint_length}"
                )

    @classmethod
    def from_octal(cls, text: str, constraint_length: int | None = None) -> "CodeSpec":
        """Parse a comma-separated octal generator list like ``"133,171"``."""
        try:
            gens = tuple(int(tok, 8) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad octal generator list {text!r}") from exc
        if constraint_length is None:
            constraint_length = max(g.bit_length() for g in gens)
        return cls(gens, constraint_length)

    @property
    def n_out(self) -> int:
        """Coded bits emitted per input bit."""
        return len(self.generators)

    @property
    def rate(self) -> float:
        return 1.0 / self.n_out


@dataclass(frozen=True)
class Trellis:
    """State-transition tables for one code, shared by encoder and decoder.

    Attributes
    ----------
    next_state, out_pattern : (S, 2) int arrays
        Successor state and emitted bit pattern for (state, input).  The
        pattern packs the n output bits with generator 0 in the MSB.
    pred_state, pred_input, pred_pattern : (S, 2) int arrays
        The two incoming transitions of each state, sorted by ascending
        predecessor state (decoder ties break toward index 0).
    taps : (n, K) uint8 array
        taps[j, i] multiplies input u[t - i] in generator j, so row j is
        the bit expansion of generators[j], MSB first.
    weight : (S, 2) int array
        Hamming weight of each branch's output pattern.
    catastrophic : bool
        Whether a loop of zero-weight branches avoids state 0, so that
        error events have no length bound.
    """

    spec: CodeSpec
    next_state: np.ndarray
    out_pattern: np.ndarray
    pred_state: np.ndarray
    pred_input: np.ndarray
    pred_pattern: np.ndarray
    taps: np.ndarray
    weight: np.ndarray
    catastrophic: bool

    @property
    def n_states(self) -> int:
        return self.next_state.shape[0]

    @property
    def n_out(self) -> int:
        return self.spec.n_out


def build_trellis(spec: CodeSpec) -> Trellis:
    """Tabulate transitions, outputs, branch weights and predecessors.

    Input u in state s fills the register ``(u << (K - 1)) | s``, so
    state t is entered from states ``2t mod S`` and ``2t mod S + 1``,
    both on input ``t >> (K - 2)``: each predecessor list is ascending.
    """
    K = spec.constraint_length
    n = spec.n_out
    n_states = 1 << (K - 1)
    states = np.arange(n_states, dtype=np.int64)
    inputs = np.arange(2, dtype=np.int64)

    msb_first = np.arange(K - 1, -1, -1, dtype=np.int64)
    taps = (np.array(spec.generators, dtype=np.int64)[:, None] >> msb_first) & 1
    reg = (inputs << (K - 1)) | states[:, None]
    # (S, 2, n): output bit j is the parity of the register bits on taps j
    out_bits = (((reg[..., None] >> msb_first) & 1) @ taps.T) & 1
    next_state = reg >> 1
    out_pattern = out_bits @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    weight = out_bits.sum(axis=2)

    pred_state = ((2 * states) % n_states)[:, None] + inputs
    pred_input = np.repeat((states >> (K - 2))[:, None], 2, axis=1)
    pred_pattern = out_pattern[pred_state, pred_input]

    return Trellis(spec, next_state, out_pattern,
                   pred_state, pred_input, pred_pattern,
                   taps.astype(np.uint8), weight,
                   _has_zero_weight_loop(weight, next_state))


def _has_zero_weight_loop(w_branch: np.ndarray, next_state: np.ndarray) -> bool:
    """Whether some loop of zero-weight branches avoids state 0.

    Peels off nonzero states with no zero-weight branch into a state
    still standing; whatever stands at the end lies on or feeds such a
    loop.
    """
    standing = np.ones(next_state.shape[0], dtype=bool)
    standing[0] = False
    while True:
        keep = standing & ((w_branch == 0) & standing[next_state]).any(axis=1)
        if np.array_equal(keep, standing):
            return bool(standing.any())
        standing = keep


def encode(trellis: Trellis, message: np.ndarray) -> np.ndarray:
    """Encode a binary message and flush the register back to state 0.

    ``message`` is one message (L,) or a batch (B, L).  Returns the
    ``n * (L + K - 1)`` coded bits of each message, interleaved
    first-generator-first, with the batch axis kept.
    """
    msg = np.asarray(message)
    if msg.ndim not in (1, 2) or msg.size == 0:
        raise ValueError("message must be a non-empty (L,) or (B, L) bit array")
    if not np.all((msg == 0) | (msg == 1)):
        raise ValueError("message must be binary")
    bits = msg.astype(np.uint8)

    n = trellis.n_out
    K = trellis.spec.constraint_length
    length = bits.shape[-1]
    steps = length + K - 1
    out = np.empty(bits.shape[:-1] + (steps, n), dtype=np.uint8)
    acc = np.empty(bits.shape[:-1] + (steps,), dtype=np.uint8)
    for j in range(n):
        # Output j at step t is the XOR of the inputs u[t - i] over taps i;
        # the K - 1 flush steps see only the zero-padded tail.
        acc[:] = 0
        for i in np.flatnonzero(trellis.taps[j]):
            span = min(length, steps - i)
            acc[..., i:i + span] ^= bits[..., :span]
        out[..., j] = acc
    return out.reshape(bits.shape[:-1] + (steps * n,))


def _pattern_bits(n: int) -> np.ndarray:
    """(2**n, n) table: bit j (generator j) of each packed output pattern."""
    p = np.arange(1 << n)
    shifts = n - 1 - np.arange(n)
    return (p[:, None] >> shifts[None, :]) & 1


def viterbi_decode(trellis: Trellis, branch_costs: np.ndarray) -> np.ndarray:
    """Minimum-cost decoding of terminated code words from per-bit soft costs.

    Parameters
    ----------
    branch_costs : array, shape (T, n, 2) or (B, T, n, 2)
        ``branch_costs[..., t, j, b]`` is the cost of deciding coded bit j
        of step t equal to b.  A branch costs the sum over its n bits, a
        path the sum over its branches.  The path starts and ends in
        state 0, and the K - 1 flush steps are stripped from the result.

    Returns
    -------
    uint8 array of ``T - (K - 1)`` message bits, shape (msg_len,) or
    (B, msg_len) matching the input batching.
    """
    costs = np.asarray(branch_costs, dtype=np.float64)
    single = costs.ndim == 3
    if single:
        costs = costs[None]
    if costs.ndim != 4 or costs.shape[2] != trellis.n_out or costs.shape[3] != 2:
        raise ValueError("branch_costs must have shape (..., T, n, 2)")
    K = trellis.spec.constraint_length
    B, T = costs.shape[:2]
    if T < K:
        raise ValueError("terminated decoding needs at least K steps")
    n_states = trellis.n_states

    pattern_costs = _pattern_costs(costs)
    pred_state = trellis.pred_state
    ps0, ps1 = pred_state[:, 0], pred_state[:, 1]
    pp0, pp1 = trellis.pred_pattern[:, 0], trellis.pred_pattern[:, 1]

    metric = np.full((n_states, B), np.inf)
    metric[0] = 0.0  # encoder always starts in state 0
    cand0 = np.empty_like(metric)
    cand1 = np.empty_like(metric)
    branch = np.empty_like(metric)
    # survivor[t, s, b] is True when s's predecessor slot 1 survived.
    survivor = np.empty((T, n_states, B), dtype=bool)
    # The trellis tables index in range, so mode="clip" never clips; it
    # lets np.take write straight into ``out`` instead of buffering.
    for t in range(T):
        pc = pattern_costs[t]
        np.take(metric, ps0, axis=0, out=cand0, mode="clip")
        cand0 += np.take(pc, pp0, axis=0, out=branch, mode="clip")
        np.take(metric, ps1, axis=0, out=cand1, mode="clip")
        cand1 += np.take(pc, pp1, axis=0, out=branch, mode="clip")
        # strict <: the lower predecessor state (slot 0) wins ties
        np.less(cand1, cand0, out=survivor[t])
        np.minimum(cand0, cand1, out=cand0)
        metric, cand0 = cand0, metric

    # the flush leaves every code word in state 0
    state = np.zeros(B, dtype=np.intp)
    cols = np.arange(B)
    decided = np.empty((B, T), dtype=np.uint8)
    for t in range(T - 1, -1, -1):
        k = survivor[t, state, cols].astype(np.intp)
        decided[:, t] = trellis.pred_input[state, k]
        state = pred_state[state, k]

    bits = decided[:, : T - (K - 1)]
    return bits[0] if single else bits


def _pattern_costs(costs: np.ndarray) -> np.ndarray:
    """Cost of each packed output pattern at each step, shape (T, P, B).

    ``costs`` is (B, T, n, 2).  The state-major layout makes every
    per-step gather of the decoder a copy of whole contiguous batch rows.
    The n bit costs are added left to right, the order of numpy's sum
    over that axis, so the sums are bitwise those of the reduce form.
    """
    B, T, n, _ = costs.shape
    pb = _pattern_bits(n)
    bit_costs = np.ascontiguousarray(costs.transpose(1, 2, 3, 0))
    out = np.empty((T, 1 << n, B))
    for p, bits in enumerate(pb):
        acc = out[:, p]
        np.add(bit_costs[:, 0, bits[0]], bit_costs[:, 1, bits[1]], out=acc)
        for j in range(2, n):
            acc += bit_costs[:, j, bits[j]]
    return out


def _min_weight_to_zero(trellis: Trellis) -> np.ndarray:
    """Per-state minimum output weight of any path remerging with state 0.

    Relaxes ``dist[s] = min_u(weight[s, u] + dist[next_state[s, u]])``
    with ``dist[0] = 0`` down from infinity until it stops changing;
    branch weights are nonnegative, so that takes at most S passes.
    """
    dist = np.full(trellis.n_states, np.inf)
    dist[0] = 0.0
    while True:
        relaxed = (trellis.weight + dist[trellis.next_state]).min(axis=1)
        relaxed[0] = 0.0
        if np.array_equal(relaxed, dist):
            return dist
        dist = relaxed


def free_distance(trellis: Trellis) -> int:
    """Minimum Hamming weight over paths that diverge from and remerge
    with the all-zero state.

    K - 1 zero inputs flush every state to 0, so it is always finite.
    """
    first = trellis.next_state[0, 1]
    return int(trellis.weight[0, 1] + _min_weight_to_zero(trellis)[first])


@dataclass
class SpectrumEntry:
    """All error events of one Hamming distance.

    ``positions`` holds, for up to ``EVENT_STORAGE_CAP`` events, one
    (E, d) row per event: the coded-bit indices (relative to the event
    start, ascending) where it differs from the all-zero path.
    ``input_weights`` holds their (E,) message-bit weights.  Stored events
    come in depth-first order of the search tree (1-branch before
    0-branch).  ``event_count`` and ``total_input_weight`` stay exact
    even when storage is truncated.
    """

    distance: int
    event_count: int
    total_input_weight: int
    positions: np.ndarray
    input_weights: np.ndarray
    storage_truncated: bool


@dataclass
class DistanceSpectrum:
    """Error events of a code grouped by distance, up to ``d_max``."""

    d_free: int
    d_max: int
    entries: dict[int, SpectrumEntry]

    def distances(self) -> list[int]:
        return sorted(self.entries)

    def multiplicity(self, d: int) -> int:
        return self.entries[d].event_count if d in self.entries else 0

    def input_weight(self, d: int) -> int:
        """Summed message-bit weight over all events at distance d."""
        return self.entries[d].total_input_weight if d in self.entries else 0


def _walk_back(parents: list, level: np.ndarray, node: np.ndarray):
    """Trace paths from their last node up to the root.

    ``level[e]`` and ``node[e]`` give the level and the index within it of
    path e's last node; ``parents[t - 1]`` maps a level-t node to its
    parent in level t - 1.  Yields (t, rows, idx) from the deepest level
    up: the paths ``rows`` that reach level t pass through its nodes
    ``idx``.
    """
    node = node.copy()
    for t in range(int(level.max()), 0, -1):
        rows = np.flatnonzero(level >= t)
        idx = node[rows]
        yield t, rows, idx
        node[rows] = parents[t - 1][idx]


def distance_spectrum(trellis: Trellis, d_max: int,
                      event_cap: int = EVENT_STORAGE_CAP) -> DistanceSpectrum:
    """Enumerate every error event of output weight <= d_max.

    Breadth-first search over paths leaving state 0, one trellis step per
    level.  A path is pruned as soon as its weight plus the exact minimum
    remaining weight to remerge exceeds ``d_max``; a path that remerges
    is an event.  Each level keeps only its paths' parent index, last
    input bit and last output pattern, from which the stored events are
    rebuilt.  A catastrophic code (a zero-weight loop off state 0) and a
    search past ``_MAX_SPECTRUM_PATHS`` paths raise ``ValueError``.
    """
    if event_cap < 1:
        raise ValueError("event_cap must keep at least one event per distance")
    d_free_val = free_distance(trellis)
    if d_max < d_free_val:
        raise ValueError(f"d_max={d_max} is below the free distance {d_free_val}")

    n = trellis.spec.n_out
    out_pattern = trellis.out_pattern
    # With every loop off state 0 costing weight, no path survives
    # n_states * (d_max + 1) levels, so the search below always ends.
    if trellis.catastrophic:
        raise ValueError(
            "error events have no length bound: the code has a zero-weight "
            "loop (catastrophic generator set)")
    # ``w > slack[s]`` is ``w + to_zero[s] > d_max`` for integer weights.
    # The path cap bounds the levels, so weights stay far below the
    # int32 ceiling.
    slack = np.minimum(d_max - _min_weight_to_zero(trellis),
                       np.iinfo(np.int32).max).astype(np.int32)
    pattern_dtype = np.min_scalar_type(out_pattern.max())
    # Flat per-branch tables: entry 2 * s + u is state s with input u.
    succ_of = trellis.next_state.astype(np.int32).ravel()
    w_of = trellis.weight.astype(np.int32).ravel()
    pat_of = out_pattern.astype(pattern_dtype).ravel()

    # Level t (list entry t - 1) holds the paths of t branches that have
    # not remerged.  Events always begin with input 1.
    parents = [np.full(1, -1, dtype=np.int32)]
    bits = [np.ones(1, dtype=np.uint8)]
    patterns = [pat_of[1:2]]
    state = succ_of[1:2]
    weight = w_of[1:2]
    in_w = np.ones(1, dtype=np.int32)
    n_paths = 1
    # per level: distance, input weight, parent node, final pattern
    found = []
    while state.size:
        # checked before the level's 2 * state.size candidates exist
        if n_paths + 2 * state.size > _MAX_SPECTRUM_PATHS:
            raise ValueError(
                f"the error-event search to d_max={d_max} needs more than "
                f"{_MAX_SPECTRUM_PATHS} paths; lower d_max")
        # candidate 2 * i + u extends path i with input u
        branch = (2 * state[:, None] + _INPUTS).ravel()
        succ = succ_of[branch]
        w = w_of[branch]
        w += np.repeat(weight, 2)
        keep = w <= slack[succ]
        remerge = succ == 0
        idx = np.flatnonzero(keep & remerge)
        if idx.size:
            rows = (idx >> 1).astype(np.int32)
            found.append((len(parents), w[idx],
                          (in_w[rows] + (idx & 1)).astype(np.int32),
                          rows, pat_of[branch[idx]]))
        keep &= ~remerge
        del remerge
        idx = np.flatnonzero(keep)
        del keep
        n_paths += idx.size
        state, weight = succ[idx], w[idx]
        patterns.append(pat_of[branch[idx]])
        u = (idx & 1).astype(np.uint8)
        bits.append(u)
        idx >>= 1
        parents.append(idx.astype(np.int32))
        in_w = in_w[parents[-1]] + u
        del branch, succ, w, idx

    level = np.concatenate([np.full(f[1].size, f[0], dtype=np.int32)
                            for f in found])
    dist, ev_in_w, node, final = (np.concatenate([f[k] for f in found])
                                  for k in range(1, 5))
    del found

    # Depth-first order (the order of a recursive search taking input 1
    # before input 0) is the lexicographic order of the input bits with
    # 1 < 0 and a prefix first: flip the bits, pack them MSB-first into
    # zero-padded words, and break ties by length.
    words = np.zeros((-(-int(level.max()) // 64), dist.size), dtype=np.uint64)
    for lv, rows, idx in _walk_back(parents, level, node):
        flip = (bits[lv - 1][idx] == 0).astype(np.uint64)
        words[(lv - 1) // 64, rows] |= flip << np.uint64(63 - (lv - 1) % 64)
    order = np.lexsort((level, *words[::-1], dist))
    del words

    # Each distance's events in that order; the first event_cap are stored.
    bounds = np.flatnonzero(np.diff(dist[order], prepend=-1, append=-1))
    groups = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    stored = np.concatenate([g[:event_cap] for g in groups])
    # Output pattern of every branch of each stored event, zero past its end.
    steps = np.zeros((stored.size, int(level[stored].max()) + 1),
                     dtype=pattern_dtype)
    steps[np.arange(stored.size), level[stored]] = final[stored]
    for lv, rows, idx in _walk_back(parents, level[stored], node[stored]):
        steps[rows, lv - 1] = patterns[lv - 1][idx]
    del parents, bits, patterns

    entries: dict[int, SpectrumEntry] = {}
    pattern_bits = _pattern_bits(n).astype(bool)
    start = 0
    for group in groups:
        d = int(dist[group[0]])
        kept = group[:event_cap]
        span = steps[start:start + kept.size, :int(level[kept].max()) + 1]
        start += kept.size
        width = span.shape[1] * n
        positions = np.empty((kept.size, d), dtype=np.int64)
        # a block of rows at a time keeps the bit expansion small
        for lo in range(0, kept.size, _POSITION_ROWS):
            block = pattern_bits[span[lo:lo + _POSITION_ROWS]]
            at = np.flatnonzero(block).reshape(-1, d)
            at -= np.arange(block.shape[0])[:, None] * width
            positions[lo:lo + block.shape[0]] = at
        entries[d] = SpectrumEntry(
            distance=d,
            event_count=int(group.size),
            total_input_weight=int(ev_in_w[group].sum(dtype=np.int64)),
            positions=positions,
            input_weights=ev_in_w[kept].astype(np.int64),
            storage_truncated=bool(group.size > event_cap))

    return DistanceSpectrum(d_free=d_free_val, d_max=d_max, entries=entries)
