"""Convolutional encoder, Viterbi decoder, and distance-spectrum tests.

Reference values come from independent constructions: a bit-serial
shift-register encoder, exhaustive maximum-likelihood decoding, and the
closed-form spectrum of the 4-state rate-1/2 code.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bicmb import coding
from bicmb.coding import (
    CodeSpec,
    _pattern_bits,
    _pattern_costs,
    build_trellis,
    distance_spectrum,
    encode,
    free_distance,
    viterbi_decode,
)


@pytest.fixture(scope="module")
def trellis4():
    return build_trellis(CodeSpec.from_octal("5,7"))


@pytest.fixture(scope="module")
def trellis64():
    return build_trellis(CodeSpec.from_octal("133,171"))


def reference_encode(spec: CodeSpec, message):
    """Bit-serial shift-register encoder used as an independent oracle."""
    k = spec.constraint_length
    msg = list(message) + [0] * (k - 1)
    state = 0
    out = []
    for bit in msg:
        reg = (bit << (k - 1)) | state
        for g in spec.generators:
            out.append(bin(reg & g).count("1") % 2)
        state = reg >> 1
    return np.array(out, dtype=np.int64)


def exhaustive_ml(trellis, costs, n_bits):
    """Brute-force ML decode over all messages of n_bits bits."""
    best_cost, best_msg = None, None
    for value in range(1 << n_bits):
        msg = np.array([(value >> (n_bits - 1 - i)) & 1
                        for i in range(n_bits)], dtype=np.int64)
        cw = encode(trellis, msg).reshape(-1, trellis.spec.n_out)
        cost = costs[np.arange(cw.shape[0])[:, None],
                     np.arange(cw.shape[1])[None, :], cw].sum()
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost, best_msg = cost, msg
    return best_msg


def _gf2_gcd(a, b):
    """Greatest common divisor of two GF(2) polynomials packed as ints."""
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def non_catastrophic(generators, k):
    """True when the generators' gcd is a power of D (Massey-Sain)."""
    common = 0
    for g in generators:
        # bit i of the polynomial is the tap on u[t - i]
        common = _gf2_gcd(common, int(f"{g:0{k}b}"[::-1], 2))
    return common & (common - 1) == 0


@st.composite
def small_codes(draw):
    """Random non-catastrophic rate-1/n codes, K 3-5, n 2-3."""
    k = draw(st.integers(3, 5))
    n = draw(st.integers(2, 3))
    gens = tuple(draw(st.lists(st.integers(1, (1 << k) - 1),
                               min_size=n, max_size=n)))
    assume(non_catastrophic(gens, k))
    return build_trellis(CodeSpec(gens, k))


def reference_spectrum(trellis, d_max, event_cap):
    """Depth-first error-event search in plain Python.

    Pops the 1-branch before the 0-branch and stores each distance's
    first ``event_cap`` events in the order found.  Returns
    {d: (count, total input weight, positions, input weights, truncated)}.
    """
    n = trellis.spec.n_out
    nxt = trellis.next_state.tolist()
    pat = trellis.out_pattern.tolist()
    ones = [bin(p).count("1") for p in range(1 << n)]
    n_states = len(nxt)
    # exact minimum weight from each state back to state 0
    to_zero = [0] + [math.inf] * (n_states - 1)
    changed = True
    while changed:
        changed = False
        for s in range(1, n_states):
            for u in (0, 1):
                c = ones[pat[s][u]] + to_zero[nxt[s][u]]
                if c < to_zero[s]:
                    to_zero[s], changed = c, True

    def positions(pats):
        return [t * n + j for t, p in enumerate(pats) for j in range(n)
                if (p >> (n - 1 - j)) & 1]

    found = {}
    stack = [(nxt[0][1], ones[pat[0][1]], 1, [pat[0][1]])]
    while stack:
        state, weight, in_w, pats = stack.pop()
        for u in (0, 1):
            w = weight + ones[pat[state][u]]
            s = nxt[state][u]
            if w + to_zero[s] > d_max:
                continue
            if s == 0:
                count, total, pos, weights, _ = found.get(w, (0, 0, [], [], False))
                if len(pos) < event_cap:
                    pos = pos + [positions(pats + [pat[state][u]])]
                    weights = weights + [in_w + u]
                found[w] = (count + 1, total + in_w + u, pos, weights,
                            count + 1 > event_cap)
            else:
                stack.append((s, w, in_w + u, pats + [pat[state][u]]))
    return found


def assert_matches_reference(spectrum, want):
    assert spectrum.distances() == sorted(want)
    for d, (count, total, pos, weights, truncated) in want.items():
        entry = spectrum.entries[d]
        assert entry.distance == d
        assert entry.event_count == count
        assert entry.total_input_weight == total
        assert entry.storage_truncated == truncated
        assert entry.positions.dtype == np.int64
        assert entry.positions.shape == (len(pos), d)
        assert entry.positions.tolist() == pos
        assert entry.input_weights.dtype == np.int64
        assert entry.input_weights.tolist() == weights


def tie_costs(trellis, steps, frames=None):
    """Integer-valued bit costs in 0..2, so path metrics tie often."""
    shape = (steps, trellis.n_out, 2)
    if frames is not None:
        shape = (frames,) + shape
    return hnp.arrays(np.float64, shape,
                      elements=st.sampled_from([0.0, 1.0, 2.0]))


def reference_viterbi(trellis, costs):
    """Per-state add-compare-select straight from the encoder convention.

    Predecessors are scanned in ascending state order and replaced only
    by a strictly smaller metric, so ties keep the lower predecessor; the
    path ends in state 0.
    """
    spec = trellis.spec
    k = spec.constraint_length
    n_states = 1 << (k - 1)
    metric = [0.0] + [math.inf] * (n_states - 1)
    history = []
    for step in costs:
        best = [math.inf] * n_states
        choice = [None] * n_states
        for prev in range(n_states):
            for u in (0, 1):
                reg = (u << (k - 1)) | prev
                bits = [bin(reg & g).count("1") % 2 for g in spec.generators]
                cand = metric[prev] + sum(step[j, b] for j, b in enumerate(bits))
                nxt = reg >> 1
                if choice[nxt] is None or cand < best[nxt]:
                    best[nxt], choice[nxt] = cand, (prev, u)
        metric = best
        history.append(choice)
    state = 0
    bits = []
    for choice in reversed(history):
        state, u = choice[state]
        bits.append(u)
    bits.reverse()
    return np.array(bits[:len(bits) - (k - 1)], dtype=np.uint8)


class TestCodeSpec:
    def test_from_octal_infers_constraint_length(self):
        spec = CodeSpec.from_octal("133,171")
        assert spec.generators == (0o133, 0o171)
        assert spec.constraint_length == 7
        assert spec.n_out == 2
        assert spec.rate == 0.5

    def test_explicit_constraint_length(self):
        spec = CodeSpec.from_octal("5,7", constraint_length=4)
        assert spec.constraint_length == 4

    def test_rejects_single_generator(self):
        with pytest.raises(ValueError):
            CodeSpec((0o5,), 3)

    def test_rejects_generator_wider_than_register(self):
        with pytest.raises(ValueError):
            CodeSpec((0o5, 0o17), 3)

    def test_rejects_bad_octal_text(self):
        with pytest.raises(ValueError):
            CodeSpec.from_octal("5;7")

    def test_rejects_tiny_constraint_length(self):
        with pytest.raises(ValueError):
            CodeSpec((1, 1), 1)


class TestTrellis:
    def test_shapes_and_regularity(self, trellis64):
        s = trellis64.n_states
        assert trellis64.next_state.shape == (s, 2)
        assert trellis64.out_pattern.shape == (s, 2)
        # every state is reached by exactly two predecessors
        counts = np.bincount(trellis64.next_state.ravel(), minlength=s)
        assert np.all(counts == 2)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 10), n=st.integers(2, 4), data=st.data())
    def test_predecessor_tables_invert_transitions(self, k, n, data):
        gens = tuple(data.draw(st.lists(st.integers(1, (1 << k) - 1),
                                        min_size=n, max_size=n)))
        trellis = build_trellis(CodeSpec(gens, k))
        n_states = 1 << (k - 1)
        for name in ("next_state", "pred_state", "pred_input",
                     "pred_pattern"):
            assert getattr(trellis, name).dtype == np.int64
        assert trellis.taps.dtype == np.uint8
        assert trellis.taps.tolist() == [[int(b) for b in f"{g:0{k}b}"]
                                         for g in gens]

        next_state = np.empty((n_states, 2), dtype=np.int64)
        out_pattern = np.empty((n_states, 2), dtype=np.int64)
        for s in range(n_states):
            for u in range(2):
                reg = (u << (k - 1)) | s
                next_state[s, u] = reg >> 1
                pattern = 0
                for g in gens:
                    pattern = (pattern << 1) | (bin(reg & g).count("1") & 1)
                out_pattern[s, u] = pattern
        np.testing.assert_array_equal(trellis.next_state, next_state)
        np.testing.assert_array_equal(trellis.out_pattern, out_pattern)
        np.testing.assert_array_equal(
            trellis.weight, [[bin(p).count("1") for p in row]
                             for row in out_pattern.tolist()])

        prev, bit = trellis.pred_state, trellis.pred_input
        states = np.arange(n_states, dtype=np.int64)
        np.testing.assert_array_equal(trellis.next_state[prev, bit],
                                      np.stack([states, states], axis=1))
        np.testing.assert_array_equal(trellis.pred_pattern,
                                      trellis.out_pattern[prev, bit])
        # each branch enters exactly one state, in exactly one slot
        assert sorted((2 * prev + bit).ravel().tolist()) \
            == list(range(2 * n_states))
        # tie-break contract: predecessor slots sorted ascending
        assert np.all(prev[:, 0] < prev[:, 1])


class TestEncoder:
    def test_four_state_impulse_response(self, trellis4):
        # single 1 bit, terminated: taps 101 and 111 interleaved per step
        out = encode(trellis4, np.array([1]))
        assert out.tolist() == [1, 1, 0, 1, 1, 1]

    def test_64_state_impulse_is_interleaved_taps(self, trellis64):
        out = encode(trellis64, np.array([1]))
        taps1 = [int(b) for b in f"{0o133:07b}"]
        taps2 = [int(b) for b in f"{0o171:07b}"]
        expect = [b for pair in zip(taps1, taps2) for b in pair]
        assert out.tolist() == expect

    @pytest.mark.parametrize("octal", ["5,7", "133,171"])
    def test_matches_bit_serial_reference(self, octal):
        spec = CodeSpec.from_octal(octal)
        trellis = build_trellis(spec)
        rng = np.random.default_rng(2024)
        for _ in range(50):
            msg = rng.integers(0, 2, rng.integers(1, 64))
            np.testing.assert_array_equal(encode(trellis, msg),
                                          reference_encode(spec, msg))

    def test_linearity_over_gf2(self, trellis64):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.integers(0, 2, 40)
            b = rng.integers(0, 2, 40)
            lhs = encode(trellis64, a ^ b)
            rhs = encode(trellis64, a) ^ encode(trellis64, b)
            np.testing.assert_array_equal(lhs, rhs)

    def test_rejects_non_binary_message(self, trellis4):
        with pytest.raises(ValueError):
            encode(trellis4, np.array([0, 2, 1]))

    @pytest.mark.parametrize("octal", ["5,7", "133,171", "25,33,37"])
    def test_batch_equals_per_row(self, octal):
        trellis = build_trellis(CodeSpec.from_octal(octal))
        msgs = np.random.default_rng(11).integers(0, 2, (9, 37))
        batch = encode(trellis, msgs)
        assert batch.dtype == np.uint8
        for row, msg in zip(batch, msgs):
            np.testing.assert_array_equal(row, encode(trellis, msg))
        with pytest.raises(ValueError):
            encode(trellis, msgs[None])


class TestViterbi:
    def test_zero_noise_identity(self, trellis64):
        rng = np.random.default_rng(11)
        for _ in range(25):
            msg = rng.integers(0, 2, 96)
            coded = encode(trellis64, msg).reshape(-1, 2)
            costs = np.zeros((coded.shape[0], 2, 2))
            costs[np.arange(coded.shape[0])[:, None],
                  np.arange(2)[None, :], 1 - coded] = 1.0
            np.testing.assert_array_equal(viterbi_decode(trellis64, costs),
                                          msg)

    def test_all_equal_costs_decode_to_zero(self, trellis4, trellis64):
        for trellis in (trellis4, trellis64):
            steps = 4 * trellis.spec.constraint_length
            costs = np.ones((steps, 2, 2))
            out = viterbi_decode(trellis, costs)
            assert not out.any()

    @pytest.mark.parametrize("octal,n_bits,n_tables",
                             [("5,7", 8, 100), ("133,171", 6, 20)])
    def test_equals_exhaustive_ml(self, octal, n_bits, n_tables):
        trellis = build_trellis(CodeSpec.from_octal(octal))
        steps = n_bits + trellis.spec.constraint_length - 1
        rng = np.random.default_rng(5150)
        for _ in range(n_tables):
            costs = rng.uniform(0.0, 1.0, (steps, 2, 2))
            got = viterbi_decode(trellis, costs)
            want = exhaustive_ml(trellis, costs, n_bits)
            np.testing.assert_array_equal(got, want)

    def test_batched_equals_single(self, trellis64):
        rng = np.random.default_rng(31)
        costs = rng.uniform(0.0, 4.0, (5, 24, 2, 2))
        batch = viterbi_decode(trellis64, costs)
        for b in range(5):
            np.testing.assert_array_equal(batch[b],
                                          viterbi_decode(trellis64, costs[b]))

    @settings(max_examples=60, deadline=None)
    @given(trellis=small_codes(), n_bits=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_random_codes_equal_exhaustive_ml(self, trellis, n_bits, seed):
        steps = n_bits + trellis.spec.constraint_length - 1
        costs = np.random.default_rng(seed).uniform(
            0.0, 1.0, (steps, trellis.n_out, 2))
        np.testing.assert_array_equal(viterbi_decode(trellis, costs),
                                      exhaustive_ml(trellis, costs, n_bits))

    @settings(max_examples=80, deadline=None)
    @given(trellis=small_codes(), n_bits=st.integers(1, 8), data=st.data())
    def test_ties_follow_reference_acs(self, trellis, n_bits, data):
        steps = n_bits + trellis.spec.constraint_length - 1
        costs = data.draw(tie_costs(trellis, steps))
        np.testing.assert_array_equal(viterbi_decode(trellis, costs),
                                      reference_viterbi(trellis, costs))

    @settings(max_examples=40, deadline=None)
    @given(trellis=small_codes(), n_bits=st.integers(1, 8),
           frames=st.integers(2, 5), data=st.data())
    def test_batched_equals_single_with_ties(self, trellis, n_bits, frames,
                                             data):
        steps = n_bits + trellis.spec.constraint_length - 1
        costs = data.draw(tie_costs(trellis, steps, frames))
        batch = viterbi_decode(trellis, costs)
        for b in range(frames):
            np.testing.assert_array_equal(batch[b],
                                          viterbi_decode(trellis, costs[b]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("frames", [1, 7, 300])
    def test_pattern_costs_equal_reduce_form(self, n, frames):
        # magnitudes over six decades make any change of summation order
        # show up in the last bits
        rng = np.random.default_rng(100 * n + frames)
        shape = (frames, 40, n, 2)
        costs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        pb = _pattern_bits(n)
        jidx = np.broadcast_to(np.arange(n), pb.shape)
        reduce_form = np.ascontiguousarray(
            costs[:, :, jidx, pb].sum(axis=3).transpose(1, 2, 0))
        got = _pattern_costs(costs)
        assert got.shape == (40, 1 << n, frames)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      reduce_form.view(np.uint64))

    def test_rejects_short_terminated_block(self, trellis64):
        with pytest.raises(ValueError):
            viterbi_decode(trellis64, np.zeros((3, 2, 2)))

    def test_rejects_bad_shape(self, trellis4):
        with pytest.raises(ValueError):
            viterbi_decode(trellis4, np.zeros((8, 2, 3)))


class TestDistanceSpectrum:
    def test_free_distances(self, trellis4, trellis64):
        assert free_distance(trellis4) == 5
        assert free_distance(trellis64) == 10

    def test_four_state_closed_form(self, trellis4):
        # the 4-state rate-1/2 code has multiplicity 2^(d-5) and summed
        # input weight (d-4)*2^(d-5) at distance d >= 5
        spectrum = distance_spectrum(trellis4, 12)
        assert spectrum.d_free == 5
        for d in range(5, 13):
            assert spectrum.multiplicity(d) == 2 ** (d - 5)
            assert spectrum.input_weight(d) == (d - 4) * 2 ** (d - 5)

    def test_64_state_published_table(self, trellis64):
        spectrum = distance_spectrum(trellis64, 14)
        assert spectrum.multiplicity(11) == 0
        table = {10: (11, 36), 12: (38, 211), 14: (193, 1404)}
        for d, (count, weight) in table.items():
            assert spectrum.multiplicity(d) == count
            assert spectrum.input_weight(d) == weight

    # 1003,1777 has events of up to 71 steps, past one 64-bit word of inputs
    @pytest.mark.parametrize("generators,d_max", [("5,7", 12),
                                                  ("133,171", 16),
                                                  ("561,753", 16),
                                                  ("1003,1777", 18)])
    @pytest.mark.parametrize("event_cap", [10_000, 7, 1])
    def test_matches_depth_first_reference(self, generators, d_max, event_cap):
        trellis = build_trellis(CodeSpec.from_octal(generators))
        spectrum = distance_spectrum(trellis, d_max, event_cap=event_cap)
        assert spectrum.d_free == free_distance(trellis)
        assert spectrum.d_max == d_max
        assert_matches_reference(spectrum,
                                 reference_spectrum(trellis, d_max, event_cap))

    @settings(max_examples=25, deadline=None)
    @given(trellis=small_codes(), extra=st.integers(0, 4),
           event_cap=st.integers(1, 5))
    def test_random_codes_match_depth_first_reference(self, trellis, extra,
                                                      event_cap):
        d_max = free_distance(trellis) + extra
        spectrum = distance_spectrum(trellis, d_max, event_cap=event_cap)
        assert_matches_reference(spectrum,
                                 reference_spectrum(trellis, d_max, event_cap))

    def test_path_cap_stops_a_runaway_search(self, trellis4, monkeypatch):
        # a small cap first, so a search without the check fails here
        # instead of running the unbounded case below
        with monkeypatch.context() as m:
            m.setattr(coding, "_MAX_SPECTRUM_PATHS", 100)
            with pytest.raises(ValueError, match="more than 100 paths"):
                distance_spectrum(trellis4, 12)
        # 5,7 has 2**(d-5) events at each distance d: far more than the cap
        with pytest.raises(ValueError, match="paths"):
            distance_spectrum(trellis4, 100_000)

    @pytest.mark.parametrize("generators", ["3,5", "1001,1001", "1777,1777"])
    def test_catastrophic_codes_are_rejected(self, generators):
        trellis = build_trellis(CodeSpec.from_octal(generators))
        with pytest.raises(ValueError, match="catastrophic"):
            distance_spectrum(trellis, free_distance(trellis) + 6)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 6), n=st.integers(2, 3), data=st.data())
    def test_zero_weight_loop_is_the_gcd_criterion(self, k, n, data):
        gens = tuple(data.draw(st.lists(st.integers(1, (1 << k) - 1),
                                        min_size=n, max_size=n)))
        trellis = build_trellis(CodeSpec(gens, k))
        w_branch = np.array([[bin(p).count("1") for p in row]
                             for row in trellis.out_pattern.tolist()])
        catastrophic = not non_catastrophic(gens, k)
        assert coding._has_zero_weight_loop(w_branch, trellis.next_state) \
            == catastrophic
        assert trellis.catastrophic == catastrophic
        np.testing.assert_array_equal(trellis.weight, w_branch)

    @pytest.mark.parametrize("generators", ["133,171", "561,753"])
    def test_path_cap_admits_depth_22(self, generators):
        trellis = build_trellis(CodeSpec.from_octal(generators))
        spectrum = distance_spectrum(trellis, 22)
        assert spectrum.distances()[-1] == 22

    def test_event_positions_are_consistent(self, trellis4):
        spectrum = distance_spectrum(trellis4, 9)
        for d in spectrum.distances():
            entry = spectrum.entries[d]
            assert len(entry.positions) == entry.event_count
            assert len(entry.input_weights) == entry.event_count
            assert sum(entry.input_weights) == entry.total_input_weight
            for pos in entry.positions:
                assert pos.size == d          # one index per differing bit
                assert pos[0] == 0            # events start at a difference
                assert np.all(np.diff(pos) > 0)

    def test_storage_cap_truncates_but_keeps_counts(self, trellis4):
        full = distance_spectrum(trellis4, 10)
        capped = distance_spectrum(trellis4, 10, event_cap=2)
        for d in full.distances():
            assert capped.multiplicity(d) == full.multiplicity(d)
            assert capped.input_weight(d) == full.input_weight(d)
            stored = len(capped.entries[d].positions)
            assert stored <= 2
            if full.multiplicity(d) > 2:
                assert capped.entries[d].storage_truncated

    def test_rejects_d_max_below_free_distance(self, trellis64):
        with pytest.raises(ValueError):
            distance_spectrum(trellis64, 9)

    def test_rejects_a_cap_that_stores_nothing(self, trellis4):
        # the union bound needs one stored event per distance
        with pytest.raises(ValueError, match="event_cap"):
            distance_spectrum(trellis4, 8, event_cap=0)
