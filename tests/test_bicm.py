"""Constellation, interleaver, and bit-metric tests.

Metric values are checked against brute-force minimizations over
explicit label subsets; interleaver properties are checked directly on
the position tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmb.bicm import (
    adversarial_interleaver,
    bit_metrics,
    check_criteria,
    deinterleave_metrics,
    make_constellation,
    map_frame,
    random_interleaver,
    structured_interleaver,
)
from bicmb.errors import ConfigurationError


class TestConstellations:
    @pytest.mark.parametrize("name,m,dmin", [
        ("bpsk", 1, 2.0),
        ("qpsk", 2, np.sqrt(2.0)),
        ("16qam", 4, 2.0 / np.sqrt(10.0)),
    ])
    def test_size_energy_min_distance(self, name, m, dmin):
        c = make_constellation(name)
        assert c.bits_per_symbol == m
        assert c.size == 2 ** m
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0)
        assert c.min_distance == pytest.approx(dmin)

    def test_bpsk_polarity(self):
        c = make_constellation("bpsk")
        assert c.points[0] == pytest.approx(1.0)
        assert c.points[1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_gray_labeling(self, name):
        # nearest neighbours differ in exactly one label bit
        c = make_constellation(name)
        bits = c.label_bits()
        d = np.abs(c.points[:, None] - c.points[None, :])
        near = np.isclose(d, c.min_distance)
        for a, b in zip(*np.nonzero(near)):
            assert np.sum(bits[a] != bits[b]) == 1

    def test_subsets_partition_labels(self):
        c = make_constellation("16qam")
        sub = c.subsets()
        assert sub.shape == (4, 2, 8)
        bits = c.label_bits()
        for i in range(4):
            both = np.sort(np.concatenate([sub[i, 0], sub[i, 1]]))
            np.testing.assert_array_equal(both, np.arange(16))
            assert not bits[sub[i, 0], i].any()
            assert bits[sub[i, 1], i].all()

    def test_map_labels_and_case_insensitive_name(self):
        c = make_constellation("QPSK")
        np.testing.assert_array_equal(c.map_labels(np.array([2, 0])),
                                      c.points[[2, 0]])

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_constellation("8psk")


def assert_bijection(itl):
    np.testing.assert_array_equal(np.sort(itl.positions),
                                  np.arange(itl.n_coded))
    inv = itl.inverse()
    np.testing.assert_array_equal(inv[itl.positions], np.arange(itl.n_coded))


class TestStructuredInterleaver:
    def test_round_robin_and_criteria(self):
        itl = structured_interleaver(192, 4, 2, depth=8)
        assert_bijection(itl)
        k = np.arange(192)
        np.testing.assert_array_equal(itl.subchannels(), k % 4)
        report = check_criteria(itl)
        assert report.consecutive_ok and report.coverage_ok

    @pytest.mark.parametrize("n_s,m", [(1, 1), (1, 2), (2, 1), (4, 4)])
    def test_criteria_hold_across_shapes(self, n_s, m):
        itl = structured_interleaver(n_s * m * 8 * 3, n_s, m, depth=8)
        assert check_criteria(itl).ok

    def test_slot_decomposition_matches_accessors(self):
        itl = structured_interleaver(96, 2, 2, depth=4)
        slot = itl.positions
        np.testing.assert_array_equal(itl.bit_positions(), slot % 2)
        np.testing.assert_array_equal(itl.symbol_ids(), slot // 2)
        np.testing.assert_array_equal(itl.subchannels(), (slot // 2) % 2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            structured_interleaver(100, 4, 2, depth=8)  # not a period multiple
        with pytest.raises(ValueError):
            structured_interleaver(64, 4, 2, depth=0)
        with pytest.raises(ValueError):
            structured_interleaver(8, 1, 2, depth=1)  # neighbours would share symbols


class TestRandomInterleaver:
    def test_bijection_criteria_and_round_robin(self):
        rng = np.random.default_rng(99)
        itl = random_interleaver(240, 4, 2, rng)
        assert_bijection(itl)
        # subchannel assignment stays bit-cyclic; randomness is within-substream
        np.testing.assert_array_equal(itl.subchannels(), np.arange(240) % 4)
        assert check_criteria(itl).ok

    def test_deterministic_given_rng(self):
        a = random_interleaver(120, 2, 1, np.random.default_rng(5))
        b = random_interleaver(120, 2, 1, np.random.default_rng(5))
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_redraws_until_criteria_hold(self):
        # this seed's first draw puts consecutive bits in one symbol ...
        with pytest.raises(ConfigurationError):
            random_interleaver(16, 1, 2, np.random.default_rng(1), max_tries=1)
        # ... and a later draw passes
        itl = random_interleaver(16, 1, 2, np.random.default_rng(1), max_tries=50)
        assert check_criteria(itl).ok


class TestAdversarialInterleaver:
    def test_runs_and_criteria_failure(self):
        itl = adversarial_interleaver(120, 2, 1, run=5)
        assert_bijection(itl)
        k = np.arange(120)
        np.testing.assert_array_equal(itl.subchannels(), (k // 5) % 2)
        report = check_criteria(itl)
        assert report.consecutive_ok      # still one symbol per bit here
        assert not report.coverage_ok     # five-bit runs starve a subchannel
        assert not report.ok

    def test_wide_window_accepts_it(self):
        itl = adversarial_interleaver(120, 2, 1, run=5)
        assert check_criteria(itl, window=10).coverage_ok

    def test_window_below_substreams_is_rejected(self):
        itl = structured_interleaver(64, 4, 2, depth=2)
        report = check_criteria(itl, window=3)
        assert not report.ok

    def test_rejects_bad_run(self):
        with pytest.raises(ValueError):
            adversarial_interleaver(120, 2, 1, run=0)


class TestInterleaverProperties:
    @settings(max_examples=60, deadline=None)
    @given(n_s=st.integers(1, 6), m=st.sampled_from([1, 2, 4]),
           depth=st.integers(1, 8), blocks=st.integers(1, 4),
           run=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_bijection_and_criteria(self, n_s, m, depth, blocks, run, seed):
        if n_s == 1 and m > 1:
            depth = max(depth, 2)
        n_coded = n_s * m * depth * blocks
        structured = structured_interleaver(n_coded, n_s, m, depth=depth)
        rand = random_interleaver(n_coded, n_s, m, np.random.default_rng(seed),
                                  max_tries=1000)
        adversarial = adversarial_interleaver(n_s * m * run * blocks, n_s, m,
                                              run=run)
        for itl in (structured, rand, adversarial):
            assert_bijection(itl)
        assert check_criteria(structured).ok
        assert check_criteria(rand).ok
        if n_s > 1 and run >= n_s:
            assert not check_criteria(adversarial).coverage_ok


class TestMapFrame:
    def test_bpsk_single_stream_is_sign_map(self):
        itl = structured_interleaver(12, 1, 1, depth=2)
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1])
        sym = map_frame(bits, itl, make_constellation("bpsk"))
        assert sym.shape == (12, 1)
        flat = np.empty(12, dtype=int)
        flat[itl.positions] = bits
        np.testing.assert_allclose(sym[:, 0], 1.0 - 2.0 * flat)

    def test_shape_and_length_validation(self):
        itl = structured_interleaver(64, 2, 2, depth=2)
        c = make_constellation("qpsk")
        with pytest.raises(ValueError):
            map_frame(np.zeros(63, dtype=int), itl, c)
        with pytest.raises(ValueError):
            map_frame(np.zeros(64, dtype=int), itl, make_constellation("16qam"))
        with pytest.raises(ValueError):
            map_frame(np.zeros((1, 2, 64), dtype=int), itl, c)

    @pytest.mark.parametrize("name,n_s", [("qpsk", 2), ("16qam", 3)])
    def test_noiseless_round_trip(self, name, n_s):
        c = make_constellation(name)
        itl = structured_interleaver(n_s * c.bits_per_symbol * 8 * 2, n_s,
                                     c.bits_per_symbol, depth=8)
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, itl.n_coded)
        x = map_frame(bits, itl, c)
        gains = rng.uniform(0.5, 2.0, n_s)
        y = gains[None, :] * x
        metrics = bit_metrics(y, gains, c)
        costs = deinterleave_metrics(metrics, itl)
        np.testing.assert_array_equal(np.argmin(costs, axis=1), bits)
        # the transmitted bit has exactly zero metric without noise
        np.testing.assert_allclose(costs[np.arange(itl.n_coded), bits], 0.0,
                                   atol=1e-12)


class TestBitMetrics:
    def test_matches_brute_force_16qam(self):
        c = make_constellation("16qam")
        rng = np.random.default_rng(303)
        y = rng.normal(size=(2, 6, 3)) + 1j * rng.normal(size=(2, 6, 3))
        gains = rng.uniform(0.2, 1.5, (2, 3))
        got = bit_metrics(y, gains, c)
        assert got.shape == (2, 6, 3, 4, 2)
        bits = c.label_bits()
        for f in range(2):
            for t in range(6):
                for s in range(3):
                    d2 = np.abs(y[f, t, s] - gains[f, s] * c.points) ** 2
                    for i in range(4):
                        for b in (0, 1):
                            want = d2[bits[:, i] == b].min()
                            assert got[f, t, s, i, b] == pytest.approx(want)

    def test_shape_validation(self):
        c = make_constellation("bpsk")
        with pytest.raises(ValueError):
            bit_metrics(np.zeros(8, dtype=complex), np.ones(1), c)
        with pytest.raises(ValueError):
            bit_metrics(np.zeros((8, 2), dtype=complex), np.ones(3), c)
        with pytest.raises(ValueError):
            bit_metrics(np.zeros((2, 8, 2), dtype=complex), np.ones((3, 2)), c)

    def test_deinterleave_orders_by_coded_index(self):
        itl = structured_interleaver(48, 2, 2, depth=2)
        # sentinel metrics: value encodes the flat slot
        flat = np.arange(96, dtype=float).reshape(12, 2, 2, 2)
        out = deinterleave_metrics(flat, itl)
        np.testing.assert_array_equal(out[:, 0], 2.0 * itl.positions)
        np.testing.assert_array_equal(out[:, 1], 2.0 * itl.positions + 1.0)


class TestBatchedStages:
    @pytest.mark.parametrize("name,n_s", [("bpsk", 3), ("qpsk", 2), ("16qam", 3)])
    def test_batch_equals_per_frame(self, name, n_s):
        c = make_constellation(name)
        m = c.bits_per_symbol
        itl = random_interleaver(n_s * m * 24, n_s, m, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        frames = 6
        bits = rng.integers(0, 2, (frames, itl.n_coded))
        gains = rng.uniform(0.2, 2.0, (frames, n_s))
        x = map_frame(bits, itl, c)
        assert x.shape == (frames, itl.n_symbols, n_s)
        y = gains[:, None, :] * x + rng.normal(size=x.shape) \
            + 1j * rng.normal(size=x.shape)
        metrics = bit_metrics(y, gains, c)
        costs = deinterleave_metrics(metrics, itl)
        assert costs.shape == (frames, itl.n_coded, 2)
        for f in range(frames):
            assert map_frame(bits[f], itl, c).tobytes() == x[f].tobytes()
            single = bit_metrics(y[f], gains[f], c)
            assert single.tobytes() == metrics[f].tobytes()
            assert deinterleave_metrics(single, itl).tobytes() == \
                costs[f].tobytes()

    def test_deinterleave_drops_trailing_pad_bits(self):
        itl = structured_interleaver(48, 2, 2, depth=2)
        metrics = np.random.default_rng(8).normal(size=(3, 12, 2, 2, 2))
        full = deinterleave_metrics(metrics, itl)
        np.testing.assert_array_equal(
            deinterleave_metrics(metrics, itl, n_bits=41), full[:, :41])
