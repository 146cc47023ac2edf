"""Diversity-analysis tests.

Closed-form values are checked on profiles small enough to evaluate by
hand; distributional claims use large seeded Monte Carlo draws; the
union bound is cross-checked against an independent reimplementation.
"""

import warnings

import numpy as np
import pytest
import scipy.stats

from bicmb import coding
from bicmb.analysis import (
    _sequence_period,
    diversity_gain,
    estimate_slope,
    event_usage_counts,
    gamma_fit,
    pep_bound,
    sample_theta,
    union_bound_ber,
)
from bicmb.bicm import (
    Interleaver,
    adversarial_interleaver,
    make_constellation,
    random_interleaver,
    structured_interleaver,
)
from bicmb.channel import FadingProfile
from bicmb.coding import CodeSpec, build_trellis, distance_spectrum
from bicmb.errors import ConfigurationError


class TestDiversityGain:
    def test_homogeneous_is_pair_count_times_paths(self):
        for m_r, m_t, l in [(1, 1, 4), (2, 2, 2), (2, 3, 5)]:
            p = FadingProfile(np.full((m_r, m_t), -20.0), l)
            assert diversity_gain(p) == pytest.approx(m_r * m_t * l)

    def test_hand_computed_heterogeneous_cases(self):
        # single active pair: (1)^2 / (1/3) = 3
        p = FadingProfile([[0.0, -np.inf]], [[3, 2]])
        assert diversity_gain(p) == pytest.approx(3.0)
        # two equal pairs, one path each: 4 / 2 = 2
        p = FadingProfile([[0.0, 0.0]], [[1, 1]])
        assert diversity_gain(p) == pytest.approx(2.0)
        # unequal powers: (1 + 1/2)^2 / (1 + 1/8) = 2
        p = FadingProfile(10 * np.log10([[1.0, 0.5]]), [[1, 2]])
        assert diversity_gain(p) == pytest.approx(2.0)

    def test_scale_invariance(self):
        beta_db = np.array([[-1.0, -13.0], [-5.2, 1.5]])
        paths = np.array([[2, 1], [3, 2]])
        d1 = diversity_gain(FadingProfile(beta_db, paths))
        d2 = diversity_gain(FadingProfile(beta_db + 12.3, paths))
        assert d1 == pytest.approx(d2)

    def test_bounded_by_total_paths(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            beta_db = rng.uniform(-20.0, 3.0, (2, 2))
            paths = rng.integers(1, 5, (2, 2))
            p = FadingProfile(beta_db, paths)
            assert diversity_gain(p) <= p.total_paths + 1e-9

    def test_all_zero_power_rejected(self):
        with pytest.raises(ConfigurationError, match="no power"):
            FadingProfile(np.full((1, 2), -np.inf), 1)


class TestGammaFit:
    def test_moments_match_profile(self):
        p = FadingProfile(10 * np.log10([[1.0, 0.25]]), [[2, 3]])
        fit = gamma_fit(p)
        assert fit.mean == pytest.approx(1.25)
        assert fit.variance == pytest.approx(1.0 / 2 + 0.0625 / 3)

    def test_shape_equals_diversity_gain(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = FadingProfile(rng.uniform(-20.0, 3.0, (2, 2)),
                              rng.integers(1, 5, (2, 2)))
            assert gamma_fit(p).shape == pytest.approx(diversity_gain(p))


class TestSampleTheta:
    def test_matches_fit_moments(self):
        p = FadingProfile(10 * np.log10([[1.0, 0.2], [0.05, 0.7]]),
                          [[2, 1], [3, 2]])
        draws = sample_theta(p, 100_000, np.random.default_rng(19))
        fit = gamma_fit(p)
        assert draws.mean() == pytest.approx(fit.mean, rel=0.02)
        assert draws.var() == pytest.approx(fit.variance, rel=0.05)

    def test_single_pair_is_exactly_gamma(self):
        # one pair with L paths: the statistic is Gamma(L, beta/L) exactly
        p = FadingProfile([[-3.0]], 4)
        draws = sample_theta(p, 50_000, np.random.default_rng(23))
        fit = gamma_fit(p)
        stat = scipy.stats.kstest(
            draws, scipy.stats.gamma(a=fit.shape, scale=fit.scale).cdf).statistic
        assert stat < 0.01


class TestPepBound:
    def setup_method(self):
        self.fit = gamma_fit(FadingProfile(np.full((2, 2), -20.0), 2))

    def test_never_exceeds_half_and_decreases(self):
        snr = np.logspace(-2, 6, 30)
        exact, _ = pep_bound(self.fit, 2.0, 1, 2, 16, 8, snr)
        assert np.all(exact <= 0.5)
        assert np.all(np.diff(exact) < 0)
        low, _ = pep_bound(self.fit, 2.0, 1, 2, 16, 8, 1e-12)
        assert low == pytest.approx(0.5)

    def test_high_snr_form_is_power_law_of_shape(self):
        exact, high = pep_bound(self.fit, 2.0, 1, 2, 16, 8,
                                np.array([1e5, 1e6, 1e7]))
        ratio = high[:-1] / high[1:]
        np.testing.assert_allclose(ratio, 10.0 ** self.fit.shape, rtol=1e-9)
        gap = np.abs(exact / high - 1.0)
        assert np.all(np.diff(gap) < 0)   # converging from below
        assert gap[-1] < 1e-4

    def test_coefficient_is_linear_in_each_factor(self):
        snr = np.array([10.0])
        _, base = pep_bound(self.fit, 2.0, 1, 2, 16, 8, snr)
        _, nt2 = pep_bound(self.fit, 2.0, 1, 2, 32, 8, snr)
        _, alpha2 = pep_bound(self.fit, 2.0, 2, 2, 16, 8, snr)
        _, lt2 = pep_bound(self.fit, 2.0, 1, 2, 16, 16, snr)
        k = self.fit.shape
        assert nt2 == pytest.approx(base / 2.0 ** k)
        assert alpha2 == pytest.approx(base / 2.0 ** k)
        assert lt2 == pytest.approx(base * 2.0 ** k)


def usage(subs, n_s, pos):
    """alpha_min of one event: a batch of one at the detected period, as
    the union bound calls it."""
    return int(event_usage_counts(subs, n_s, np.asarray(pos)[None],
                                  _sequence_period(subs))[0])


class TestEventUsageCounts:
    def test_round_robin_two_streams(self):
        subs = np.arange(8) % 2
        assert usage(subs, 2, [0, 1, 2]) == 1

    def test_even_positions_miss_a_stream(self):
        subs = np.arange(8) % 2
        # both bits land on one subchannel at every offset
        assert usage(subs, 2, [0, 2]) == 2

    def test_single_stream(self):
        assert usage(np.zeros(6, dtype=int), 1, [0, 3]) == 2

    def test_explicit_period_matches_detected(self):
        subs = np.arange(12) % 3
        pos = np.array([0, 1, 4])
        assert usage(subs, 3, pos) == \
            event_usage_counts(subs, 3, pos[None], period=3)[0]

    def test_worst_offset_is_found(self):
        # pattern 0,0,1,1 with positions (0,1): odd offsets touch both
        # streams once (alpha 1), even offsets use a single stream twice
        # (alpha 2), so the scan reports alpha 1
        subs = np.tile([0, 0, 1, 1], 3)
        assert usage(subs, 2, [0, 1]) == 1

    def test_stack_equals_row_by_row_calls(self):
        rng = np.random.default_rng(5)
        subs = rng.integers(0, 3, 60)
        pos = np.sort(rng.choice(40, size=(20, 6)), axis=-1)
        period = _sequence_period(subs)
        alpha = event_usage_counts(subs, 3, pos, period)
        assert alpha.shape == (20,)
        for e in range(20):
            assert alpha[e] == \
                event_usage_counts(subs, 3, pos[e:e + 1], period)[0]

    def test_matches_a_scan_of_every_offset(self):
        # all n offsets, one 3-D compare: no period, bincount or tiling
        rng = np.random.default_rng(6)
        subs = rng.integers(0, 3, 48)
        for _ in range(20):
            pos = np.unique(rng.integers(0, 70, 7))
            smat = subs[(np.arange(48)[:, None] + pos[None, :]) % 48]
            counts = (smat[:, :, None] == np.arange(3)).sum(axis=1)
            want = int(np.where(counts > 0, counts, 10 ** 9).min())
            assert usage(subs, 3, pos) == want


@pytest.fixture(scope="module")
def bound_inputs():
    trellis = build_trellis(CodeSpec.from_octal("5,7"))
    spectrum = distance_spectrum(trellis, 8)
    itl = structured_interleaver(256, 2, 1, depth=8)
    fit = gamma_fit(FadingProfile(np.full((2, 2), -20.0), 2))
    return spectrum, itl, fit, make_constellation("bpsk")


class TestUnionBound:
    def test_report_fields_and_monotonicity(self, bound_inputs):
        spectrum, itl, fit, c = bound_inputs
        snr = np.logspace(0, 4, 9)
        rep = union_bound_ber(spectrum, itl, fit, c, n_t=16, l_t=8,
                              snr_grid=snr)
        assert rep.coverage_ok
        assert rep.diversity == pytest.approx(fit.shape)
        assert rep.alpha_min_leading >= 1
        assert np.all(np.diff(rep.union_bound) < 0)
        assert np.all(rep.union_bound >= rep.pep * 0)

    def test_matches_independent_summation(self, bound_inputs):
        spectrum, itl, fit, c = bound_inputs
        snr = np.array([100.0, 1000.0])
        rep = union_bound_ber(spectrum, itl, fit, c, n_t=16, l_t=8,
                              snr_grid=snr)
        subs = itl.subchannels()
        want = np.zeros_like(snr)
        for d in spectrum.distances():
            entry = spectrum.entries[d]
            for pos, w in zip(entry.positions, entry.input_weights):
                alpha = usage(subs, 2, pos)
                exact, _ = pep_bound(fit, c.min_distance, alpha, 2, 16, 8, snr)
                want += w * exact
        np.testing.assert_allclose(rep.union_bound, want, rtol=1e-12)

    def test_leading_event_dominates_at_high_snr(self, bound_inputs):
        spectrum, itl, fit, c = bound_inputs
        rep = union_bound_ber(spectrum, itl, fit, c, n_t=16, l_t=8,
                              snr_grid=np.array([1e8]))
        # at extreme SNR the full sum approaches (input weight at d_free) x pep
        lead_weight = spectrum.input_weight(spectrum.d_free)
        assert rep.union_bound[0] == pytest.approx(lead_weight * rep.pep[0],
                                                   rel=0.05)

    def test_coverage_failure_voids_the_bound(self, bound_inputs):
        spectrum, _, fit, c = bound_inputs
        bad = adversarial_interleaver(240, 2, 1, run=spectrum.d_free)
        rep = union_bound_ber(spectrum, bad, fit, c, n_t=16, l_t=8,
                              snr_grid=np.array([10.0]))
        assert not rep.coverage_ok
        assert np.isinf(rep.union_bound).all()
        assert rep.alpha_min_leading == 0

    def test_snr_grid_validation(self, bound_inputs):
        spectrum, itl, fit, c = bound_inputs
        for bad in (np.array([]), np.array([1.0, -2.0]), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                union_bound_ber(spectrum, itl, fit, c, n_t=16, l_t=8,
                                snr_grid=bad)


def block_shuffled_interleaver(n_coded, rng):
    """Three substreams, each block of three bits on a fresh permutation
    of them: coverage holds at window 5 and the subchannel sequence has
    no short period."""
    perms = np.array([rng.permutation(3) for _ in range(n_coded // 3)])
    positions = (3 * np.arange(n_coded // 3)[:, None] + perms).reshape(-1)
    return Interleaver("random", 3, 1, positions)


def per_event_union_bound(spectrum, itl, fit, c, n_t, l_t, snr):
    """The union bound from one event_usage_counts call per event, each
    a batch of one: exact input weights per alpha, summed in ascending
    alpha."""
    subs = itl.subchannels()
    n_s = itl.n_substreams
    weight_at_alpha = {}
    leading = None
    for d in spectrum.distances():
        entry = spectrum.entries[d]
        worst = None
        for pos, w in zip(entry.positions, entry.input_weights.tolist()):
            alpha = usage(subs, n_s, pos)
            weight_at_alpha[alpha] = weight_at_alpha.get(alpha, 0) + w
            worst = alpha if worst is None else min(worst, alpha)
        if d == spectrum.d_free:
            leading = worst
        rest = entry.total_input_weight - sum(entry.input_weights.tolist())
        if rest:
            weight_at_alpha[worst] += rest
    union = np.zeros_like(snr)
    for alpha, weight in sorted(weight_at_alpha.items()):
        exact, _ = pep_bound(fit, c.min_distance, alpha, n_s, n_t, l_t, snr)
        union += weight * exact
    pep, high = pep_bound(fit, c.min_distance, leading, n_s, n_t, l_t, snr)
    return union, pep, high, leading


class TestUnionBoundEqualsPerEventLoop:
    @pytest.mark.parametrize("kind", ["structured", "random", "shuffled"])
    @pytest.mark.parametrize("event_cap", [10_000, 3])
    def test_bytewise(self, kind, event_cap, monkeypatch):
        trellis = build_trellis(CodeSpec.from_octal("5,7"))
        monkeypatch.setattr(coding, "EVENT_STORAGE_CAP", event_cap)
        spectrum = distance_spectrum(trellis, 11)
        rng = np.random.default_rng(11)
        itl = {"structured": lambda: structured_interleaver(240, 3, 1),
               "random": lambda: random_interleaver(240, 3, 1, rng),
               "shuffled": lambda: block_shuffled_interleaver(240, rng)}[kind]()
        fit = gamma_fit(FadingProfile(np.full((2, 2), -20.0), 2))
        c = make_constellation("bpsk")
        snr = np.logspace(-1, 5, 13)
        rep = union_bound_ber(spectrum, itl, fit, c, n_t=16, l_t=8,
                              snr_grid=snr)
        union, pep, high, leading = per_event_union_bound(
            spectrum, itl, fit, c, 16, 8, snr)
        assert rep.coverage_ok
        assert any(e.event_count > len(e.positions)
                   for e in spectrum.entries.values()) == (event_cap == 3)
        assert rep.alpha_min_leading == leading
        assert rep.union_bound.tobytes() == union.tobytes()
        assert rep.pep.tobytes() == pep.tobytes()
        assert rep.pep_high_snr.tobytes() == high.tobytes()


class TestEstimateSlope:
    def test_recovers_pure_power_law(self):
        snr_db = np.arange(0.0, 16.0, 2.0)
        ber = 0.3 * 10.0 ** (-3.0 * snr_db / 10.0)
        assert estimate_slope(snr_db, ber) == pytest.approx(3.0)

    def test_window_selects_the_tail(self):
        snr_db = np.arange(0.0, 20.0, 2.0)
        # slope 1 early, slope 5 over the last four points
        ber = np.where(snr_db < 12.0,
                       10.0 ** (-snr_db / 10.0),
                       10.0 ** (-1.2 - 5.0 * (snr_db - 12.0) / 10.0))
        assert estimate_slope(snr_db, ber, window=4) == pytest.approx(5.0)

    def test_zero_points_dropped_with_warning(self):
        snr_db = np.array([0.0, 2.0, 4.0, 6.0])
        ber = np.array([1e-2, 1e-3, 0.0, 1e-5])
        with pytest.warns(UserWarning, match="zero-BER"):
            slope = estimate_slope(snr_db, ber)
        want = -10.0 * np.polyfit([0.0, 2.0, 6.0],
                                  np.log10([1e-2, 1e-3, 1e-5]), 1)[0]
        assert slope == pytest.approx(want)

    def test_too_few_usable_points(self):
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimate_slope(np.array([0.0, 2.0, 4.0]),
                           np.array([1e-2, 0.0, 0.0]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_slope(np.arange(4.0), np.ones(5))
        with pytest.raises(ValueError):
            estimate_slope(np.arange(4.0), np.ones(4), window=1)
