"""SVD beamforming tests: the singular values the link uses, the
channel's rank, and the large-array gain prediction."""

import numpy as np
import pytest

from bicmb.beamforming import predicted_gains, singular_values
from bicmb.channel import (ArrayGeometry, FadingProfile, draw_channel,
                           draw_channels)
from bicmb.errors import NumericalError


@pytest.fixture()
def channel():
    profile = FadingProfile.homogeneous(2, 2, -10.0, 2)
    rx, tx = ArrayGeometry(8), ArrayGeometry(8)
    return draw_channel(profile, rx, tx, np.random.default_rng(314), seed=314)


class TestSingularValues:
    def test_matches_plain_svd_values(self, channel):
        s = singular_values(channel)
        np.testing.assert_array_equal(
            s, np.linalg.svd(channel.h, compute_uv=False))
        assert np.all(np.diff(s) <= 0.0)
        assert np.all(s >= 0.0)

    def test_accepts_plain_matrix(self):
        h = np.array([[3.0, 0.0], [0.0, 1.0]], dtype=complex)
        np.testing.assert_allclose(singular_values(h), [3.0, 1.0])

    def test_svd_failure_carries_seed(self, monkeypatch, channel):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError, match="seed=314"):
            singular_values(channel)


class TestNumericalRank:
    def test_channel_rank_is_total_paths(self, channel):
        # 4 subarray pairs x 2 paths: every other mode is at roundoff level
        s = singular_values(channel)
        assert np.count_nonzero(s > 1e-8 * s[0]) == 8


class TestPredictedGains:
    def test_formula_on_known_blocks(self):
        profile = FadingProfile(np.array([[0.5, 2.0]]), np.array([[2, 1]]))
        rx, tx = ArrayGeometry(4), ArrayGeometry(8)
        ch = draw_channel(profile, rx, tx, np.random.default_rng(6))
        pred = predicted_gains(ch)
        want = []
        for j in range(2):
            ps = ch.blocks[0][j]
            want.extend(np.sqrt(profile.beta[0, j] * 32 / ps.n_paths)
                        * np.abs(ps.gains))
        np.testing.assert_allclose(pred, np.sort(want)[::-1])
        assert np.all(np.diff(pred) <= 0.0)

    def test_batch_rows_equal_single_draws(self):
        profile = FadingProfile(np.array([[0.5, 0.0], [2.0, 1.0]]),
                                np.array([[2, 1], [3, 1]]))
        rx, tx = ArrayGeometry(4), ArrayGeometry(8)
        batch = draw_channels(profile, rx, tx,
                              [np.random.default_rng(s) for s in range(5)])
        pred = predicted_gains(batch)
        assert pred.shape == (5, 7)
        for b in range(5):
            single = draw_channel(profile, rx, tx, np.random.default_rng(b))
            assert pred[b].tobytes() == predicted_gains(single).tobytes()

    def test_large_arrays_approach_prediction(self):
        # steering vectors decorrelate as the arrays grow, so measured
        # singular values converge on the per-path prediction
        profile = FadingProfile.homogeneous(1, 1, 0.0, 4)
        rng = np.random.default_rng(21)
        errs = []
        for n in (8, 256):
            ch = draw_channel(profile, ArrayGeometry(n), ArrayGeometry(n), rng)
            sv = singular_values(ch)[:4]
            pred = predicted_gains(ch)
            errs.append(np.max(np.abs(sv - pred) / pred.max()))
        assert errs[1] < 0.05
        assert errs[1] < errs[0]
