"""SVD beamforming tests: the singular values the link uses, the
channel's rank, the large-array gain prediction, and the sweep's
singular values from the path factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmb import beamforming
from bicmb.beamforming import (_path_singular_values, _ula_gram,
                               predicted_gains, singular_values)
from bicmb.channel import (ArrayGeometry, FadingProfile, PathSet,
                           draw_channel, draw_channels, draw_path_sets,
                           subchannel_matrix, ula_response)
from bicmb.errors import NumericalError


@pytest.fixture()
def channel():
    profile = FadingProfile.homogeneous(2, 2, -10.0, 2)
    rx, tx = ArrayGeometry(8), ArrayGeometry(8)
    return draw_channel(profile, rx, tx, np.random.default_rng(314))


class TestSingularValues:
    def test_matches_plain_svd_values(self, channel):
        s = singular_values(channel.h)
        np.testing.assert_array_equal(
            s, np.linalg.svd(channel.h, compute_uv=False))
        assert np.all(np.diff(s) <= 0.0)
        assert np.all(s >= 0.0)

    def test_accepts_plain_matrix(self):
        h = np.array([[3.0, 0.0], [0.0, 1.0]], dtype=complex)
        np.testing.assert_allclose(singular_values(h), [3.0, 1.0])

    def test_svd_failure_names_the_failing_matrix(self, monkeypatch):
        stack = np.random.default_rng(3).standard_normal((5, 4, 3))
        real_svd = np.linalg.svd
        fail_alone = [2, 4]
        calls = []

        def flaky_svd(a, *args, **kwargs):
            # a stack fails, and so do the matrices listed in fail_alone
            calls.append(a.shape)
            if a.ndim == 3 or any(np.array_equal(a, stack[k])
                                  for k in fail_alone):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        with pytest.raises(NumericalError, match="matrix 2") as info:
            singular_values(stack)
        assert info.value.index == 2 and info.value.seed is None
        assert calls == [(5, 4, 3)] + [(4, 3)] * 3
        with pytest.raises(NumericalError) as info:
            singular_values(stack[2])
        assert info.value.index is None
        # when every matrix converges alone, their values are returned
        fail_alone.clear()
        assert singular_values(stack).tobytes() == np.stack(
            [real_svd(m, compute_uv=False) for m in stack]).tobytes()


class TestNumericalRank:
    def test_channel_rank_is_total_paths(self, channel):
        # 4 subarray pairs x 2 paths: every other mode is at roundoff level
        s = singular_values(channel.h)
        assert np.count_nonzero(s > 1e-8 * s[0]) == 8


class TestPredictedGains:
    def test_formula_on_known_blocks(self):
        profile = FadingProfile(np.array([[0.5, 2.0]]), np.array([[2, 1]]))
        rx, tx = ArrayGeometry(4), ArrayGeometry(8)
        ch = draw_channel(profile, rx, tx, np.random.default_rng(6))
        pred = predicted_gains(profile, ch.blocks, rx, tx)
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
        pred = predicted_gains(profile, batch.blocks, rx, tx)
        assert pred.shape == (5, 7)
        for b in range(5):
            single = draw_channel(profile, rx, tx, np.random.default_rng(b))
            assert pred[b].tobytes() == predicted_gains(
                profile, single.blocks, rx, tx).tobytes()

    def test_large_arrays_approach_prediction(self):
        # steering vectors decorrelate as the arrays grow, so measured
        # singular values converge on the per-path prediction
        profile = FadingProfile.homogeneous(1, 1, 0.0, 4)
        rng = np.random.default_rng(21)
        errs = []
        for n in (8, 256):
            rx = tx = ArrayGeometry(n)
            ch = draw_channel(profile, rx, tx, rng)
            sv = singular_values(ch.h)[:4]
            pred = predicted_gains(profile, ch.blocks, rx, tx)
            errs.append(np.max(np.abs(sv - pred) / pred.max()))
        assert errs[1] < 0.05
        assert errs[1] < errs[0]


def _assembled(profile, blocks, rx, tx):
    """The composite matrices of batched path sets, built block by block
    from the public pair-matrix function."""
    batch = blocks[0][0].gains.shape[0]
    n_r, n_t = rx.n_elements, tx.n_elements
    h = np.zeros((batch, profile.m_r * n_r, profile.m_t * n_t), complex)
    for i, row in enumerate(blocks):
        for j, ps in enumerate(row):
            for b in range(batch):
                one = PathSet(ps.gains[b], ps.aoa[b], ps.aod[b])
                h[b, i * n_r:(i + 1) * n_r, j * n_t:(j + 1) * n_t] = \
                    np.sqrt(profile.beta[i, j]) * subchannel_matrix(one, rx, tx)
    return h


@st.composite
def path_draws(draw):
    """Random profiles with zero-power blocks, single-element arrays,
    more paths than elements, and optionally exactly colliding angles."""
    m_r, m_t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_r, n_t = draw(st.integers(1, 19)), draw(st.integers(1, 19))
    paths = draw(st.lists(st.integers(1, 5), min_size=m_r * m_t,
                          max_size=m_r * m_t))
    beta = draw(st.lists(st.sampled_from([0.0, 0.003, 0.1, 1.0, 7.0]),
                         min_size=m_r * m_t, max_size=m_r * m_t))
    beta[draw(st.integers(0, m_r * m_t - 1))] = 1.0
    profile = FadingProfile(np.reshape(beta, (m_r, m_t)),
                            np.reshape(paths, (m_r, m_t)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    blocks = draw_path_sets(profile, [np.random.default_rng([seed, b])
                                      for b in range(3)])
    if draw(st.booleans()):
        # every path of every block leaves and arrives at one azimuth
        for row in blocks:
            for ps in row:
                ps.aoa[:] = blocks[0][0].aoa[:, :1]
                ps.aod[:] = blocks[0][0].aod[:, :1]
    return profile, blocks, ArrayGeometry(n_r), ArrayGeometry(n_t)


class TestPathFactors:
    @settings(max_examples=200, deadline=None)
    @given(path_draws())
    def test_equal_the_full_svd(self, drawn):
        profile, blocks, rx, tx = drawn
        full = singular_values(_assembled(profile, blocks, rx, tx))
        k = min(profile.total_paths, full.shape[1])
        fac = _path_singular_values(profile, blocks, rx, tx, k)
        top = full[:, :1]
        assert np.all(np.abs(fac - full[:, :k]) <= 1e-12 * top)
        assert np.all(full[:, k:] <= 1e-12 * top)

    def test_streams_beyond_the_paths_are_exact_zeros(self):
        profile = FadingProfile.from_db([[-20.0, -26.0]], [[1, 2]])
        rx, tx = ArrayGeometry(8), ArrayGeometry(4)
        rngs = [np.random.default_rng(s) for s in range(5)]
        blocks = draw_path_sets(profile, rngs)
        fac = _path_singular_values(profile, blocks, rx, tx, 6)
        assert fac.shape == (5, 6)
        assert np.all(fac[:, :3] > 0.0)
        assert not fac[:, 3:].any()

    def test_large_arrays_reach_the_prediction(self):
        # the paper's N -> infinity result on a heterogeneous 2 x 2 grid:
        # steering vectors decorrelate and each path's gain becomes one
        # singular value
        profile = FadingProfile.from_db([[-20.0, -35.0], [-35.0, -20.0]], 2)
        medians = []
        for n in (8, 64, 512):
            rx = tx = ArrayGeometry(n)
            blocks = draw_path_sets(
                profile, [np.random.default_rng([n, b]) for b in range(200)])
            fac = _path_singular_values(profile, blocks, rx, tx,
                                        profile.total_paths)
            pred = predicted_gains(profile, blocks, rx, tx)
            medians.append(np.median(np.max(np.abs(fac - pred) / pred,
                                             axis=1)))
        assert medians[0] > medians[1] > medians[2]
        assert medians[2] < 5e-3


def _alias_azimuths(spacing):
    """Azimuth pairs whose phase difference x is 0, an alias 2 pi k, or
    within 1e-13 to 1e-4 of one, and a few generic ones."""
    phi = [0.0, 0.0, 0.3, 0.3 + 1e-13, np.pi / 2, -np.pi / 2,
           np.pi / 2 - 1e-9, -np.pi / 2 + 1e-6, 1.0, -0.7]
    for k in range(1, int(2 * spacing) + 1):
        # sin(phi_q) - sin(phi_p) = k / spacing is an alias of x = 0
        s = k / spacing - 1.0
        base = np.arcsin(s)
        phi += [-np.pi / 2, base, base + 1e-12, base - 1e-4]
    return np.array(phi)


class TestSteeringGram:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33])
    @pytest.mark.parametrize("spacing", [0.5, 1.0, 1.5, 2.3])
    def test_equals_the_direct_inner_product(self, n, spacing):
        geometry = ArrayGeometry(n, spacing)
        phi = _alias_azimuths(spacing)
        a = ula_response(phi, geometry)
        direct = a.conj().T @ a
        group = np.zeros(phi.size, dtype=int)
        gram = _ula_gram(np.stack([phi, phi[::-1]]), group, geometry)
        assert np.all(np.isfinite(gram))
        assert np.max(np.abs(gram[0] - direct)) <= 1e-13
        assert np.max(np.abs(gram[1] - direct[::-1, ::-1])) <= 1e-13

    def test_columns_of_different_groups_are_orthogonal(self):
        geometry = ArrayGeometry(8)
        phi = np.array([[0.1, 0.1, 0.5, -0.4]])
        group = np.array([0, 1, 1, 0])
        gram = _ula_gram(phi, group, geometry)[0]
        a = ula_response(phi[0], geometry)
        same = group[:, None] == group[None, :]
        assert not gram[~same].any()
        assert np.max(np.abs(gram[same] - (a.conj().T @ a)[same])) <= 1e-13


def _collided(profile, frames, seed=5):
    """Path sets of ``frames`` draws where draws 1 and 3 send two paths
    of the first pair along one azimuth."""
    blocks = draw_path_sets(profile, [np.random.default_rng([seed, b])
                                      for b in range(frames)])
    ps = blocks[0][0]
    ps.aoa[[1, 3], 1] = ps.aoa[[1, 3], 0]
    ps.aod[[1, 3], 1] = ps.aod[[1, 3], 0]
    return blocks


class TestPivotFallback:
    profile = FadingProfile.from_db([[-20.0, -26.0], [-23.0, -20.0]], 2)
    rx, tx = ArrayGeometry(16), ArrayGeometry(8)

    def test_flagged_frames_take_the_qr_values(self, monkeypatch):
        blocks = _collided(self.profile, 6)
        fac = _path_singular_values(self.profile, blocks, self.rx, self.tx, 8)
        # a pivot floor above every pivot sends every frame to the QR path
        monkeypatch.setattr(beamforming, "_MIN_PIVOT2", np.inf)
        qr = _path_singular_values(self.profile, blocks, self.rx, self.tx, 8)
        assert fac[[1, 3]].tobytes() == qr[[1, 3]].tobytes()
        # a colliding pair leaves one zero mode
        assert np.all(fac[[1, 3], 7] <= 1e-12 * fac[[1, 3], 0])
        assert np.all(np.abs(fac - qr) <= 1e-12 * qr[:, :1])

    def test_unflagged_frames_build_no_steering_vectors(self, monkeypatch):
        # 2 x 4096-element arrays: U alone would take 1 MiB per frame
        rx = tx = ArrayGeometry(4096)
        blocks = draw_path_sets(self.profile, [np.random.default_rng([9, b])
                                               for b in range(4)])

        def forbidden(*args, **kwargs):
            raise AssertionError("the gain stage built steering vectors")

        with monkeypatch.context() as patch:
            patch.setattr(beamforming, "ula_response", forbidden)
            fac = _path_singular_values(self.profile, blocks, rx, tx, 8)
        monkeypatch.setattr(beamforming, "_MIN_PIVOT2", np.inf)
        qr = _path_singular_values(self.profile, blocks, rx, tx, 8)
        assert np.all(np.abs(fac - qr) <= 1e-12 * qr[:, :1])

    def test_svd_failure_names_the_original_frame(self, monkeypatch):
        # frames 1 and 3 are redone on the QR path; the core stack stays
        # in frame order, so the sweep can name frame 3's seed
        blocks = _collided(self.profile, 6)
        real_svd = np.linalg.svd
        single_calls = []

        def flaky_svd(a, *args, **kwargs):
            if a.ndim == 2:
                single_calls.append(a)
            if a.ndim == 3 or len(single_calls) == 4:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        with pytest.raises(NumericalError) as info:
            _path_singular_values(self.profile, blocks, self.rx, self.tx, 8)
        assert info.value.index == 3
