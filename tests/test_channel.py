"""Sparse multipath channel tests.

Deterministic structure (steering phases, block layout, rank bounds) is
checked exactly; moment properties use large seeded draws with
tolerances a few standard errors wide.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicmb.channel import (
    ArrayGeometry,
    FadingProfile,
    PathSet,
    db_to_linear,
    draw_channel,
    draw_channels,
    draw_path_sets,
    draw_paths,
    subchannel_matrix,
    ula_response,
)
from bicmb.errors import ConfigurationError


class TestDecibels:
    def test_known_values(self):
        assert db_to_linear(-20.0) == pytest.approx(0.01)
        assert db_to_linear(0.0) == pytest.approx(1.0)


class TestArrayGeometry:
    def test_defaults(self):
        g = ArrayGeometry(16)
        assert g.n_elements == 16
        assert g.spacing_over_lambda == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)
        with pytest.raises(ValueError):
            ArrayGeometry(4, spacing_over_lambda=0.0)


class TestSteeringVectors:
    def test_unit_norm_scalar_and_batch(self):
        g = ArrayGeometry(8)
        a = ula_response(0.3, g)
        assert a.shape == (8,)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        batch = ula_response(np.array([-0.5, 0.0, 0.9]), g)
        assert batch.shape == (8, 3)
        np.testing.assert_allclose(np.linalg.norm(batch, axis=0), 1.0)
        stack = ula_response(np.array([[-0.5, 0.0, 0.9], [0.1, 0.2, 0.3]]), g)
        assert stack.shape == (2, 8, 3)
        np.testing.assert_array_equal(stack[0], batch)

    def test_broadside_is_constant_phase(self):
        g = ArrayGeometry(5)
        np.testing.assert_allclose(ula_response(0.0, g),
                                   np.full(5, 1.0 / np.sqrt(5.0)))

    def test_linear_phase_progression(self):
        g = ArrayGeometry(6, spacing_over_lambda=0.5)
        phi = 0.7
        a = ula_response(phi, g)
        step = np.exp(2j * np.pi * 0.5 * np.sin(phi))
        np.testing.assert_allclose(a[1:] / a[:-1], step)

    def test_distinct_angles_are_linearly_independent(self):
        g = ArrayGeometry(4)
        batch = ula_response(np.array([-0.8, -0.1, 0.4, 1.0]), g)
        assert np.linalg.matrix_rank(batch) == 4


class TestPathSets:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathSet(np.zeros(2, complex), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            PathSet(np.zeros(0, complex), np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError):
            draw_paths(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_paths(2, np.random.default_rng(0), angle_range=(1.0, 1.0))
        # a span past the float range has no uniform azimuths
        for span in [(-np.inf, 0.0), (-1e308, 1e308)]:
            with pytest.raises(ValueError, match="finite"):
                draw_paths(2, np.random.default_rng(0), angle_range=span)

    def test_gain_moments_and_angle_support(self):
        rng = np.random.default_rng(7)
        ps = draw_paths(20_000, rng, angle_range=(-1.2, 0.4))
        power = np.mean(np.abs(ps.gains) ** 2)
        assert power == pytest.approx(1.0, abs=0.03)
        assert abs(np.mean(ps.gains)) < 0.02
        for ang in (ps.aoa, ps.aod):
            assert ang.min() >= -1.2 and ang.max() <= 0.4

    def test_draw_order_contract(self):
        # gains first, then arrival azimuths, then departure azimuths
        ps = draw_paths(3, np.random.default_rng(123))
        rng = np.random.default_rng(123)
        g = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2.0)
        aoa = rng.uniform(-np.pi / 2, np.pi / 2, 3)
        aod = rng.uniform(-np.pi / 2, np.pi / 2, 3)
        np.testing.assert_array_equal(ps.gains, g)
        np.testing.assert_array_equal(ps.aoa, aoa)
        np.testing.assert_array_equal(ps.aod, aod)

    @settings(max_examples=100, deadline=None)
    @given(l=st.integers(1, 6), lo=st.floats(-1e3, 1e3),
           hi=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_azimuths_equal_uniform_draws(self, l, lo, hi, seed):
        # the azimuths are mapped from unit uniforms with the formula of
        # Generator.uniform; a platform where the two differ fails here
        assume(lo < hi)
        rng = np.random.default_rng(seed)
        ps = draw_paths(l, rng, angle_range=(lo, hi))
        ref = np.random.default_rng(seed)
        ref.standard_normal(2 * l)
        angles = ref.uniform(lo, hi, 2 * l)
        assert ps.aoa.tobytes() == angles[:l].tobytes()
        assert ps.aod.tobytes() == angles[l:].tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSubchannelMatrix:
    def test_rank_bounded_by_path_count(self):
        rng = np.random.default_rng(5)
        rx, tx = ArrayGeometry(8), ArrayGeometry(8)
        h = subchannel_matrix(draw_paths(3, rng), rx, tx)
        sv = np.linalg.svd(h, compute_uv=False)
        assert np.all(sv[3:] < 1e-10 * sv[0])
        assert np.all(sv[:3] > 1e-6 * sv[0])

    def test_two_path_matrix_built_by_hand(self):
        rx, tx = ArrayGeometry(3), ArrayGeometry(2)
        ps = PathSet(np.array([1.0 + 0j, 0.5j]), np.array([0.2, -0.4]),
                     np.array([0.9, 0.1]))
        want = np.zeros((3, 2), dtype=complex)
        for p in range(2):
            ar = ula_response(ps.aoa[p], rx)
            at = ula_response(ps.aod[p], tx)
            want += ps.gains[p] * np.outer(ar, at.conj())
        want *= np.sqrt(3 * 2 / 2)
        np.testing.assert_allclose(subchannel_matrix(ps, rx, tx), want)

    def test_mean_frobenius_energy_is_antenna_product(self):
        rng = np.random.default_rng(42)
        rx, tx = ArrayGeometry(4), ArrayGeometry(8)
        energy = [np.linalg.norm(subchannel_matrix(draw_paths(3, rng), rx, tx)) ** 2
                  for _ in range(10_000)]
        assert np.mean(energy) == pytest.approx(32.0, rel=0.02)


class TestFadingProfile:
    def test_homogeneous(self):
        p = FadingProfile(np.full((2, 3), -20.0), 4)
        assert p.m_r == 2 and p.m_t == 3
        np.testing.assert_allclose(p.beta, 0.01)
        assert p.total_paths == 24

    def test_path_total_is_exact(self):
        # four pairs of 4e18 paths sum past the int64 range
        p = FadingProfile(np.full((2, 2), -20.0), np.full((2, 2), 4 * 10**18))
        assert p.total_paths == 16 * 10**18

    def test_broadcasts_scalar_paths(self):
        p = FadingProfile([[0.0, -10.0, -np.inf]], 2)
        np.testing.assert_allclose(p.beta, [[1.0, 0.1, 0.0]])
        assert p.beta[0, 0] == 1.0 and p.beta[0, 2] == 0.0
        np.testing.assert_array_equal(p.paths, [[2, 2, 2]])

    def test_keeps_the_decibels_it_was_built_from(self):
        p = FadingProfile([[2.3, -20.0000001]], 2)
        assert p.beta_db.tolist() == [[2.3, -20.0000001]]
        assert FadingProfile(np.full((1, 2), -7.5), 1).beta_db.tolist() \
            == [[-7.5, -7.5]]

    def test_validation(self):
        for beta_db, paths in [
                (np.zeros((2, 2)), np.ones((2, 3), dtype=int)),
                (np.zeros((1, 1)), np.zeros((1, 1), dtype=int)),
                ([[0.0, 0.0]], [[1], [2]]),
                # no power in any pair
                (np.full((2, 2), -np.inf), 1),
                # outside the range rule: finite within +-1000 dB or -inf
                ([[0.0, np.nan]], 1),
                ([[0.0, np.inf]], 1),
                ([[1000.0001]], 1),
                ([[-1000.0001, 0.0]], 1)]:
            with pytest.raises(ConfigurationError):
                FadingProfile(beta_db, paths)


class TestCompositeChannel:
    def test_block_layout_and_scaling(self):
        profile = FadingProfile([[0.0, -6.0], [-np.inf, 6.0]],
                                [[1, 2], [1, 3]])
        rx, tx = ArrayGeometry(3), ArrayGeometry(4)
        ch = draw_channel(profile, rx, tx, np.random.default_rng(9))
        assert ch.h.shape == (6, 8)
        # pairs are drawn row-major, each with draw_paths
        rng = np.random.default_rng(9)
        rows, cols = profile.path_pairs
        for i in range(2):
            for j in range(2):
                ps = ch.paths[(rows == i) & (cols == j)]
                assert ps.n_paths == profile.paths[i, j]
                want_ps = draw_paths(int(profile.paths[i, j]), rng)
                np.testing.assert_array_equal(ps.gains, want_ps.gains)
                np.testing.assert_array_equal(ps.aoa, want_ps.aoa)
                np.testing.assert_array_equal(ps.aod, want_ps.aod)
                got = ch.h[3 * i:3 * i + 3, 4 * j:4 * j + 4]
                want = np.sqrt(profile.beta[i, j]) * \
                    subchannel_matrix(ps, rx, tx)
                np.testing.assert_allclose(got, want)
        # the beta = 0 block is exactly zero
        assert not ch.h[3:6, 0:4].any()

    def test_draw_channel_shape_rank_and_determinism(self):
        profile = FadingProfile(np.full((2, 2), -10.0), 2)
        rx, tx = ArrayGeometry(8), ArrayGeometry(16)
        ch = draw_channel(profile, rx, tx, np.random.default_rng(77))
        assert ch.h.shape == (16, 32)
        rows, cols = profile.path_pairs
        assert [ch.paths[(rows == i) & (cols == j)].gains.shape
                for i, j in np.ndindex(2, 2)] == [(2,)] * 4
        sv = np.linalg.svd(ch.h, compute_uv=False)
        l_t = profile.total_paths
        assert np.all(sv[l_t:] < 1e-10 * sv[0])
        again = draw_channel(profile, rx, tx, np.random.default_rng(77))
        np.testing.assert_array_equal(ch.h, again.h)

    def test_batched_draw_equals_stacked_draw_channel(self):
        # a zero-power block and a different path count in every block
        profile = FadingProfile([[0.0, -np.inf], [-6.0, 6.0]],
                                [[1, 2], [3, 4]])
        rx, tx = ArrayGeometry(3), ArrayGeometry(5, spacing_over_lambda=0.4)
        angles = (-1.0, 1.2)
        stacked = np.stack([
            draw_channel(profile, rx, tx, np.random.default_rng(s), angles).h
            for s in range(6)])
        batch = draw_channels(profile, rx, tx,
                              [np.random.default_rng(s) for s in range(6)],
                              angles)
        assert batch.h.shape == (6, 6, 10)
        assert batch.h.tobytes() == stacked.tobytes()
        assert not batch.h[:, 0:3, 5:10].any()
        rows, cols = profile.path_pairs
        pair = batch.paths[:, (rows == 1) & (cols == 1)]
        assert pair.gains.shape == (6, 4)
        assert pair.n_paths == 4
        with pytest.raises(ValueError):
            draw_channels(profile, rx, tx, [np.random.default_rng(0)],
                          (1.0, 1.0))

    def test_path_draw_equals_a_per_frame_draw_paths_loop(self):
        profile = FadingProfile([[0.0, -np.inf], [-6.0, 6.0]],
                                [[1, 2], [3, 4]])
        angles = (-1.0, 1.2)
        rx, tx = ArrayGeometry(3), ArrayGeometry(5, spacing_over_lambda=0.4)
        rngs_a = [np.random.default_rng(s) for s in range(4)]
        rngs_b = [np.random.default_rng(s) for s in range(4)]
        paths = draw_path_sets(profile, rngs_a, angles)
        assert paths.gains.shape == (4, 10)
        # frame by frame, then pair by pair in row-major order
        want = [[draw_paths(int(l), rng, angles) for row in profile.paths
                 for l in row] for rng in rngs_b]
        rows, cols = profile.path_pairs
        assert rows.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        assert cols.tolist() == [0, 1, 1, 0, 0, 0, 1, 1, 1, 1]
        for k, (i, j) in enumerate(np.ndindex(profile.paths.shape)):
            ps = paths[:, (rows == i) & (cols == j)]
            assert ps.gains.shape == (4, profile.paths[i, j])
            # a batched path set gives the stack of per-draw matrices
            stack = subchannel_matrix(ps, rx, tx)
            assert stack.shape == (4, 3, 5)
            for b in range(4):
                assert ps.gains[b].tobytes() == want[b][k].gains.tobytes()
                assert ps.aoa[b].tobytes() == want[b][k].aoa.tobytes()
                assert ps.aod[b].tobytes() == want[b][k].aod.tobytes()
                assert stack[b].tobytes() == \
                    subchannel_matrix(want[b][k], rx, tx).tobytes()
        # each generator is left where the per-frame loop leaves it
        for a, b in zip(rngs_a, rngs_b):
            assert a.bit_generator.state == b.bit_generator.state

    def test_mean_composite_energy_tracks_fading_sum(self):
        profile = FadingProfile([[0.0, -3.0], [-10.0, 0.0]], 2)
        rx = tx = ArrayGeometry(4)
        rng = np.random.default_rng(11)
        energy = [np.linalg.norm(draw_channel(profile, rx, tx, rng).h) ** 2
                  for _ in range(2_000)]
        want = 16.0 * profile.beta.sum()
        assert np.mean(energy) == pytest.approx(want, rel=0.03)
