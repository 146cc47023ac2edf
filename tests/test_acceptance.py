"""Acceptance suite: one test per release criterion, in order.

Each test prints a single ``criterion N: PASS/FAIL`` line with the
measured numbers (visible with ``pytest -v -s`` or on failure) and then
asserts.  Criteria 6 and 7 share one session-scoped run of all built-in
experiment presets at their shipped seeds and grids (``preset_curves``
in ``conftest.py``).

Known honest failures at desk scale are documented in the assertion
messages of criteria 4 and 7.
"""

import time

import numpy as np
import pytest
import scipy.stats

from bicmb.analysis import (
    diversity_gain,
    estimate_slope,
    gamma_fit,
    sample_theta,
    union_bound_ber,
)
from bicmb.channel import (
    ArrayGeometry,
    FadingProfile,
    draw_channel,
    draw_paths,
    subchannel_matrix,
)
from bicmb.coding import (
    CodeSpec,
    build_trellis,
    distance_spectrum,
    encode,
    free_distance,
    viterbi_decode,
)
from bicmb.harness import parse_config, preset, sweep


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# criteria 1-5: direct checks


def test_criterion_1_rank_limited_spectrum():
    """Exactly L_t = 8 modes above 1e-8 of the top one, at two array sizes."""
    profile = FadingProfile(np.full((2, 2), -20.0), 2)
    results = {}
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    for n_t, n_r in ((32, 16), (128, 64)):
        rx, tx = ArrayGeometry(n_r), ArrayGeometry(n_t)
        hits = 0
        for _ in range(100):
            sv = np.linalg.svd(draw_channel(profile, rx, tx, rng).h,
                               compute_uv=False)
            hits += int(np.count_nonzero(sv > 1e-8 * sv[0]) == 8)
        results[(n_t, n_r)] = hits
    elapsed = time.perf_counter() - t0
    ok = all(h >= 99 for h in results.values()) and elapsed < 10.0
    assert report(1, ok, f"rank-8 draws {results}, {elapsed:.1f} s"), \
        f"rank-limited spectrum: {results}, elapsed {elapsed:.1f} s"


def test_criterion_2_asymptotic_singular_values():
    """At 256x256 the per-path closed form predicts the top-3 modes."""
    rng = np.random.default_rng(2024)
    geom = ArrayGeometry(256)
    hits = 0
    for _ in range(100):
        ps = draw_paths(3, rng)
        sv = np.linalg.svd(subchannel_matrix(ps, geom, geom),
                           compute_uv=False)[:3]
        want = np.sort(np.sqrt(256 * 256 / 3) * np.abs(ps.gains))[::-1]
        if np.all(np.abs(sv - want) <= 0.05 * want):
            hits += 1
    ok = hits >= 90
    assert report(2, ok, f"{hits}/100 draws within 5%"), \
        f"asymptotic gains: only {hits}/100 draws within 5%"


def brute_force_min_codeword_weight(trellis, max_msg_bits):
    """Minimum terminated-codeword weight over all nonzero messages."""
    best = None
    for n_bits in range(1, max_msg_bits + 1):
        for value in range(1, 1 << n_bits):
            if not value & 1:
                continue  # leading zeros only shift the event
            msg = np.array([(value >> i) & 1 for i in range(n_bits)])
            w = int(encode(trellis, msg[None]).sum())
            best = w if best is None else min(best, w)
    return best


def test_criterion_3_code_constants():
    """Free distances and Viterbi = exhaustive ML, exactly."""
    t64 = build_trellis(CodeSpec.from_octal("133,171"))
    t4 = build_trellis(CodeSpec.from_octal("5,7"))
    ok_dfree = (free_distance(t64) == 10
                and free_distance(t4) == 5
                and brute_force_min_codeword_weight(t4, 8) == 5)

    # all 256 8-bit messages, encoded once
    msgs = ((np.arange(256)[:, None] >> np.arange(8)[None, ::-1]) & 1)
    codewords = np.stack([encode(t4, m[None]).reshape(-1, 2) for m in msgs])
    steps = codewords.shape[1]
    rng = np.random.default_rng(1003)
    mismatches = 0
    for _ in range(100):
        costs = rng.uniform(0.0, 1.0, (steps, 2, 2))
        path_costs = costs[np.arange(steps)[None, :, None],
                           np.arange(2)[None, None, :],
                           codewords].sum(axis=(1, 2))
        ml = msgs[np.argmin(path_costs)]
        vit = viterbi_decode(t4, costs[None])[0]
        mismatches += int(not np.array_equal(ml, vit))
    ok = ok_dfree and mismatches == 0
    assert report(3, ok, f"d_free ok={ok_dfree}, ML mismatches={mismatches}"), \
        f"code constants: d_free ok={ok_dfree}, mismatches={mismatches}"


def test_criterion_4_diversity_formula():
    """Homogeneous value exact; heterogeneous value pinned to 4.257."""
    homog = diversity_gain(FadingProfile(np.full((2, 2), -20.0), 2))
    hetero_profile = FadingProfile([[-20.0, -35.0], [-35.0, -20.0]], 2)
    direct = diversity_gain(hetero_profile)
    via_fit = gamma_fit(hetero_profile).shape
    two_ways = abs(direct - via_fit) < 1e-9
    near_four = abs(direct - 4.0) < 0.5
    pinned = abs(direct - 4.257) <= 0.001
    ok = homog == pytest.approx(8.0, abs=1e-12) and two_ways \
        and near_four and pinned
    report(4, ok, f"homogeneous={homog:.3f}, heterogeneous={direct:.9f} "
           f"(two ways agree: {two_ways})")
    assert homog == pytest.approx(8.0, abs=1e-12)
    assert two_ways and near_four
    # Known failure: both independent evaluations of the formula give
    # 4.252729483 for this profile; the pinned 4.257 +/- 0.001 matches a
    # variant that drops the off-diagonal terms from the denominator
    # (4.25698/1.0000 = 4.257).
    assert pinned, \
        (f"heterogeneous diversity is {direct:.9f} from both the direct "
         f"formula and the moment-matched shape; the pinned 4.257 +/- 0.001 "
         f"is not what the formula yields on this profile")


def test_criterion_5_gamma_moment_match():
    """1e5 draws of the normalized power statistic match the fitted law."""
    t0 = time.perf_counter()
    profile = FadingProfile(np.full((2, 2), -20.0), 2)
    fit = gamma_fit(profile)
    draws = sample_theta(profile, 100_000, np.random.default_rng(1005))
    mean_err = abs(draws.mean() - fit.mean) / fit.mean
    var_err = abs(draws.var() - fit.variance) / fit.variance
    ks = scipy.stats.kstest(
        draws, scipy.stats.gamma(a=fit.shape, scale=fit.scale).cdf).statistic
    elapsed = time.perf_counter() - t0
    ok = mean_err < 0.02 and var_err < 0.02 and ks < 0.02 and elapsed < 30.0
    assert report(5, ok, f"mean err {mean_err:.4f}, var err {var_err:.4f}, "
                  f"KS {ks:.4f}, {elapsed:.1f} s"), \
        (f"gamma fit: mean err {mean_err:.4f}, var err {var_err:.4f}, "
         f"KS {ks:.4f}, elapsed {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criteria 6-7: shared preset simulations


def test_criterion_6_bound_dominates_simulation(preset_curves):
    """Union bound >= simulated BER wherever the estimate is solid."""
    curves, _ = preset_curves
    p = preset("fig5_colocated_vs_distributed")
    worst = np.inf
    checked = 0
    for key, cfg in p.variants.items():
        curve = curves["fig5_colocated_vs_distributed"][key]
        spectrum = distance_spectrum(cfg.trellis,
                                     free_distance(cfg.trellis) + 6)
        rep = union_bound_ber(
            spectrum, cfg.bit_interleaver, gamma_fit(cfg.profile),
            cfg.constellation, n_t=cfg.n_t, l_t=cfg.l_t,
            snr_grid=10.0 ** (np.asarray(cfg.snr_grid_db) / 10.0))
        solid = curve.bit_errors >= 200
        checked += int(solid.sum())
        # statistical allowance on the Monte Carlo estimate
        floor = curve.ber[solid] * (1.0 - 1.96 / np.sqrt(curve.bit_errors[solid]))
        margins = rep.union_bound[solid] / floor
        worst = min(worst, margins.min())
    ok = checked > 0 and worst >= 1.0
    assert report(6, ok, f"{checked} solid points, worst bound/BER margin "
                  f"{worst:.2f}x"), \
        f"bound dominance: worst margin {worst:.3f} over {checked} points"


def test_criterion_7_slope_properties(preset_curves):
    """High-SNR slope relations across the four BER presets."""
    curves, elapsed = preset_curves
    slopes = {name: {key: c.diversity_estimate()
                     for key, c in variants.items()}
              for name, variants in curves.items()}

    # every preset curve must at least decay across its grid
    for variants in curves.values():
        for c in variants.values():
            assert c.ber[0] > c.ber[-1] > 0.0

    s4 = [slopes["fig4_streams"][k] for k in ("ns1", "ns2", "ns4")]
    spread = (max(s4) - min(s4)) / min(s4)
    ok_a = spread <= 0.20
    print(f"criterion 7a: {'PASS' if ok_a else 'FAIL'} - stream-count slopes "
          f"{[f'{s:.2f}' for s in s4]}, spread {spread:.0%} (limit 20%)")

    s3 = slopes["fig3_interleaver"]
    ok_b = s3["adversarial"] < s3["structured"] - 1.0
    print(f"criterion 7b: {'PASS' if ok_b else 'FAIL'} - adversarial "
          f"{s3['adversarial']:.2f} vs structured {s3['structured']:.2f}")

    s5 = slopes["fig5_colocated_vs_distributed"]
    ok_c = s5["distributed"] > s5["colocated"]
    print(f"criterion 7c: {'PASS' if ok_c else 'FAIL'} - distributed "
          f"{s5['distributed']:.2f} vs colocated {s5['colocated']:.2f}")

    s6 = slopes["fig6_fading"]
    rel12 = abs(s6["b1"] - s6["b2"]) / min(s6["b1"], s6["b2"])
    rel34 = abs(s6["b3"] - s6["b4"]) / min(s6["b3"], s6["b4"])
    ok_d = rel12 <= 0.20 and rel34 <= 0.25
    print(f"criterion 7d: {'PASS' if ok_d else 'FAIL'} - b1/b2 gap "
          f"{rel12:.0%} (limit 20%), b3/b4 gap {rel34:.0%} (limit 25%)")

    ok_time = elapsed < 1800.0
    ok = ok_a and ok_b and ok_c and ok_d and ok_time
    report(7, ok, f"a={ok_a} b={ok_b} c={ok_c} d={ok_d}, "
           f"simulations took {elapsed:.0f} s")
    assert ok_b and ok_c and ok_d and ok_time
    # Known failure: at 16 receive elements per subarray the three
    # stream-count curves do not share a slope.  With a single receive
    # subarray all six paths arrive at one small aperture, and angle
    # collisions collapse the weakest retained modes far more often than
    # independent fading would; four-stream frames then see near-zero
    # subchannels and the measured tail is shallower.  The effect fades
    # as the receive aperture grows and angles resolve more finely.
    assert ok_a, \
        (f"stream-count slope spread {spread:.0%} exceeds 20% "
         f"(slopes {[f'{s:.2f}' for s in s4]}); rank-collision tails at "
         f"the 16-element desk-scale receive aperture flatten the "
         f"four-stream curve")


# ---------------------------------------------------------------------------
# criterion 8: determinism


REDUCED_TEXT = """\
m_r = 2
m_t = 2
n_r = 8
n_t = 8
beta_db = -20
paths = 2
n_s = 2
modulation = bpsk
generators = 5,7
snr_db = 2,6
frame_bits = 256
min_errors = 50
max_frames = 1024
batch_frames = 64
master_seed = 77
"""


def test_criterion_8_worker_count_invariance(tmp_path):
    """Byte-identical sweep CSV for 1, 2, and 3 workers."""
    from dataclasses import replace
    base = parse_config(REDUCED_TEXT)
    blobs = []
    for w in (1, 2, 3):
        path = tmp_path / f"workers{w}.csv"
        sweep(replace(base, workers=w)).to_csv(path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert report(8, ok, f"{len(blobs[0])}-byte CSVs identical across "
                  f"workers 1/2/3"), "worker-count determinism violated"
