"""Config parsing, hashing, the link a config builds, the Monte Carlo sweep
machinery, spectrum statistics, and the experiment presets.

Sweep tests run deliberately tiny configs (small arrays, short frames)
so the whole file stays fast while still exercising the real chain.
"""

import pickle
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicmb import bicm, channel, harness
from bicmb.analysis import diversity_gain, gamma_fit
from bicmb.beamforming import predicted_gains, singular_values
from bicmb.channel import ArrayGeometry, FadingProfile, draw_channel
from bicmb.coding import free_distance, viterbi_decode
from bicmb.errors import ConfigurationError, NumericalError
from bicmb.harness import (
    BerCurve,
    SimConfig,
    build_runtime,
    load_config,
    parse_config,
    preset,
    preset_names,
    spectrum_stats,
    sweep,
)

BASE_TEXT = """\
# smallest useful link
m_r = 1
m_t = 1
n_r = 4
n_t = 4
beta_db = -20
paths = 2
n_s = 1
modulation = bpsk
generators = 5,7
snr_db = 0,4,8
frame_bits = 128
min_errors = 20
max_frames = 64
batch_frames = 8
master_seed = 7
"""


def tiny_config(**overrides) -> SimConfig:
    cfg = parse_config(BASE_TEXT)
    return replace(cfg, **overrides) if overrides else cfg


# Parse-only fuzz alphabet: (valid, invalid) tokens per key.  Valid
# tokens combine into a valid text: frames of 64 bits or more hold any
# interleaver period of at most 4 streams of 16QAM and a depth or run of
# at most 8, and K = 7 or 8 fits every generator set.  The one exception
# is an adversarial interleaver with ``adversarial_run`` left out, whose
# run is the code's free distance: at 10 for 133,171, 4 streams of 16QAM
# have a period of 160 code bits, above a 64-bit frame's 140 or 142.
# m_r, m_t and n_s are drawn to fit the matrices and arrays, so only
# their invalid tokens are listed.  Each invalid token fails alone in
# ``BASE_TEXT`` (``adversarial_run`` with the adversarial interleaver).
_BAD_INTS = ("-1", "2.5", "x", "")
_HUGE_INTS = ("9" * 30, "1" + "0" * 400)
_INT_TOKENS = (("1", "2", "3", "4", "8", "16"), ("0",) + _BAD_INTS)
_FUZZ_TOKENS = {
    "m_r": ((), ("0", "-2", "2.5", "x")),
    "m_t": ((), ("0", "-2", "2.5", "x")),
    "n_r": (_INT_TOKENS[0], _INT_TOKENS[1] + _HUGE_INTS),
    "n_t": (_INT_TOKENS[0], _INT_TOKENS[1] + _HUGE_INTS),
    "n_s": ((), ("0", "-1", "33", "2.5", "x")),
    "paths": (("1", "2", "3"),
              ("0", "-1", "2.5", "1e308", "nan", "1; 2", "x")),
    "beta_db": (("-20", "0", "-30"),
                ("1e18", "-1e18", "inf", "-inf", "nan", "-20 -30; -10", "x")),
    "frame_bits": (("64", "128"), _INT_TOKENS[1] + _HUGE_INTS),
    "depth": (("2", "4", "8"), _INT_TOKENS[1] + _HUGE_INTS),
    "adversarial_run": (("1", "3", "8"), _BAD_INTS + _HUGE_INTS),
    "master_seed": (_INT_TOKENS[0], _BAD_INTS),
    "constraint_length": (("7", "8"), ("1", "2", "40", "x")),
    "spacing": (("0.5", "1"), ("0", "-1", "nan", "inf", "1e308", "x")),
    "angle_min_deg": (("-90", "-60", "0"), ("nan", "-inf", "1e308", "90", "x")),
    "angle_max_deg": (("60", "90"), ("nan", "inf", "-1e308", "-90", "x")),
    "modulation": (("bpsk", "qpsk", "16QAM"), ("256qam", "")),
    "interleaver": (("structured", "random", "adversarial"), ("fancy", "")),
    "generators": (("5,7", "133,171", "25,33,37", "3,5"),
                   ("9,7", "7", "7777777777777,5", "xyz", "")),
    "snr_db": (("0,4,8", "0:2:6", "0"),
               ("8,4,0", "0:-2:8", "0:1:1e12", "-1e308:1:1e308", "0:1:inf",
                "nan", "x", "")),
    "label": (("tiny", "a = b", ""), ("..", ".", "a/b", "/abs", "a\\b",
                                      "a\nb", "a\tb", "\x7f")),
}


def _invalid_tokens(key):
    return _FUZZ_TOKENS.get(key, _INT_TOKENS)[1]


_JUNK_LINES = ("bogus_key = 1", "m_r 1", "# comment", "", "m_r = 2")


@st.composite
def config_texts(draw):
    """Config text over the known keys from a bounded token alphabet.

    m_r and m_t are drawn first, and the matrices, arrays and n_s are
    built to fit them, as in ``small_link_texts``.  A text then takes at
    most one fault: a bad value, a dropped required key or a junk line.
    The fault-free choice is first in its list, so hypothesis's minimal
    draw is a valid text rather than a broken one.
    """
    m_r, m_t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    keys = set(harness._REQUIRED)
    keys |= draw(st.sets(st.sampled_from(sorted(harness._KEYS)), max_size=8))
    fault = draw(st.sampled_from((None, None, "value", "key", "line")))
    bad = draw(st.sampled_from(sorted(
        harness._REQUIRED if fault == "key"
        else {key for key in keys if _invalid_tokens(key)})))
    if fault == "key":
        keys.discard(bad)

    def token(key):
        return draw(st.sampled_from(_FUZZ_TOKENS.get(key, _INT_TOKENS)[0]))

    def matrix(key):
        if draw(st.booleans()):
            return token(key)
        return "; ".join(" ".join(token(key) for _ in range(m_t))
                         for _ in range(m_r))

    values = {"m_r": m_r, "m_t": m_t, "beta_db": matrix("beta_db"),
              "paths": matrix("paths"),
              "n_r": token("n_r"), "n_t": token("n_t")}
    values["n_s"] = draw(st.integers(
        1, min(4, m_r * int(values["n_r"]), m_t * int(values["n_t"]))))
    lines = []
    for key in sorted(keys):
        if fault == "value" and key == bad:
            value = draw(st.sampled_from(_invalid_tokens(key)))
        elif key in values:
            value = values[key]
        else:
            value = token(key)
        lines.append(f"{key} = {value}")
    if fault == "line":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_JUNK_LINES)))
    return "\n".join(lines) + "\n"


# Run fuzz alphabet: values each key accepts alone, sizes kept small
# (n_r, n_t <= 16, frame_bits <= 64), and azimuth bounds at and past
# +-90 degrees.  Optional keys are left out at random.
_RUN_TOKENS = {
    "n_r": ("1", "2", "3", "16"),
    "n_t": ("1", "2", "3", "16"),
    "n_s": ("1", "2", "3", "8"),
    "modulation": ("bpsk", "qpsk", "16QAM"),
    "generators": ("5,7", "133,171", "25,33,37", "3,5"),
    "snr_db": ("0,4,8", "0:2:6", "-10", "30"),
    "frame_bits": ("1", "7", "64"),
    "interleaver": ("structured", "random", "adversarial"),
    "depth": ("1", "2", "8"),
    "adversarial_run": ("1", "3", "16"),
    "spacing": ("0.1", "0.5", "2.3"),
    "angle_min_deg": ("-90", "-60", "0", "-90.5"),
    "angle_max_deg": ("90", "60", "1", "400"),
    "rf_chains_per_stream": ("1", "2"),
    "master_seed": ("0", "7"),
}


@st.composite
def small_link_texts(draw):
    """Config text of a small link from ``_RUN_TOKENS``, so mostly rules
    across keys reject a text; path counts up to 17 fill subarrays of 1
    to 16 elements past their size."""
    m_r, m_t = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def matrix(tokens):
        return "; ".join(" ".join(draw(st.sampled_from(tokens))
                                  for _ in range(m_t)) for _ in range(m_r))

    lines = [f"m_r = {m_r}", f"m_t = {m_t}",
             f"beta_db = {matrix(('-20', '0', '-300'))}",
             f"paths = {matrix(('1', '2', '5', '17'))}"]
    for key, tokens in _RUN_TOKENS.items():
        if key in harness._REQUIRED or draw(st.booleans()):
            lines.append(f"{key} = {draw(st.sampled_from(tokens))}")
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_values_and_defaults(self):
        cfg = parse_config(BASE_TEXT)
        assert (cfg.m_r, cfg.m_t, cfg.n_r, cfg.n_t) == (1, 1, 4, 4)
        np.testing.assert_allclose(cfg.profile.beta, 0.01)
        np.testing.assert_array_equal(cfg.profile.paths, [[2]])
        assert cfg.snr_grid_db == (0.0, 4.0, 8.0)
        assert cfg.code.generators == (0o5, 0o7)
        # defaults
        assert cfg.interleaver == "structured"
        assert cfg.depth == 8
        assert cfg.workers == 1
        assert cfg.min_errors == 20
        assert cfg.spacing == 0.5
        assert cfg.angle_range_deg == (-90.0, 90.0)
        assert cfg.rf_chains_per_stream == 2

    def test_matrix_values_and_snr_range_syntax(self):
        text = BASE_TEXT.replace("m_t = 1", "m_t = 2")
        text = text.replace("beta_db = -20", "beta_db = -20 -30")
        text = text.replace("paths = 2", "paths = 2 3")
        text = text.replace("snr_db = 0,4,8", "snr_db = 0:2:6")
        cfg = parse_config(text)
        np.testing.assert_allclose(cfg.profile.beta, [[0.01, 0.001]])
        np.testing.assert_array_equal(cfg.profile.paths, [[2, 3]])
        assert cfg.snr_grid_db == (0.0, 2.0, 4.0, 6.0)
        assert cfg.l_t == 5

    @pytest.mark.parametrize("mutation,needle", [
        ("m_r = 1\nm_r = 2", "duplicate"),
        ("bogus_key = 3", "unknown key"),
        ("m_r 1", "key = value"),
        ("frame_bits = many", "integer"),
        ("snr_db = 8,4,0", "increasing"),
        ("snr_db = 0:-2:8", "step"),
        ("beta_db = -20 -30; -10", "ragged"),
        ("modulation = 256qam", "modulation"),
        ("interleaver = fancy", "interleaver"),
        ("n_s = 9", "exceed"),
        ("generators = 9,7", "octal"),
        ("snr_db = nan", "finite"),
        ("snr_db = 2,inf", "finite"),
        ("snr_db = nan:1:5", "finite"),
        ("snr_db = 0:1:inf", "finite"),
        ("beta_db = inf", "finite"),
        ("beta_db = nan", "finite"),
        ("spacing = nan", "spacing"),
        ("spacing = inf", "spacing"),
        ("spacing = 0", "spacing"),
        ("spacing = 1e308", "too large"),
        ("angle_min_deg = -inf", "finite"),
        ("angle_max_deg = nan", "finite"),
        ("angle_min_deg = -90.000001", "-90, 90"),
        ("angle_max_deg = 91", "-90, 90"),
        ("angle_min_deg = 100\nangle_max_deg = 120", "-90, 90"),
        ("angle_min_deg = -1000\nangle_max_deg = -95", "-90, 90"),
        ("modulation = 16qam\ndepth = 1", "depth"),
        ("master_seed = -1", "master_seed"),
        ("beta_db = -inf", "no power"),
        ("paths = 2.5", "whole numbers"),
        ("workers = 65", "workers"),
        ("constraint_length = 40", "constraint length"),
        ("generators = 3777777777777,2777777777777", "constraint length"),
        ("frame_bits = 100000000", "frame_bits"),
        ("m_r = -2", "m_r"),
        ("m_t = -2", "m_t"),
        ("snr_db = 0:1:1e12", "more than"),
        ("snr_db = 0:1e-300:1", "more than"),
        ("snr_db = -1e308:1:1e308", "more than"),
        ("n_t = 1" + "0" * 400, "too large"),
        ("depth = 100000", "depth"),
        ("interleaver = adversarial\nadversarial_run = 100000",
         "adversarial_run"),
        ("beta_db = 1e18", "finite"),
        # beta**2 overflows in the Gamma fit past about +-1541 dB, and a
        # finite value past about -3240 dB underflows to zero power
        ("beta_db = 2000", "1000 dB"),
        ("beta_db = -2000", "1000 dB"),
        ("m_t = 2\nbeta_db = -20 -4000", "1000 dB"),
        ("paths = 1e308", "64-bit"),
        ("m_r = 1000", "too large"),
        ("n_r = 10000000", "too large"),
        ("rf_chains_per_stream = -1", "rf_chains_per_stream"),
        ("snr_db = 8:2:0", "snr_db grid is empty"),
        ("adversarial_run = -1", "adversarial_run cannot be negative"),
        ("angle_min_deg = 10\nangle_max_deg = 10", "empty azimuth range"),
        ("snr_db = 4000", "snr_db"),
        ("snr_db = -4000", "snr_db"),
        ("generators = 3,5", "catastrophic"),
        # a label names an output file inside the CLI's --out
        ("label = ../escaped", "label"),
        ("label = /abs/path", "label"),
        ("label = a\\b", "label"),
        ("label = a\0b", "label"),
        ("label = .", "label"),
        ("label = ..", "label"),
        # all 100 draws of this random interleaver fail the criteria
        ("interleaver = random\nmodulation = 16qam\nframe_bits = 8\n"
         "master_seed = 13", "no valid random interleaver"),
    ])
    def test_rejects_malformed_input(self, mutation, needle):
        keys = {ln.split()[0] for ln in mutation.splitlines()}
        lines = [ln for ln in BASE_TEXT.splitlines()
                 if not ln or ln.split()[0] not in keys]
        text = "\n".join(lines) + "\n" + mutation + "\n"
        with pytest.raises(ConfigurationError, match=needle):
            parse_config(text)

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\tb", "\x7f",
                                       "a\x00b", "\u2028"])
    def test_label_with_a_control_character_is_rejected(self, label):
        # the CSV writes the label on one comment line above its header
        with pytest.raises(ConfigurationError, match="label"):
            tiny_config(label=label)

    @pytest.mark.parametrize("key,token", [
        (key, token) for key in harness._KEYS for token in _invalid_tokens(key)
    ], ids=lambda v: v[:12])
    def test_each_invalid_fuzz_token_fails_alone(self, key, token):
        lines = [ln for ln in BASE_TEXT.splitlines()
                 if not ln.startswith(key + " ")]
        if key == "adversarial_run":
            lines.append("interleaver = adversarial")
        with pytest.raises(ConfigurationError):
            parse_config("\n".join(lines + [f"{key} = {token}"]) + "\n")

    def test_path_total_does_not_wrap(self):
        # four pairs of 4e18 paths sum past the int64 range
        text = (BASE_TEXT.replace("m_r = 1", "m_r = 2")
                .replace("m_t = 1", "m_t = 2")
                .replace("paths = 2", "paths = 4000000000000000000"))
        with pytest.raises(ConfigurationError, match="too large"):
            parse_config(text)

    def test_stream_count_is_bounded_by_the_channel_dimensions(self):
        # a 2 x 1 grid of 4-element subarrays is an 8 x 4 channel
        wide = dict(m_r=2, profile=FadingProfile(np.full((2, 1), -20.0), 2))
        assert tiny_config(n_s=4, **wide).n_s == 4
        with pytest.raises(ConfigurationError, match="n_s"):
            tiny_config(n_s=5, **wide)

    def test_largest_spacing_with_finite_phases_is_accepted(self):
        # just inside the bound 2 pi * spacing * max(n_r, n_t) < inf
        spacing = np.nextafter(np.finfo(float).max / (8 * np.pi), 0.0)
        cfg = tiny_config(spacing=float(spacing))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            harness._simulate_frames(cfg, 0, range(4))
        with pytest.raises(ConfigurationError, match="too large"):
            tiny_config(spacing=float(spacing) * 2)

    def test_extreme_snrs_run_with_finite_values(self):
        # n_t 10^(-snr/10) and the squared distances stay finite at both
        # ends, and noise of variance 4e-100 never flips a bit
        top = harness._MAX_SNR_DB
        for snr, most in ((-top, 256), (top, 0)):
            cfg = tiny_config(snr_grid_db=(snr,))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert harness._simulate_frames(cfg, 0, range(2)) <= most
        with pytest.raises(ConfigurationError, match="snr_db"):
            tiny_config(snr_grid_db=(np.nextafter(top, np.inf),))

    def test_extreme_betas_run_with_finite_values(self):
        # beta**2 in the Gamma fit, and the frames' gains, metrics and
        # decoder costs, stay finite at both ends of +-1000 dB
        top = channel._MAX_BETA_DB
        for beta_db in (-top, top):
            profile = FadingProfile([[beta_db]], 2)
            cfg = tiny_config(profile=profile)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = gamma_fit(profile)
                assert np.isfinite(
                    [fit.shape, fit.scale, diversity_gain(profile)]).all()
                harness._simulate_frames(cfg, 0, range(4))
        past = np.nextafter(top, np.inf)
        for beta_db in (past, -past):
            with pytest.raises(ConfigurationError, match="1000 dB"):
                FadingProfile([[beta_db]], 2)
        # a pair at -inf dB has no power, and another pair may carry it
        profile = FadingProfile([[-np.inf, top]], 2)
        assert profile.beta.tolist() == [[0.0, 1e100]]

    @pytest.mark.parametrize("field", ["n_r", "n_t"])
    def test_oversized_arrays_are_rejected_without_the_parser(self, field):
        # the budget check, not a float overflow, rejects an N past 2**19
        with pytest.raises(ConfigurationError, match="arrays are too large"):
            tiny_config(**{field: 10 ** 400})

    def test_worker_count_is_bounded(self):
        assert tiny_config(workers=harness._MAX_WORKERS).workers == 64
        with pytest.raises(ConfigurationError, match="workers"):
            tiny_config(workers=harness._MAX_WORKERS + 1)
        with pytest.raises(ConfigurationError, match="workers"):
            preset("fig3_interleaver", workers=100_000)

    def test_frame_bits_are_bounded_by_the_sub_batch_budget(self):
        # 64 states, rate 1/2, two paths: one frame takes 40 bytes per
        # step (32 of costs, 8 of packed survivors) of its frame_bits + 6
        # steps, and 11,136 more: 64 steps of bit and pattern costs and
        # decisions (128 bytes a step), 40 bytes per state of one step's
        # buffers and six 2 x 2 complex matrices.  The largest frame
        # leaves the budget less than one step's 40 bytes.
        text = BASE_TEXT.replace("generators = 5,7", "generators = 133,171")
        largest = (harness._SUBBATCH_BYTES - 64 * 128 - 40 * 64
                   - 6 * 16 * 2 * 2) // 40 - 6
        assert largest == 314_288

        def with_frame_bits(bits):
            return parse_config(text.replace("frame_bits = 128",
                                             f"frame_bits = {bits}"))

        assert with_frame_bits(largest).sub_frames == 1
        for bits in (largest + 1, 10 ** 8):
            with pytest.raises(ConfigurationError, match="sub-batch budget"):
                with_frame_bits(bits)

    def test_steering_factors_are_bounded_by_the_sub_batch_budget(self):
        # two paths: one frame's QR fallback holds its n_r x 2 receive
        # steering matrix twice, 32 * n_r * 2 bytes, so n_r = 3 * 2**16
        # fills the budget exactly
        largest = harness._SUBBATCH_BYTES // 64

        def with_n_r(n_r):
            return parse_config(BASE_TEXT.replace("n_r = 4", f"n_r = {n_r}"))

        assert largest == 196_608
        # the fallback works in chunks, so the array size leaves the
        # sub-batch as it is
        assert with_n_r(largest).sub_frames == tiny_config().sub_frames
        with pytest.raises(ConfigurationError, match="arrays are too large"):
            with_n_r(largest + 1)

    @pytest.mark.parametrize("mutation,key,accepted,rejected", [
        # one BPSK stream; a frame holds (128 + 2) * 2 = 260 code bits
        pytest.param("depth = {}", "depth", 260, 261, id="depth = {}"),
        pytest.param("interleaver = adversarial\nadversarial_run = {}",
                     "adversarial_run", 260, 261,
                     id="interleaver = adversarial\nadversarial_run = {}"),
        # a period of 16 * 2 * 1 = 32 against (frame_bits + 6) * 2 code bits
        pytest.param("interleaver = random\nn_s = 16\nn_r = 16\nn_t = 16\n"
                     "modulation = qpsk\ngenerators = 133,171\n"
                     "frame_bits = {}", "n_s", 10, 8, id="random"),
        # run 0 is the free distance 10: a period of 3 * 1 * 10 = 30
        pytest.param("interleaver = adversarial\nadversarial_run = 0\n"
                     "n_s = 3\ngenerators = 133,171\nframe_bits = {}",
                     "adversarial_run", 9, 8, id="adversarial_run = 0"),
    ])
    def test_interleaver_period_is_bounded_by_the_frame(
            self, mutation, key, accepted, rejected):
        # the accepted value makes the period equal a frame's code bits
        def with_value(value):
            text = mutation.format(value)
            keys = {line.split(" = ")[0] for line in text.splitlines()}
            lines = [line for line in BASE_TEXT.splitlines()
                     if line.split(" = ")[0] not in keys]
            return parse_config("\n".join(lines + [text]) + "\n")

        assert isinstance(with_value(accepted), SimConfig)
        with pytest.raises(ConfigurationError, match=f"{key} is too large"):
            with_value(rejected)

    @settings(max_examples=300, deadline=None)
    @given(text=config_texts())
    def test_any_text_gives_a_config_or_a_configuration_error(self, text):
        # parse only: a generated config never builds a runtime or runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = parse_config(text)
            except ConfigurationError:
                return
        assert isinstance(cfg, SimConfig)

    @settings(max_examples=200, deadline=None)
    @given(text=small_link_texts())
    def test_accepted_text_runs_two_frames(self, text):
        # a config error at parse is fine; anything accepted must build
        # and run, with the n_s > L_t notice as the one expected warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings(
                "ignore", message=r"n_s=\d+ exceeds the total path count")
            try:
                cfg = parse_config(text)
            except ConfigurationError:
                return
            build_runtime(cfg)
            errors = harness._simulate_frames(cfg, 0, range(2))
        assert 0 <= errors <= 2 * cfg.frame_bits
        # a frame holds its costs, 2n float64 per step, its survivors, a
        # bit per step and state, up to 64 steps of bit costs, 2^n
        # pattern costs and S decisions, one step's metrics, candidates
        # and branch costs, 40 bytes per state, and six L_t x L_t complex
        # matrices
        n, states = cfg.code.n_out, cfg.trellis.n_states
        steps = cfg.frame_bits + cfg.code.constraint_length - 1
        paths = int(cfg.profile.paths.sum())
        frame_bytes = (16 * n * steps + states * steps // 8
                       + min(steps, 64) * (16 * n + 8 * 2 ** n + states)
                       + 40 * states + 96 * paths ** 2)
        assert cfg.sub_frames == max(
            1, harness._SUBBATCH_BYTES // frame_bytes)
        # the interleaver period n_s * m * run fits one frame's code bits
        if cfg.interleaver == "structured":
            run = cfg.depth
        elif cfg.interleaver == "adversarial":
            run = cfg.adversarial_run or free_distance(cfg.trellis)
        else:
            run = 1
        m = cfg.constellation.bits_per_symbol
        assert cfg.n_s * m * run <= cfg.code_bits

    def test_missing_required_keys(self):
        with pytest.raises(ConfigurationError, match="missing"):
            parse_config("m_r = 1\n")

    def test_load_config_reads_files(self, tmp_path):
        p = tmp_path / "link.cfg"
        p.write_text(BASE_TEXT)
        assert load_config(p).config_hash == parse_config(BASE_TEXT).config_hash


class TestConfigHash:
    def test_canonical_text_round_trips(self):
        cfg = tiny_config()
        again = parse_config(cfg.canonical_text())
        assert again.config_hash == cfg.config_hash
        assert again == cfg

    @pytest.mark.parametrize("field,a,b", [
        ("snr_grid_db", (1.0000001,), (1.0000002,)),
        ("spacing", 0.50000001, 0.50000002),
        ("angle_range_deg", (-60.0000001, 90.0), (-60.0000002, 90.0)),
        ("profile", FadingProfile([[-20.0000001]], 2),
         FadingProfile([[-20.0000002]], 2)),
    ])
    def test_values_past_six_digits_change_the_hash(self, field, a, b):
        assert tiny_config(**{field: a}).config_hash != \
            tiny_config(**{field: b}).config_hash

    @settings(max_examples=200, deadline=None)
    @given(grid=st.lists(st.floats(min_value=-harness._MAX_SNR_DB,
                                   max_value=harness._MAX_SNR_DB),
                         min_size=1, max_size=4, unique=True).map(sorted),
           spacing=st.floats(min_value=0.0, exclude_min=True,
                             max_value=1e306),
           angles=st.lists(st.floats(min_value=-90.0, max_value=90.0),
                           min_size=2, max_size=2, unique=True).map(sorted),
           beta_db=st.lists(st.floats(min_value=-channel._MAX_BETA_DB,
                                      max_value=channel._MAX_BETA_DB),
                            min_size=2, max_size=2))
    def test_canonical_text_is_a_parse_fixed_point(self, grid, spacing,
                                                   angles, beta_db):
        cfg = tiny_config(snr_grid_db=tuple(grid), spacing=spacing,
                          angle_range_deg=tuple(angles), m_t=2,
                          profile=FadingProfile([beta_db], 2))
        text = cfg.canonical_text()
        again = parse_config(text)
        assert again.canonical_text() == text
        assert again.snr_grid_db == cfg.snr_grid_db
        assert again.spacing == cfg.spacing
        assert again.angle_range_deg == cfg.angle_range_deg
        assert again.profile.beta_db.tolist() == [beta_db]
        assert again.profile.beta.tobytes() == cfg.profile.beta.tobytes()

    def test_no_power_pair_text_parses_back_to_zero_power(self):
        profile = FadingProfile([[-20.0, -np.inf]], 2)
        cfg = tiny_config(m_t=2, profile=profile)
        assert "beta_db = -20 -inf\n" in cfg.canonical_text()
        again = parse_config(cfg.canonical_text())
        assert again.canonical_text() == cfg.canonical_text()
        assert again.profile.beta[0, 1] == 0.0
        assert again.profile.beta.tobytes() == profile.beta.tobytes()

    def test_execution_knobs_do_not_change_the_hash(self):
        cfg = tiny_config()
        assert tiny_config(workers=4).config_hash == cfg.config_hash
        assert tiny_config(label="other").config_hash == cfg.config_hash

    def test_result_determining_fields_change_the_hash(self):
        cfg = tiny_config()
        assert tiny_config(master_seed=8).config_hash != cfg.config_hash
        assert tiny_config(frame_bits=256).config_hash != cfg.config_hash
        assert tiny_config(batch_frames=16).config_hash != cfg.config_hash
        assert tiny_config(snr_grid_db=(0.0, 4.0)).config_hash != cfg.config_hash


class TestConfigEquality:
    def test_equal_and_unequal_pairs(self):
        spectrum = preset("fig2_spectrum").variants["spectrum"]
        variants = preset("fig3_interleaver").variants
        assert spectrum == variants["structured"]
        assert hash(spectrum) == hash(variants["structured"])
        assert spectrum != variants["adversarial"]
        # execution knobs are not part of the experiment
        assert tiny_config(workers=3, label="x") == tiny_config()
        assert tiny_config(spacing=0.25) != tiny_config()
        assert tiny_config() != tiny_config().canonical_text()


class TestBuildRuntime:
    """The link a config builds when it is made, and ``build_runtime``'s
    warning."""

    def test_sizes_and_padding(self):
        cfg = tiny_config(n_s=1, depth=8)
        k = cfg.code.constraint_length
        assert cfg.n_steps == cfg.frame_bits + k - 1
        assert cfg.code_bits == 2 * cfg.n_steps
        period = cfg.n_s * 1 * cfg.depth
        assert cfg.bit_interleaver.n_coded % period == 0
        assert cfg.bit_interleaver.n_coded >= cfg.code_bits
        assert cfg.bit_interleaver.kind == "structured"

    def test_adversarial_run_defaults_to_free_distance(self):
        cfg = tiny_config(interleaver="adversarial")
        assert cfg.bit_interleaver.kind == "adversarial"
        # free distance of the 4-state code is 5: bits 0..4 share stream 0
        subs = cfg.bit_interleaver.subchannels()
        assert cfg.n_s == 1 or np.all(subs[:5] == subs[0])

    def test_random_interleaver_is_seed_deterministic(self):
        a = tiny_config(interleaver="random")
        b = tiny_config(interleaver="random")
        c = tiny_config(interleaver="random", master_seed=8)
        np.testing.assert_array_equal(a.bit_interleaver.positions,
                                      b.bit_interleaver.positions)
        assert not np.array_equal(a.bit_interleaver.positions,
                                  c.bit_interleaver.positions)

    def test_a_config_builds_its_link_once(self, monkeypatch):
        calls = []

        def counting(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper
        monkeypatch.setattr(harness, "build_trellis",
                            counting("trellis", harness.build_trellis))
        monkeypatch.setattr(
            bicm, "adversarial_interleaver",
            counting("interleaver", bicm.adversarial_interleaver))
        # run 0: the interleaver's run is the code's free distance
        cfg = parse_config(BASE_TEXT.replace("snr_db = 0,4,8", "snr_db = 8")
                           + "interleaver = adversarial\n")
        build_runtime(cfg)
        sweep(cfg)
        assert sorted(calls) == ["interleaver", "trellis"]

    def test_warns_when_streams_outnumber_paths(self):
        cfg = tiny_config(m_t=1, n_s=3,
                          profile=FadingProfile([[-20.0]], 2))
        with pytest.warns(UserWarning, match="zero-gain"):
            build_runtime(cfg)

    def test_sweep_warns_when_streams_outnumber_paths(self):
        cfg = tiny_config(m_t=1, n_s=3,
                          profile=FadingProfile([[-20.0]], 2),
                          snr_grid_db=(8.0,), max_frames=8)
        with pytest.warns(UserWarning, match="zero-gain"):
            sweep(cfg)


def set_sub_frames(monkeypatch, cfg: SimConfig, frames: int):
    """Set the sub-batch budget to ``frames`` frames of ``cfg``."""
    rows = max(cfg.m_r * cfg.n_r, cfg.m_t * cfg.n_t)
    frame = harness._frame_bytes(cfg.code, cfg.frame_bits, cfg.l_t, rows)
    monkeypatch.setattr(harness, "_SUBBATCH_BYTES", frames * frame)
    assert cfg.sub_frames == frames


def record_decoder_rows(monkeypatch) -> list:
    """Frames per ``viterbi_decode`` call of the sweep, in call order."""
    rows = []
    real_decode = harness.viterbi_decode

    def recording_decode(trellis, costs, **kwargs):
        rows.append(costs.shape[0])
        return real_decode(trellis, costs, **kwargs)

    monkeypatch.setattr(harness, "viterbi_decode", recording_decode)
    return rows


class TestSubBatches:
    def test_budget_sets_the_sub_batch_frames(self):
        # 12 MiB hold 216 frames of 1030 steps on 64 states and 8 paths,
        # 58,096 bytes each
        desk = preset("fig3_interleaver").variants["structured"]
        assert desk.sub_frames == 216
        assert tiny_config().sub_frames >= 64
        # 14,881 bytes per 130-step frame on 4 states and 8 paths,
        # whatever the array size
        grid = BASE_TEXT.replace("m_r = 1", "m_r = 2").replace("m_t = 1",
                                                               "m_t = 2")
        wide = parse_config(grid.replace("n_r = 4", "n_r = 4096")
                            .replace("n_t = 4", "n_t = 4096"))
        assert wide.sub_frames == parse_config(grid).sub_frames == 845

    def test_presets_and_benchmark_configs_keep_their_split(self,
                                                           monkeypatch):
        for name in preset_names():
            for cfg in preset(name).variants.values():
                parts = harness._sub_batches(0, cfg.batch_frames,
                                             cfg.sub_frames, 1)
                assert [len(p) for p in parts] == [204, 205, 205, 205, 205]
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import MASSIVE_CONFIG
        massive = parse_config(MASSIVE_CONFIG.format(seed=7))
        assert harness._sub_batches(0, massive.batch_frames,
                                    massive.sub_frames, 1) == [range(256)]
        sizes = []
        real_draw = harness.draw_channels

        def counting_draw(profile, rx, tx, rngs, angle_range):
            sizes.append(len(rngs))
            return real_draw(profile, rx, tx, rngs, angle_range)

        monkeypatch.setattr(harness, "draw_channels", counting_draw)
        spectrum_stats(preset("fig2_spectrum").variants["spectrum"], 70)
        assert sizes == [32, 32, 6]

    @settings(max_examples=300, deadline=None)
    @given(lo=st.integers(0, 10 ** 6), n=st.integers(1, 5000),
           sub_frames=st.integers(1, 2000), workers=st.integers(1, 64))
    def test_sub_batches_are_equal_consecutive_ranges(self, lo, n,
                                                      sub_frames, workers):
        parts = harness._sub_batches(lo, lo + n, sub_frames, workers)
        assert [p.start for p in parts] == [lo] + [p.stop for p in parts[:-1]]
        assert parts[-1].stop == lo + n
        sizes = [len(p) for p in parts]
        assert max(sizes) <= sub_frames
        assert max(sizes) - min(sizes) <= 1
        least = -(-n // sub_frames)
        assert len(parts) == min(n, workers * -(-least // workers))

    @pytest.mark.parametrize("lo,hi,sub_frames,workers,sizes", [
        # a desk batch: five near-equal parts, no short tail
        (0, 1024, 254, 1, [204, 205, 205, 205, 205]),
        # a batch that fits one sub-batch still gives each worker a part
        (0, 12, 64, 3, [4, 4, 4]),
    ])
    def test_sub_batch_sizes(self, lo, hi, sub_frames, workers, sizes):
        parts = harness._sub_batches(lo, hi, sub_frames, workers)
        assert [len(p) for p in parts] == sizes

    @pytest.mark.parametrize("frames", [1, 5, 7])
    def test_sub_batches_do_not_change_errors(self, monkeypatch, frames):
        cfg = tiny_config()
        whole = harness._simulate_frames(cfg, 1, range(12))
        assert whole > 0
        set_sub_frames(monkeypatch, cfg, frames)
        rows = record_decoder_rows(monkeypatch)
        assert sum(harness._simulate_frames(cfg, 1, part)
                   for part in harness._sub_batches(0, 12, frames, 1)) \
            == whole
        assert sum(rows) == 12
        # 5 frames give [4, 4, 4], 7 give [6, 6]
        assert max(rows) <= frames
        assert max(rows) - min(rows) <= 1

    @pytest.mark.parametrize("modulation", ["bpsk", "16qam"])
    @pytest.mark.parametrize("frames,blocks", [(1, [1] * 12),
                                               (5, [5, 5, 2])])
    def test_demap_blocks_do_not_change_decoder_costs(
            self, monkeypatch, modulation, frames, blocks):
        cfg = tiny_config(modulation=modulation)
        real_decode = harness.viterbi_decode
        seen = []

        def recording_decode(trellis, costs):
            seen.append(costs.copy())
            return real_decode(trellis, costs)

        monkeypatch.setattr(harness, "viterbi_decode", recording_decode)
        whole = harness._simulate_frames(cfg, 1, range(12))
        itl = cfg.bit_interleaver
        frame_entries = (itl.n_symbols * itl.n_substreams
                         * cfg.constellation.size)
        assert harness._METRIC_BLOCK_ENTRIES >= 12 * frame_entries
        monkeypatch.setattr(harness, "_METRIC_BLOCK_ENTRIES",
                            frames * frame_entries)
        rows = []
        real_metrics = bicm.bit_metrics

        def recording_metrics(y, gains, constellation):
            rows.append(y.shape[0])
            return real_metrics(y, gains, constellation)

        monkeypatch.setattr(bicm, "bit_metrics", recording_metrics)
        assert harness._simulate_frames(cfg, 1, range(12)) == whole
        assert rows == blocks
        assert seen[1].tobytes() == seen[0].tobytes()

    def test_sub_batch_and_decoder_peak_memory(self):
        # 28.0 MiB when the decoder kept one bool per survivor decision
        # and every demap stage spanned the whole sub-batch
        cfg = preset("fig3_interleaver").variants["structured"]
        frames, steps = 205, cfg.n_steps
        costs = np.random.default_rng(3).standard_normal((frames, steps, 2, 2))
        tracemalloc.start()
        try:
            harness._simulate_frames(cfg, 0, range(frames))
            _, sub_batch_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            viterbi_decode(cfg.trellis, costs)
            _, decoder_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sub_batch_peak < 20 << 20
        assert decoder_peak < steps * cfg.trellis.n_states * frames

    @pytest.mark.parametrize("name", ["5,7", "fig3", "561,753", "fig4_4096"])
    def test_a_full_sub_batch_peaks_within_twice_the_budget(self, name):
        # a 5,7 frame holds 32 bytes of decoder costs per step and half a
        # byte of survivors, so a rule that misses the costs overruns the
        # budget about tenfold
        long_frames = BASE_TEXT.replace("frame_bits = 128",
                                        "frame_bits = 1024")
        cfg = {
            "5,7": lambda: parse_config(long_frames),
            "fig3": lambda: preset("fig3_interleaver").variants["structured"],
            "561,753": lambda: parse_config(long_frames.replace(
                "generators = 5,7", "generators = 561,753")),
            "fig4_4096": lambda: replace(
                preset("fig4_streams").variants["ns4"], n_r=4096),
        }[name]()
        tracemalloc.start()
        try:
            harness._simulate_frames(cfg, 0, range(cfg.sub_frames))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * harness._SUBBATCH_BYTES

    def test_decoder_never_sees_more_than_one_sub_batch(self, monkeypatch):
        cfg = tiny_config(batch_frames=12, max_frames=24, min_errors=10 ** 6)
        whole = sweep(cfg)
        set_sub_frames(monkeypatch, cfg, 5)
        rows = record_decoder_rows(monkeypatch)
        split = sweep(cfg)
        # 3 points of 2 batches of 12 frames, each batch 4 + 4 + 4
        assert rows == [4, 4, 4] * 6
        np.testing.assert_array_equal(split.frames, whole.frames)
        np.testing.assert_array_equal(split.bit_errors, whole.bit_errors)

    def test_svd_failure_in_a_later_sub_batch_reports_its_frame(
            self, monkeypatch):
        cfg = tiny_config()
        set_sub_frames(monkeypatch, cfg, 5)
        real_svd = np.linalg.svd
        stacks = []
        single_calls = []

        def flaky_svd(a, *args, **kwargs):
            # the second sub-batch's stack fails, and so does its third
            # frame alone
            if a.ndim == 3:
                stacks.append(a.shape[0])
                if len(stacks) == 2:
                    raise np.linalg.LinAlgError("SVD did not converge")
            else:
                single_calls.append(a)
                if len(single_calls) == 3:
                    raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        with pytest.raises(NumericalError, match="during sweep") as info:
            for part in harness._sub_batches(10, 22, cfg.sub_frames, 1):
                harness._simulate_frames(cfg, 2, part)
        # frames 10-13, 14-17, 18-21: the failing frame is 14 + 2
        assert stacks == [4, 4]
        assert info.value.seed.entropy == cfg.master_seed
        assert info.value.seed.spawn_key == (0, 2, 16)


class TestSpanDecomposition:
    def test_batches_do_not_change_per_frame_results(self):
        cfg = tiny_config()
        whole = harness._simulate_frames(cfg, 1, range(12))
        parts = sum(harness._simulate_frames(cfg, 1, range(lo, hi))
                    for lo, hi in [(0, 5), (5, 6), (6, 12)])
        assert whole == parts

    def test_svd_failure_reports_the_failing_frame_seed(self, monkeypatch):
        cfg = tiny_config()
        real_svd = np.linalg.svd
        single_calls = []

        def flaky_svd(a, *args, **kwargs):
            # the batched call fails, and so does the fourth frame alone
            if a.ndim == 2:
                single_calls.append(a)
            if a.ndim == 3 or len(single_calls) == 4:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky_svd)
        with pytest.raises(NumericalError, match="during sweep") as info:
            harness._simulate_frames(cfg, 2, range(10, 18))
        seed = info.value.seed
        assert seed.entropy == cfg.master_seed
        assert seed.spawn_key == (0, 2, 13)
        assert len(single_calls) == 4
        # the message names the seed on one line
        assert str(info.value) == (
            "SVD failed to converge during sweep (reproduce with seed="
            f"SeedSequence(entropy={cfg.master_seed}, spawn_key=(0, 2, 13)))")

    def test_error_free_at_extreme_snr_and_reproducible(self):
        cfg = tiny_config(snr_grid_db=(0.0, 90.0))
        assert harness._simulate_frames(cfg, 1, range(8)) == 0
        errs = harness._simulate_frames(cfg, 0, range(8))
        assert errs > 0
        assert harness._simulate_frames(cfg, 0, range(8)) == errs

    def test_never_forms_a_channel_matrix(self, monkeypatch):
        cfg = tiny_config(m_t=2, n_s=2,
                          profile=FadingProfile([[-20.0, -30.0]],
                                                        [[2, 3]]))
        want = harness._simulate_frames(cfg, 1, range(8))

        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep assembled a channel matrix")

        real_svd = np.linalg.svd
        shapes = []

        def recording_svd(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(harness, "draw_channels", forbidden)
        monkeypatch.setattr(channel, "draw_channels", forbidden)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert harness._simulate_frames(cfg, 1, range(8)) == want
        # one stack of 4 x 5 cores: 4 receive elements, 5 paths
        assert shapes == [(8, 4, 5)]


_FRAME_BASES = (0, 2**32, 2**64)


class TestFrameStreams:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**200), snr_idx=st.integers(0, 2**40),
           child=st.sampled_from((0, 1)), base=st.sampled_from(_FRAME_BASES),
           offset=st.integers(-4, 3), count=st.integers(0, 6))
    def test_seed_words_are_those_of_seed_sequence(self, seed, snr_idx,
                                                   child, base, offset,
                                                   count):
        # ranges near 2**32 and 2**64 straddle a change of word count
        lo = max(0, base + offset)
        frames = range(lo, lo + count)
        got = harness._spawn_seed_words(seed, (harness._NS_FRAME, snr_idx),
                                        frames, child)
        assert got.shape == (count, 4) and got.dtype == np.uint64
        for row, f in zip(got, frames):
            want = np.random.SeedSequence(
                seed, spawn_key=(harness._NS_FRAME, snr_idx, f, child))
            np.testing.assert_array_equal(row,
                                          want.generate_state(4, np.uint64))

    @pytest.mark.parametrize("seed,frames", [
        (7, range(0, 5)), (2**100 + 3, range(2**32 - 2, 2**32 + 2))])
    def test_generators_equal_default_rng_of_the_frame_child(self, seed,
                                                             frames):
        cfg = tiny_config(master_seed=seed)
        for child in (0, 1):
            rngs = harness._frame_rngs(cfg, 2, frames, child)
            for rng, f in zip(rngs, frames, strict=True):
                want = np.random.default_rng(harness._frame_seed(
                    cfg, 2, f).spawn(2)[child])
                assert rng.bit_generator.state == want.bit_generator.state
                assert rng.random() == want.random()

    def test_seed_words_serve_only_a_pcg64_seed(self):
        words = harness._spawn_seed_words(1, (0, 0), range(1), 0)[0]
        seed = harness._SeedWords(words)
        assert seed.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError):
            seed.generate_state(8, np.uint64)
        with pytest.raises(ValueError):
            seed.generate_state(4, np.uint32)

    @pytest.mark.parametrize("length", [1, 127, 128, 1024])
    def test_message_bits_are_those_of_integers(self, length):
        # odd lengths leave integers' buffered 32-bit half unused
        seeds = np.random.SeedSequence(length).spawn(3)
        raw = [np.random.default_rng(s) for s in seeds]
        bits = harness._message_bits(raw, length)
        assert bits.shape == (3, length) and bits.dtype == np.uint8
        for row, rng, seed in zip(bits, raw, seeds, strict=True):
            want = np.random.default_rng(seed)
            np.testing.assert_array_equal(row, want.integers(0, 2, length))
            # the noise drawn after the message is unchanged
            np.testing.assert_array_equal(
                rng.standard_normal((2, 7)).view(np.uint64),
                want.standard_normal((2, 7)).view(np.uint64))


class TestSweep:
    def test_stop_rule_and_bookkeeping(self):
        cfg = tiny_config()
        curve = sweep(cfg)
        assert curve.snr_db.tolist() == [0.0, 4.0, 8.0]
        np.testing.assert_array_equal(curve.bits,
                                      curve.frames * cfg.frame_bits)
        for k in range(3):
            assert curve.frames[k] % cfg.batch_frames == 0
            assert curve.frames[k] <= cfg.max_frames
            if not curve.warning_flags[k]:
                assert curve.bit_errors[k] >= cfg.min_errors
                # the rule stops at the first qualifying batch boundary
                before = curve.frames[k] - cfg.batch_frames
                assert before == 0 or curve.bit_errors[k] > 0
            else:
                assert curve.frames[k] == cfg.max_frames
                assert curve.bit_errors[k] < cfg.min_errors

    def test_repeatable_and_seed_sensitive(self):
        a = sweep(tiny_config())
        b = sweep(tiny_config())
        c = sweep(tiny_config(master_seed=1234))
        np.testing.assert_array_equal(a.bit_errors, b.bit_errors)
        np.testing.assert_array_equal(a.frames, b.frames)
        assert not np.array_equal(a.bit_errors, c.bit_errors)

    def test_random_interleaver_reaches_workers_unchanged(self, tmp_path):
        # each pool task pickles the config with the interleaver it drew
        cfg = tiny_config(interleaver="random", n_s=2)
        again = pickle.loads(pickle.dumps(cfg))
        assert (again.bit_interleaver.positions.tobytes()
                == cfg.bit_interleaver.positions.tobytes())
        blobs = []
        for workers in (1, 2):
            path = tmp_path / f"workers{workers}.csv"
            sweep(replace(cfg, workers=workers)).to_csv(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_warning_flag_at_unreachable_stop_rule(self):
        cfg = tiny_config(snr_grid_db=(30.0,), min_errors=10_000,
                          max_frames=16, batch_frames=8)
        curve = sweep(cfg)
        assert curve.warning_flags[0]
        assert curve.frames[0] == 16

    def test_ber_and_diversity_accessors(self):
        curve = BerCurve(
            snr_db=np.array([0.0, 2.0, 4.0, 6.0]),
            frames=np.ones(4, dtype=np.int64),
            bits=np.full(4, 1000, dtype=np.int64),
            bit_errors=np.array([1000, 100, 10, 1], dtype=np.int64),
            warning_flags=np.zeros(4, dtype=bool),
        )
        np.testing.assert_allclose(curve.ber, [1.0, 0.1, 0.01, 0.001])
        assert curve.diversity_estimate() == pytest.approx(5.0)

    def test_csv_round_trip(self, tmp_path):
        curve = sweep(tiny_config())
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        text = path.read_text()
        assert harness.BER_CSV_HEADER in text
        assert f"# config_hash={tiny_config().config_hash}" in text
        lines = text.splitlines()
        rows = [line.split(",") for line in
                lines[lines.index(harness.BER_CSV_HEADER) + 1:]]
        np.testing.assert_array_equal([float(r[0]) for r in rows],
                                      curve.snr_db)
        np.testing.assert_array_equal([int(r[1]) for r in rows], curve.frames)
        np.testing.assert_array_equal([int(r[2]) for r in rows], curve.bits)
        np.testing.assert_array_equal([int(r[3]) for r in rows],
                                      curve.bit_errors)
        np.testing.assert_array_equal([r[5] == "1" for r in rows],
                                      curve.warning_flags)
        assert (f"# config_hash={curve.provenance['config_hash']}"
                in lines)


def _spectrum_draws(config: SimConfig, draws: int) -> list:
    """The channels of a spectrum study, drawn one at a time."""
    rng = np.random.default_rng(
        np.random.SeedSequence(config.master_seed,
                               spawn_key=(harness._NS_SPECTRUM,)))
    rx = ArrayGeometry(config.n_r, config.spacing)
    tx = ArrayGeometry(config.n_t, config.spacing)
    angles = tuple(np.deg2rad(config.angle_range_deg))
    return [draw_channel(config.profile, rx, tx, rng, angles)
            for _ in range(draws)]


class TestSpectrumStats:
    @pytest.mark.parametrize("draws", [1, 31, 32, 33, 70])
    @pytest.mark.parametrize("paths", [[[2, 3]], [[4, 3]]])
    def test_equals_a_per_draw_loop_bitwise(self, draws, paths):
        # 6 modes: 5 paths leave predictions short, 7 paths truncate them
        profile = FadingProfile([[-20.0, -26.0]], paths)
        cfg = tiny_config(m_t=2, profile=profile, n_r=6, n_t=4, spacing=0.4,
                          angle_range_deg=(-70.0, 80.0), master_seed=5)
        rx, tx = ArrayGeometry(6, 0.4), ArrayGeometry(4, 0.4)
        sv_acc = np.zeros(6)
        pred_acc = np.zeros(6)
        for chan in _spectrum_draws(cfg, draws):
            sv_acc += singular_values(chan.h)
            pred = predicted_gains(cfg.profile, chan.paths, rx, tx)
            pred_acc[:min(pred.size, 6)] += pred[:6]
        sv, pred = spectrum_stats(cfg, draws)
        assert sv.tobytes() == (sv_acc / draws).tobytes()
        assert pred.tobytes() == (pred_acc / draws).tobytes()

    def test_shapes_rank_and_determinism(self):
        cfg = tiny_config(m_r=2, m_t=2,
                          profile=FadingProfile(np.full((2, 2), -20.0), 2),
                          n_r=8, n_t=8, master_seed=3)
        sv, pred = spectrum_stats(cfg, draws=32)
        assert sv.shape == pred.shape == (16,)
        assert np.all(np.diff(sv) <= 1e-12)
        l_t = 8
        assert np.all(sv[l_t:] < 1e-8 * sv[0])     # rank-limited channel
        assert np.all(pred[l_t:] == 0.0)           # predictions stop at l_t
        assert np.all(pred[:l_t] > 0.0)
        sv2, pred2 = spectrum_stats(cfg, draws=32)
        np.testing.assert_array_equal(sv, sv2)
        np.testing.assert_array_equal(pred, pred2)

    def test_svd_failure_reports_job_seed_and_draw(self, monkeypatch):
        cfg = tiny_config(profile=FadingProfile([[0.0]], 2),
                          master_seed=11)
        real_svd = np.linalg.svd
        # draw 35 sits in the second chunk of draws
        for draws, bad in ((5, 2), (40, 35)):
            bad_h = _spectrum_draws(cfg, bad + 1)[bad].h

            def flaky_svd(a, *args, **kwargs):
                # the stack holding the bad draw fails, and so does that
                # draw alone
                if any(np.array_equal(m, bad_h)
                       for m in a.reshape(-1, 4, 4)):
                    raise np.linalg.LinAlgError("SVD did not converge")
                return real_svd(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "svd", flaky_svd)
            with pytest.raises(NumericalError, match=f"draw {bad}") as info:
                spectrum_stats(cfg, draws=draws)
            assert info.value.seed == 11
            assert "seed=11" in str(info.value)

    def test_chunks_fit_the_budget_with_the_same_bytes(self, monkeypatch):
        # one 4 x 4 matrix is 256 bytes: a budget of three gives chunks of 3
        cfg = tiny_config()
        sv, pred = spectrum_stats(cfg, draws=10)
        sizes = []
        real_draw = harness.draw_channels

        def counting_draw(profile, rx, tx, rngs, angle_range):
            sizes.append(len(rngs))
            return real_draw(profile, rx, tx, rngs, angle_range)

        monkeypatch.setattr(harness, "draw_channels", counting_draw)
        monkeypatch.setattr(harness, "_SUBBATCH_BYTES", 3 * 256 + 255)
        sv3, pred3 = spectrum_stats(cfg, draws=10)
        assert sizes == [3, 3, 3, 1]
        assert sv3.tobytes() == sv.tobytes()
        assert pred3.tobytes() == pred.tobytes()

    def test_rejects_bad_draw_count(self):
        with pytest.raises(ConfigurationError):
            spectrum_stats(tiny_config(), draws=0)


class TestPresets:
    def test_names_are_the_public_contract(self):
        assert preset_names() == ("fig2_spectrum", "fig3_interleaver",
                                  "fig4_streams",
                                  "fig5_colocated_vs_distributed",
                                  "fig6_fading")

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset("fig9_imaginary")

    def test_spectrum_preset_is_the_fig3_structured_config(self):
        p = preset("fig2_spectrum", master_seed=5, workers=3)
        assert tuple(p.variants) == ("spectrum",)
        spectrum = p.variants["spectrum"]
        assert spectrum.label == "spectrum"
        assert spectrum.master_seed == 5
        assert spectrum.workers == 3
        assert (spectrum.n_r, spectrum.n_t) == (16, 32)
        # the study draws the fig3_interleaver/structured channel
        structured = preset("fig3_interleaver", master_seed=5).variants
        assert spectrum.canonical_text() \
            == structured["structured"].canonical_text()

    @pytest.mark.parametrize("name,keys", [
        ("fig3_interleaver", ("structured", "adversarial")),
        ("fig4_streams", ("ns1", "ns2", "ns4")),
        ("fig5_colocated_vs_distributed", ("distributed", "colocated")),
        ("fig6_fading", ("b1", "b2", "b3", "b4")),
    ])
    def test_ber_presets_fill_variants(self, name, keys):
        p = preset(name, master_seed=11)
        assert tuple(p.variants) == keys
        for off, (key, cfg) in enumerate(p.variants.items()):
            assert cfg.label == key
            assert (cfg.n_r, cfg.n_t) == (16, 32)
            assert cfg.code.generators == (0o133, 0o171)
            assert cfg.master_seed == 11 + off   # variant seeds never collide
            assert cfg.min_errors == 200
            assert cfg.batch_frames == 1024

    def test_stream_preset_varies_only_stream_count_and_grid(self):
        p = preset("fig4_streams")
        ns = [cfg.n_s for cfg in p.variants.values()]
        assert ns == [1, 2, 4]
        for cfg in p.variants.values():
            assert (cfg.m_r, cfg.m_t) == (1, 3)
            assert cfg.l_t == 6

    @pytest.mark.parametrize("name,hashes", [
        ("fig3_interleaver", {"structured": "2bc732b3b243fe98",
                              "adversarial": "45f5b0f9edd3dd74"}),
        ("fig4_streams", {"ns1": "d365da461d663919",
                          "ns2": "5155aaf50e156fb1",
                          "ns4": "91a98bc466c2342a"}),
        ("fig5_colocated_vs_distributed", {"distributed": "d1432332f81e29d0",
                                           "colocated": "74e3156151b6b35d"}),
        ("fig6_fading", {"b1": "213e47b97a53573b", "b2": "9b69ef337a637f77",
                         "b3": "cd7c6c51b8c1feb3", "b4": "da4ef1b1c0f0d7a5"}),
    ])
    def test_variant_hashes_are_pinned(self, name, hashes):
        variants = preset(name, master_seed=1).variants
        assert {k: cfg.config_hash for k, cfg in variants.items()} == hashes

    def test_workers_override(self):
        p = preset("fig3_interleaver", workers=3)
        assert all(cfg.workers == 3 for cfg in p.variants.values())
