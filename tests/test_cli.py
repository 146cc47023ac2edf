"""End-to-end CLI tests: argument handling, exit codes, and the CSV
files each subcommand emits.  Slow paths (multi-variant simulation) are
exercised through a stubbed sweep; everything else runs the real chain
on tiny configs.
"""

import time

import numpy as np
import pytest

from bicmb import cli, harness
from bicmb.coding import (CodeSpec, build_trellis, distance_spectrum,
                          free_distance)
from bicmb.errors import NumericalError
from bicmb.harness import BerCurve, parse_config, preset, spectrum_stats

TINY_CFG = """\
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
label = tiny
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return p


def fake_curve(cfg):
    n = len(cfg.snr_grid_db)
    return BerCurve(
        snr_db=np.asarray(cfg.snr_grid_db),
        frames=np.full(n, 64, dtype=np.int64),
        bits=np.full(n, 64 * cfg.frame_bits, dtype=np.int64),
        bit_errors=np.full(n, 30, dtype=np.int64),
        warning_flags=np.zeros(n, dtype=bool),
        provenance={"config_hash": cfg.config_hash},
    )


class TestCodeInfo:
    def test_four_state_table_on_stdout(self, capsys):
        assert cli.main(["code-info", "--generators", "5,7",
                         "--dmax", "8"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        for line in ("generators: 5,7 (octal)", "constraint_length: 3",
                     "states: 4", "d_free: 5", "d,count,input_weight",
                     "5,1,1", "6,2,4", "7,4,12", "8,8,32"):
            assert line in out

    def test_64_state_table_to_file(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        assert cli.main(["code-info", "--generators", "133,171",
                         "--dmax", "12", "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert "10,11,36" in lines
        assert "12,38,211" in lines
        # odd distances have no events and get no rows
        assert not any(ln.startswith("11,") for ln in lines)
        assert "d_free: 10" in capsys.readouterr().out

    def test_dmax_below_free_distance_fails(self, capsys):
        assert cli.main(["code-info", "--generators", "133,171",
                         "--dmax", "6"]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_bad_generators_fail(self, capsys):
        assert cli.main(["code-info", "--generators", "xyz"]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--generators", "5,7", "--constraint-length", "40"],
        ["--generators", "3777777777777,2777777777777"],
    ])
    def test_oversized_code_exits_1(self, capsys, argv):
        assert cli.main(["code-info"] + argv) == cli.EXIT_CONFIG
        assert "constraint length cannot exceed" in capsys.readouterr().err

    def test_runaway_spectrum_exits_1_quickly(self, capsys):
        start = time.perf_counter()
        assert cli.main(["code-info", "--generators", "5,7",
                         "--dmax", "100000"]) == cli.EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "paths; lower d_max" in capsys.readouterr().err


class TestLongCode:
    """A valid rate-1/12, K = 10 code whose free distance is 66."""

    GENERATORS = ("1357,1735,1667,1772,1567,1753,1573,1557,1375,1737,"
                  "1376,1755")

    def config(self, tmp_path, interleaver):
        p = tmp_path / f"{interleaver}.cfg"
        p.write_text(TINY_CFG.replace("generators = 5,7",
                                      f"generators = {self.GENERATORS}")
                     .replace("frame_bits = 128", "frame_bits = 16")
                     .replace("snr_db = 0,4,8", "snr_db = 0,4")
                     + f"interleaver = {interleaver}\n")
        return p

    def test_free_distance(self):
        trellis = build_trellis(CodeSpec.from_octal(self.GENERATORS))
        assert not trellis.catastrophic
        assert free_distance(trellis) == 66

    def test_simulate_with_the_adversarial_interleaver(self, tmp_path):
        # the interleaver run defaults to the free distance
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config",
                         str(self.config(tmp_path, "adversarial")),
                         "--out", str(out)]) == cli.EXIT_OK
        assert out.exists()

    def test_analyze_with_the_structured_interleaver(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert cli.main(["analyze", "--config",
                         str(self.config(tmp_path, "structured")),
                         "--out", str(out)]) == cli.EXIT_OK
        assert out.read_text().splitlines()[3] == cli.ANALYZE_CSV_HEADER


class TestArgumentHandling:
    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == cli.EXIT_OK

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG

    def test_source_must_be_exactly_one(self, cfg_file, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert cli.main(["simulate", "--out", out]) == cli.EXIT_CONFIG
        assert cli.main(["simulate", "--config", str(cfg_file),
                         "--preset", "fig3_interleaver",
                         "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "exactly one" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(tmp_path / "no.cfg"),
                         "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
        assert "not found" in capsys.readouterr().err
        # a directory is not a config file either
        assert cli.main(["analyze", "--config", str(tmp_path),
                         "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not found" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{cfg}"],
        ["analyze", "--config", "{cfg}"],
        ["analyze", "--preset", "fig4_streams", "--variant", "ns1"],
        ["channel-stats", "--preset", "fig2_spectrum", "--draws", "2"],
        ["code-info", "--generators", "5,7"],
    ])
    def test_missing_output_directory_exits_1_before_any_work(
            self, cfg_file, tmp_path, monkeypatch, capsys, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")
        for name in ("sweep", "build_runtime", "spectrum_stats",
                     "build_trellis"):
            monkeypatch.setattr(cli, name, forbidden)
        out = tmp_path / "missing" / "x.csv"
        argv = [a.replace("{cfg}", str(cfg_file)) for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output directory not found" in err
        assert "Traceback" not in err
        assert not out.parent.exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        # an existing directory in place of the output file
        assert cli.main(["code-info", "--generators", "5,7",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["channel-stats", "--preset", "fig2_spectrum", "--draws", "2"],
        ["code-info", "--generators", "5,7"],
    ])
    def test_output_that_is_a_directory_exits_1_before_any_work(
            self, tmp_path, monkeypatch, capsys, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")
        for name in ("spectrum_stats", "build_trellis"):
            monkeypatch.setattr(cli, name, forbidden)
        assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output file is a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,name", [
        (["simulate", "--config", "{cfg}"], "tiny"),
        (["analyze", "--config", "{cfg}"], "tiny"),
        (["simulate", "--preset", "fig4_streams", "--variant", "ns1"], "ns1"),
        # the last variant of a multi-variant preset
        (["simulate", "--preset", "fig4_streams"], "ns4"),
        (["analyze", "--preset", "fig4_streams"], "ns4"),
    ])
    def test_output_file_in_out_that_is_a_directory_exits_1_before_any_work(
            self, cfg_file, tmp_path, monkeypatch, capsys, argv, name):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")
        for attr in ("sweep", "build_runtime"):
            monkeypatch.setattr(cli, attr, forbidden)
        out = tmp_path / "out"
        (out / f"{name}.csv").mkdir(parents=True)
        argv = [a.replace("{cfg}", str(cfg_file)) for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output file is a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old,new", [
        ("snr_db = 0,4,8", "snr_db = 2,inf"),
        ("beta_db = -20", "beta_db = nan"),
        ("label = tiny", "spacing = nan"),
    ])
    def test_non_finite_config_value_exits_1(self, tmp_path, capsys, old, new):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CFG.replace(old, new))
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--config", str(p),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_single_stream_qam_at_depth_one_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CFG.replace("modulation = bpsk",
                                      "modulation = 16qam\ndepth = 1"))
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--config", str(p),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "depth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,needle", [
        ("master_seed = 7", "master_seed = -1", "master_seed"),
        ("beta_db = -20", "beta_db = -inf", "no power"),
        ("paths = 2", "paths = 2.5", "whole numbers"),
        ("label = tiny", "spacing = 1e308", "too large"),
        ("beta_db = -20", "beta_db = 1e18", "finite"),
        ("paths = 2", "paths = 1e308", "64-bit"),
        ("label = tiny", "constraint_length = 40", "constraint length"),
        ("label = tiny", "angle_max_deg = 120", "[-90, 90] degrees"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "analyze",
                                         "channel-stats"])
    def test_rejected_config_value_exits_1(self, tmp_path, capsys, command,
                                           old, new, needle):
        p = tmp_path / "bad.cfg"
        p.write_text(TINY_CFG.replace(old, new))
        out = tmp_path / "x.csv"
        assert cli.main([command, "--config", str(p),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert needle in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "fig4_streams"],
        ["channel-stats", "--preset", "fig2_spectrum", "--draws", "2"],
        ["simulate", "--config", "{cfg}"],
    ])
    def test_negative_seed_exits_1(self, cfg_file, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        argv = [a.replace("{cfg}", str(cfg_file)) for a in argv]
        assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,source", [
        ("analyze", ["--config", "{cfg}"]),
        ("analyze", ["--preset", "fig3_interleaver"]),
        ("channel-stats", ["--config", "{cfg}"]),
        ("channel-stats", ["--preset", "fig2_spectrum"]),
    ])
    def test_workers_is_simulate_only(self, cfg_file, tmp_path, capsys,
                                      command, source):
        out = tmp_path / "x.csv"
        argv = [a.replace("{cfg}", str(cfg_file)) for a in source]
        assert cli.main([command] + argv + ["--workers", "2",
                                            "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_preset_cannot_simulate(self, tmp_path, capsys):
        assert cli.main(["simulate", "--preset", "fig2_spectrum",
                         "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG
        assert "spectrum study" in capsys.readouterr().err


class TestSimulate:
    def test_config_file_to_csv(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        assert cli.main(["simulate", "--config", str(cfg_file),
                         "--out", str(out)]) == cli.EXIT_OK
        text = out.read_text()
        assert "# config_hash=" in text
        assert "snr_db,frames,bits,bit_errors,ber,warning" in text
        curve = BerCurve.from_csv(out)
        assert curve.snr_db.tolist() == [0.0, 4.0, 8.0]
        assert (curve.bit_errors >= 20).all()
        assert "tiny: wrote" in capsys.readouterr().out

    def test_stop_rule_warning_gives_exit_3(self, tmp_path, capsys):
        text = TINY_CFG.replace("snr_db = 0,4,8", "snr_db = 30") \
                       .replace("min_errors = 20", "min_errors = 10000") \
                       .replace("max_frames = 64", "max_frames = 16")
        p = tmp_path / "warn.cfg"
        p.write_text(text)
        out = tmp_path / "warn.csv"
        assert cli.main(["simulate", "--config", str(p),
                         "--out", str(out)]) == cli.EXIT_WARNINGS
        assert "stop rule not reached" in capsys.readouterr().out
        assert BerCurve.from_csv(out).warning_flags.all()

    def test_numerical_error_gives_exit_2(self, cfg_file, tmp_path,
                                          monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("SVD failed to converge during sweep",
                                 seed=123)
        monkeypatch.setattr(cli, "sweep", boom)
        assert cli.main(["simulate", "--config", str(cfg_file),
                         "--out", str(tmp_path / "x.csv")]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical error" in err and "seed=123" in err

    @pytest.mark.parametrize("source", [["--config", "{cfg}"],
                                        ["--preset", "fig3_interleaver"]])
    def test_worker_count_above_the_cap_exits_1(self, cfg_file, tmp_path,
                                                monkeypatch, capsys, source):
        def forbidden(cfg):
            raise AssertionError("a sweep started")
        monkeypatch.setattr(cli, "sweep", forbidden)
        out = tmp_path / "x.csv"
        argv = [a.replace("{cfg}", str(cfg_file)) for a in source]
        assert cli.main(["simulate"] + argv + ["--workers", "100000",
                                               "--out", str(out)]) \
            == cli.EXIT_CONFIG
        assert "workers cannot exceed 64" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_writes_one_file_per_variant(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "sweep",
                            lambda cfg: (seen.append(cfg), fake_curve(cfg))[1])
        outdir = tmp_path / "fig3"
        assert cli.main(["simulate", "--preset", "fig3_interleaver",
                         "--out", str(outdir)]) == cli.EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == \
            ["adversarial.csv", "structured.csv"]
        assert [c.label for c in seen] == ["structured", "adversarial"]

    def test_variant_and_seed_selection(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "sweep",
                            lambda cfg: (seen.append(cfg), fake_curve(cfg))[1])
        out = tmp_path / "adv.csv"
        assert cli.main(["simulate", "--preset", "fig3_interleaver",
                         "--variant", "adversarial", "--seed", "99",
                         "--out", str(out)]) == cli.EXIT_OK
        assert out.exists()
        assert len(seen) == 1
        assert seen[0].label == "adversarial"
        assert seen[0].master_seed == 100   # variant offset on top of --seed
        assert cli.main(["simulate", "--preset", "fig3_interleaver",
                         "--variant", "imaginary",
                         "--out", str(out)]) == cli.EXIT_CONFIG

    def test_config_overrides_apply(self, cfg_file, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "sweep",
                            lambda cfg: (seen.append(cfg), fake_curve(cfg))[1])
        assert cli.main(["simulate", "--config", str(cfg_file),
                         "--seed", "55", "--workers", "2",
                         "--out", str(tmp_path / "x.csv")]) == cli.EXIT_OK
        assert seen[0].master_seed == 55
        assert seen[0].workers == 2


class TestAnalyze:
    def test_bound_csv_structure(self, cfg_file, tmp_path):
        out = tmp_path / "bounds.csv"
        assert cli.main(["analyze", "--config", str(cfg_file),
                         "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("# alpha_min_leading=")
        assert lines[2] == "# coverage_ok=1"
        assert lines[3] == cli.ANALYZE_CSV_HEADER
        rows = np.array([[float(tok) for tok in ln.split(",")]
                         for ln in lines[4:]])
        assert rows.shape == (3, 5)
        np.testing.assert_allclose(rows[:, 0], [0.0, 4.0, 8.0])
        # the union bound counts the leading event at least once
        assert (rows[:, 3] >= rows[:, 1]).all()
        assert (np.diff(rows[:, 3]) < 0).all()
        np.testing.assert_allclose(rows[:, 4], rows[0, 4])
        assert rows[0, 4] == pytest.approx(2.0)   # one pair, two paths

    def test_coverage_failure_reports_infinite_bound(self, tmp_path):
        text = TINY_CFG.replace("n_s = 1", "n_s = 2") \
                       .replace("modulation = bpsk",
                                "modulation = bpsk\ninterleaver = adversarial")
        p = tmp_path / "adv.cfg"
        p.write_text(text)
        out = tmp_path / "bounds.csv"
        assert cli.main(["analyze", "--config", str(p),
                         "--out", str(out)]) == cli.EXIT_OK
        content = out.read_text()
        assert "# coverage_ok=0" in content
        assert "inf" in content


    def test_one_spectrum_per_code_per_call(self, tmp_path, monkeypatch):
        built = []

        def counting(trellis, d_max):
            built.append(trellis.spec)
            return distance_spectrum(trellis, d_max)
        monkeypatch.setattr(cli, "distance_spectrum", counting)
        for _ in range(2):
            assert cli.main(["analyze", "--preset", "fig6_fading",
                             "--out", str(tmp_path / "fig6")]) == cli.EXIT_OK
        # four variants share one code; the second call builds it again
        assert len(built) == 2

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_catastrophic_code_exits_1(self, tmp_path, capsys, command):
        p = tmp_path / "cat.cfg"
        p.write_text(TINY_CFG.replace("generators = 5,7", "generators = 3,5"))
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", str(p),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "catastrophic" in capsys.readouterr().err
        assert not out.exists()


class TestChannelStats:
    def test_spectrum_preset(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert cli.main(["channel-stats", "--preset", "fig2_spectrum",
                         "--draws", "5", "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,singular_value,predicted_value"
        assert len(lines) == 1 + 32        # min(2*16, 2*32) modes
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) > 0
        assert "wrote" in capsys.readouterr().out

    def test_from_config_file(self, cfg_file, tmp_path):
        out = tmp_path / "spec.csv"
        assert cli.main(["channel-stats", "--config", str(cfg_file),
                         "--draws", "8", "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4         # 4 x 4 composite channel
        sv = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert np.all(np.diff(sv) <= 1e-12)

    def test_ber_preset_uses_first_variant_profile(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert cli.main(["channel-stats", "--preset", "fig4_streams",
                         "--draws", "3", "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 16        # min(1*16, 3*32) modes

    def test_spectrum_preset_rejects_config_and_variant(self, cfg_file,
                                                        tmp_path, capsys):
        out = tmp_path / "spec.csv"
        base = ["channel-stats", "--preset", "fig2_spectrum", "--draws", "2",
                "--out", str(out)]
        assert cli.main(base + ["--config", str(cfg_file)]) == cli.EXIT_CONFIG
        assert "exactly one" in capsys.readouterr().err
        assert cli.main(base + ["--variant", "nope"]) == cli.EXIT_CONFIG
        assert "unknown variant" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_variant_exits_1(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert cli.main(["channel-stats", "--preset", "fig4_streams",
                         "--variant", "nope", "--draws", "2",
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "unknown variant" in capsys.readouterr().err
        assert not out.exists()

    def test_variant_selects_its_config(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert cli.main(["channel-stats", "--preset", "fig4_streams",
                         "--variant", "ns4", "--draws", "3",
                         "--out", str(out)]) == cli.EXIT_OK
        sv, pred = spectrum_stats(preset("fig4_streams").variants["ns4"], 3)
        want = [f"{k + 1},{sv[k]:.12e},{pred[k]:.12e}" for k in range(sv.size)]
        assert out.read_text().strip().splitlines()[1:] == want

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_spectrum_preset_draws_the_fig3_structured_channel(self, tmp_path,
                                                               seed):
        # 40 draws cross a chunk boundary
        outs = []
        for name in ("fig2_spectrum", "fig3_interleaver"):
            outs.append(tmp_path / f"{name}.csv")
            assert cli.main(["channel-stats", "--preset", name, "--seed", seed,
                             "--draws", "40", "--out", str(outs[-1])]) \
                == cli.EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_oversized_channel_matrix_exits_1_before_any_draw(
            self, tmp_path, monkeypatch, capsys):
        # a 8192 x 8192 composite: the sweep's steering factors fit the
        # budget, but one channel matrix is 1 GiB
        text = (TINY_CFG.replace("m_r = 1", "m_r = 2")
                .replace("m_t = 1", "m_t = 2")
                .replace("n_r = 4", "n_r = 4096")
                .replace("n_t = 4", "n_t = 4096"))
        assert parse_config(text).n_r == 4096
        p = tmp_path / "large.cfg"
        p.write_text(text)

        def forbidden(*args, **kwargs):
            raise AssertionError("a channel was drawn")
        monkeypatch.setattr(harness, "draw_channels", forbidden)
        out = tmp_path / "spec.csv"
        assert cli.main(["channel-stats", "--config", str(p), "--draws", "2",
                         "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"takes {16 * 8192 * 8192} bytes" in err
        assert "Traceback" not in err
        assert not out.exists()
