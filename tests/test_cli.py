"""Command-line interface: argument parsing, exit codes, output formats."""

import subprocess
import sys

import pytest

import locsim.simulator
from locsim.cli import MAX_LIST_VALUES, main, parse_float_list, parse_seed_list
from locsim.errors import ConfigError
from locsim.mobility import MAX_DURATION_S

SUMMARY_HEADER = "kind,alpha,beta,seed,total_energy_mJ,satisfaction,fix_count,sample_count"
GOLDEN_SEED7_ROW = "adaptive,0.500000,1.000000,7,149185.000000,0.655144,230,322"
DEFAULT_SEED1_ROW = "adaptive,0.500000,1.000000,1,162550.000000,0.686712,219,312"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cap_address_space():
    # Keeps a subprocess that regresses from allocating anything large.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestListParsing:
    def test_range_string_inclusive(self):
        vals = parse_float_list("0.1:1.0:0.1")
        assert vals == [pytest.approx(0.1 * i) for i in range(1, 11)]
        assert vals[-1] == 1.0

    def test_comma_list(self):
        assert parse_float_list("0.3,0.5") == [0.3, 0.5]

    def test_bad_float_list(self):
        for bad in ("", "a,b", "1:2", "1:2:3:4"):
            with pytest.raises(ConfigError):
                parse_float_list(bad)

    def test_seed_range(self):
        assert parse_seed_list("1..4") == [1, 2, 3, 4]
        assert parse_seed_list("7") == [7]
        assert parse_seed_list("3,1,2") == [3, 1, 2]

    def test_bad_seed_list(self):
        for bad in ("", "4..1", "a", "1..b"):
            with pytest.raises(ConfigError):
                parse_seed_list(bad)

    def test_range_length_is_bounded(self):
        assert MAX_LIST_VALUES == 100_000
        assert len(parse_float_list("0:99999:1")) == MAX_LIST_VALUES
        assert len(parse_seed_list("1..100000")) == MAX_LIST_VALUES
        for parse, text in ((parse_float_list, "0:100000:1"), (parse_seed_list, "1..100001")):
            with pytest.raises(ConfigError, match="100001 values, more than 100000"):
                parse(text)

    @pytest.mark.parametrize("flag, text", [("--betas", "0:100000:1"), ("--seeds", "1..100001")])
    def test_too_long_range_exits_2(self, tmp_path, capsys, flag, text):
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(capsys, "sweep", flag, text, "--out", str(out))
        assert code == 2
        assert "more than 100000" in err
        assert not out.exists()


class TestSimulate:
    def test_golden_run_seed_7(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--seed", "7")
        assert code == 0
        assert out == f"{SUMMARY_HEADER}\n{GOLDEN_SEED7_ROW}\n"

    def test_invalid_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--beta", "0")
        assert code == 2
        assert "beta must satisfy 0 < beta <= 1" in err

    def test_zero_duration(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--duration", "0")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[5] == "1.000000"
        assert row[6] == "1"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# test config\nseed = 7\nalpha = 0.3\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--alpha", "0.5")
        assert code == 0
        assert out.splitlines()[1] == GOLDEN_SEED7_ROW
        assert "alpha = 0.5" in err
        assert "seed = 7" in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("velocity_cap = 3\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "velocity_cap" in err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--duration", "10")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("seed = 1.5\n", "error: seed must be an integer, got '1.5'"),
            ("alpha = fast\n", "error: alpha must be a number, got 'fast'"),
            ("seed = 1\nseed = 2\n", "error: line 2: duplicate config key 'seed'"),
            ("seed 1\n", "error: line 1: expected 'key = value', got 'seed 1'"),
        ],
    )
    def test_bad_config_file_exits_2_with_message(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == message + "\n"

    def test_non_finite_method_accuracy_exits_2_without_traceback(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods = gps:nan:1425\n")
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "accuracy_m must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_subnormal_budget_exits_2_without_traceback(self, tmp_path):
        # The only budget, 1e-323 - 5e-324 m, lasts (5e-324 / 2) s: 0 after rounding.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods = a:5e-324:1\nschedule = 0:1e-323\nv0 = 2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "underflow" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            # 1e308 mJ over 0.5 m of room: the cost rate overflows to inf.
            ("methods = gps:10:1e308\nschedule = 0:10.5\n", "method gps: its cost rate"),
            # No time to simulate, but the room's seconds underflow at 2 * v_max.
            (
                "methods = a:5e-324:1\nschedule = 0:1e-323\nv0 = 2\nduration_s = 0\n",
                "method a: the budget",
            ),
        ],
        ids=["overflow", "underflow"],
    )
    def test_cost_rate_out_of_range_exits_2_naming_the_method(self, tmp_path, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_huge_duration_exits_2_without_traceback(self):
        # A trace of 10^11 s would need over 100 GiB.
        pytest.importorskip("resource")
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--duration", "100000000000"],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert f"duration_s must be at most {MAX_DURATION_S}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        ("flags", "config", "message"),
        [
            # About 10^9 samples per epoch.
            (["--beta", "1e-9"], "", "more than 1e+08"),
            # No method beats 5 m, so the run re-fixes every nanosecond.
            ([], "t_min_refix_s = 1e-9\nschedule = 0:5\n", "more than 1e+08"),
            # A room of 1e-7 m.
            ([], "schedule = 0:10.0000001\nmethods = gps:10:1425\n", "more than 1e+08"),
            # At t = 1e5, 1e-12 s is below the float spacing: time would stand still.
            (
                [],
                "duration_s = 100001\nt_min_refix_s = 1e-12\n"
                "schedule = 0:500,100000:5,100000.00001:500\n",
                "too short to advance the event time",
            ),
        ],
        ids=["beta", "refix", "room", "stall"],
    )
    def test_runaway_config_exits_2_without_traceback(self, tmp_path, flags, config, message):
        pytest.importorskip("resource")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "e.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--config", str(cfg), *flags,
             "--out", str(out)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_event_log_builds_no_event_records(self, tmp_path, capsys, monkeypatch):
        argv = ["simulate", "--seed", "3", "--beta", "0.3", "--duration", "900", "--out"]
        want = tmp_path / "want.csv"
        assert run_cli(capsys, *argv, str(want))[0] == 0

        def no_event(*args):
            raise AssertionError("an Event was built")

        monkeypatch.setattr(locsim.simulator, "Event", no_event)
        got = tmp_path / "got.csv"
        assert run_cli(capsys, *argv, str(got))[0] == 0
        assert got.read_bytes() == want.read_bytes()

    def test_event_log_written_and_deterministic(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run_cli(capsys, "simulate", "--seed", "3", "--out", str(path))
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0] == "time_s,kind,method,energy_mJs,position_m,velocity_mps,ve_mps".replace(
            "mJs", "mJ"
        )
        assert lines[1].startswith("0.000000,fix,")

    def test_out_into_missing_dir_exits_1(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "events.csv"
        code, _, err = run_cli(capsys, "simulate", "--out", str(target))
        assert code == 1
        assert err != ""

    def test_stdout_identical_across_invocations(self, capsys):
        _, first, _ = run_cli(capsys, "simulate", "--seed", "11")
        _, second, _ = run_cli(capsys, "simulate", "--seed", "11")
        assert first == second

    def test_no_flag_value_leaks_between_calls(self, capsys):
        assert run_cli(capsys, "sweep")[0] == 2
        code, out, _ = run_cli(capsys, "simulate", "--seed", "7")
        assert (code, out) == (0, f"{SUMMARY_HEADER}\n{GOLDEN_SEED7_ROW}\n")
        code, _, err = run_cli(capsys, "simulate", "--duration", "100")
        assert code == 0
        assert "duration_s = 100\n" in err
        code, out, err = run_cli(capsys, "simulate")
        assert code == 0
        assert "duration_s = 3600\n" in err
        assert "seed = 1\n" in err
        assert out == f"{SUMMARY_HEADER}\n{DEFAULT_SEED1_ROW}\n"


class TestSweepCommand:
    def test_grid_rows_and_mean_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--duration", "600", "--alphas", "0.3,0.5", "--betas", "0.5,1.0",
            "--seeds", "1..3", "--kinds", "adaptive,fixed:gps", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 1 + 2 * 2 * 3 * 2
        mean_path = tmp_path / "grid_mean.csv"
        mean_lines = mean_path.read_text().splitlines()
        assert mean_lines[0] == "kind,alpha,beta,total_energy_mJ,satisfaction,fix_count,sample_count"
        assert len(mean_lines) == 1 + 2 * 2 * 2

    def test_singleton_sweep_matches_simulate(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--alphas", "0.5", "--betas", "1.0", "--seeds", "7",
            "--kinds", "adaptive", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == GOLDEN_SEED7_ROW

    def test_out_flag_required(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--seeds", "1")
        assert code == 2

    def test_oversized_grid_exits_2_without_traceback(self, tmp_path):
        # 2 * 10^9 runs; before the grid was bounded this ran until killed.
        pytest.importorskip("resource")
        out = tmp_path / "grid.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "sweep", "--alphas", "0.01:1:0.01",
             "--betas", "0.01:1:0.01", "--seeds", "1..100000", "--kinds", "adaptive,fixed:gps",
             "--duration", "10", "--out", str(out)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert "2000000000 runs allow more than 1e+08" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--betas", "--alphas"])
    @pytest.mark.parametrize("text", ["0.1:nan:0.1", "0.1:inf:0.1", "0.1:1:nan", "0:1e300:1e-300"])
    def test_non_finite_range_exits_2_without_traceback(self, tmp_path, flag, text):
        out = tmp_path / "grid.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "sweep", flag, text, "--seeds", "1",
             "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


class TestReproduceFigures:
    def test_writes_four_series(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code, _, _ = run_cli(
            capsys,
            "reproduce-figures", "--duration", "900", "--out", str(out_dir),
        )
        assert code == 0
        for name in ("fig2", "fig3", "fig4", "fig5"):
            lines = (out_dir / f"{name}.csv").read_text().splitlines()
            assert lines[0] == "beta,gps_value,ours_value"
            assert len(lines) == 11
            betas = [float(l.split(",")[0]) for l in lines[1:]]
            assert betas == [pytest.approx(0.1 * i) for i in range(1, 11)]

    def test_energy_series_favors_adaptive(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        run_cli(capsys, "reproduce-figures", "--duration", "900", "--out", str(out_dir))
        for line in (out_dir / "fig2.csv").read_text().splitlines()[1:]:
            _, gps_e, ours_e = (float(x) for x in line.split(","))
            assert ours_e < gps_e

    def test_satisfaction_series_in_unit_interval(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        run_cli(capsys, "reproduce-figures", "--duration", "900", "--out", str(out_dir))
        for name in ("fig3", "fig5"):
            for line in (out_dir / f"{name}.csv").read_text().splitlines()[1:]:
                _, gps_s, ours_s = (float(x) for x in line.split(","))
                assert 0.0 <= gps_s <= 1.0
                assert 0.0 <= ours_s <= 1.0


    def test_prints_per_beta_digest(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "reproduce-figures", "--duration", "120", "--out", str(tmp_path / "figs")
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "beta   energy ours/gps (a=.5, a=.3)   satisfaction ours-gps (a=.5, a=.3)"
        assert [row.split()[0] for row in rows] == [f"{0.1 * i:.1f}" for i in range(1, 11)]
        assert "wrote " not in out
        assert err.count("wrote ") == 4


class TestEntryPoints:
    def test_no_args_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--seed", "7"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == GOLDEN_SEED7_ROW
