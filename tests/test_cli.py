"""Command-line interface: argument parsing, exit codes, output formats."""

import contextlib
import errno
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locsim.simulator as simulator
from locsim.cli import FIGURES, MAX_LIST_VALUES, main, parse_float_list, parse_seed_list
from locsim.config import DEFAULTS, build_simulation_config, resolve_config
from locsim.errors import ConfigError
from locsim.mobility import MAX_DURATION_S, generate_trace
from locsim.simulator import MAX_EVENTS, MAX_LOGGED_EVENTS, event_bounds, sweep, sweep_means

SUMMARY_HEADER = "kind,alpha,beta,seed,total_energy_mJ,satisfaction,fix_count,sample_count"
GOLDEN_SEED7_ROW = "adaptive,0.500000,1.000000,7,149185.000000,0.655144,230,322"
DEFAULT_SEED1_ROW = "adaptive,0.500000,1.000000,1,162550.000000,0.686712,219,312"
SIMULATE_60 = ["simulate", "--duration", "60"]
SWEEP_60 = ["sweep", "--duration", "60", "--out", "{tmp}/grid.csv"]
EBADF_LINE = f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}"
ENOSPC_LINE = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_redirected(tmp_path, argv, redirect):
    """``python -m locsim argv`` under the shell redirection ``redirect``."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "locsim",
         *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, timeout=60,
    )


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
        for bad in (
            "",
            "a,b",
            "1:2",
            "1:2:3:4",
            # Rounding to 10 decimals would collapse or shift these values.
            "0.5:0.50000000003:0.00000000001",
            "1e-12:2e-12:1e-13",
        ):
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

    @pytest.mark.parametrize("name", ["a,b", ""], ids=["comma", "empty"])
    def test_invalid_method_name_exits_2(self, tmp_path, capsys, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"methods = {name}:10:5\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"error: invalid method name {name!r}"

    def test_resolve_config_refuses_an_unknown_key(self):
        # The CLI passes only DEFAULTS keys; the check guards library callers.
        with pytest.raises(ConfigError, match="unknown config key 'speed'"):
            resolve_config({"speed": 1})

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

    def test_oversized_t1_exits_2_without_traceback(self, tmp_path):
        # 2**63 used to overflow numpy's int64 in the trace's period check.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t1_s = 9223372036854775808\n")
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--config", str(cfg)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert f"error: t1_s must be at most {MAX_DURATION_S}" in proc.stderr
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

    def test_oversized_event_log_exits_2_without_traceback(self, tmp_path):
        # Allowed about 5.1e7 events: under MAX_EVENTS, so without --out it
        # would run (not done here), but its event log could take about 10 GB.
        config = build_simulation_config({**DEFAULTS, "duration_s": 1_000_000, "beta": 0.01})
        assert MAX_LOGGED_EVENTS < sum(event_bounds(config)[:2]) < MAX_EVENTS
        pytest.importorskip("resource")
        out = tmp_path / "e.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "simulate", "--duration", "1000000",
             "--beta", "0.01", "--out", str(out)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert "--out" in proc.stderr.splitlines()[-1]
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

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
        code, out, err = run_cli(capsys, "simulate", "--out", str(target))
        assert code == 1
        assert err != ""
        assert out == ""

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

    def test_grid_of_empty_runs_exits_2_without_traceback(self, tmp_path):
        # 5 * 10^7 runs of 0 s, each allowed 2 events: about 25 minutes of
        # runs and rows held in memory before each run was charged a floor.
        pytest.importorskip("resource")
        out = tmp_path / "grid.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "locsim", "sweep", "--alphas", "0.01:1:0.01",
             "--betas", "0.01:1:0.01", "--seeds", "1..2500", "--kinds", "adaptive,fixed:gps",
             "--duration", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert "50000000 runs allow more than 1e+08" in proc.stderr
        assert "Traceback" not in proc.stderr
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

    def test_default_figures_are_pinned_byte_for_byte(self, tmp_path, capsys):
        # The sha256 of each output of the default paper ensemble (alphas 0.5
        # and 0.3, betas 0.1..1.0, seeds 1..30, 3,600 s), as first recorded.
        expected = {
            "fig2.csv": "d19c64f917a7415a2fac3c2fd132c063a0c745daa7e8e8b869d2ff6755a15fb8",
            "fig3.csv": "8f060dce8efa2e640c8c2aae61dd13c7c477d456632e92329a6786004097168d",
            "fig4.csv": "8d0e627fa3fc92c2dbffc51813053b115b06d0c3335a65166acddcdb9053b337",
            "fig5.csv": "5f71f3c0dd08193ed9235bf501efe14050a7d3d767689cb343c3de1f8448600a",
            "stdout": "748a51de38ed792fc9f65bab4654d9b77c2399ea426c1ca153c4cdba296a5131",
        }
        out_dir = tmp_path / "figs"
        code, out, _ = run_cli(capsys, "reproduce-figures", "--out", str(out_dir))
        assert code == 0
        outputs = {f"{name}.csv": (out_dir / f"{name}.csv").read_bytes() for name, _, _ in FIGURES}
        outputs["stdout"] = out.encode()
        assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == expected

    def test_one_sweep_with_one_trace_per_seed(self, tmp_path, capsys, monkeypatch):
        traced = []

        def spy(params):
            traced.append(params.seed)
            return generate_trace(params)

        out_dir = tmp_path / "figs"
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "generate_trace", spy)
            code, _, _ = run_cli(capsys, "reproduce-figures", "--duration", "120", "--out", str(out_dir))
        assert code == 0
        seeds = list(range(1, 31))
        assert traced == seeds

        # Each figure row is its alpha's own sweep means, formatted "%.6f".
        base = build_simulation_config(dict(DEFAULTS, duration_s=120))
        betas = [round(0.1 * i, 10) for i in range(1, 11)]
        for alpha, (energy_name, sat_name) in ((0.5, ("fig2", "fig3")), (0.3, ("fig4", "fig5"))):
            means = sweep_means(sweep(base, [alpha], betas, seeds, ["fixed:gps", "adaptive"]))
            gps = {m.beta: m for m in means if m.kind == "fixed:gps"}
            ours = {m.beta: m for m in means if m.kind == "adaptive"}
            for name, field in ((energy_name, "total_energy_mJ"), (sat_name, "satisfaction")):
                lines = (out_dir / f"{name}.csv").read_text().splitlines()[1:]
                assert lines == [
                    "%.6f,%.6f,%.6f" % (b, getattr(gps[b], field), getattr(ours[b], field))
                    for b in betas
                ]


# (sane, extreme) values per config key for the fuzz below. Each drawn
# file gives up to two keys an extreme value (extreme floats and integers,
# malformed text) and its other keys a sane one, so each extreme value
# meets an otherwise valid config. Every positive room (requirement minus
# accuracy) the values can make is at least 1 m and every accepted horizon
# at most 120 s, so an accepted run stays short.
EXTREME = ["5e-324", "1e308", "inf", "-inf", "nan", "-0.0", "0", "-1", "", "x"]
HUGE_INTS = ["-1", str(2**63), str(2**64), "1.5", "x"]
FIELDS = {
    "duration_s": (["0", "1", "60", "120"], HUGE_INTS),
    "t1_s": (["1", "3", "200"], HUGE_INTS),
    "v_min": (["1"], EXTREME),
    "v_max": (["10", "20"], EXTREME),
    "v0": (["2", "10"], EXTREME),
    "seed": (["0", "1", "7", str(2**64 - 1)], HUGE_INTS),
    "alpha": (["0.3", "0.5", "1"], EXTREME),
    "beta": (["0.1", "0.5", "1"], [*EXTREME, "1e-9", "1.5"]),
    "t_min_refix_s": (["0.5", "1"], [*EXTREME, "1e-9"]),
    "strategy": (["adaptive", "fixed:gps"], ["fixed:m0", "fixed:", "fixed:nope", "gps", ""]),
}
NAMES = (["gps", "wifi", "m0"], ["", "a,b", "gps "])
ACCURACIES = (["5e-324", "1", "10", "50", "150"], [*EXTREME, "1e308"])
ENERGIES = (["5e-324", "20", "1425"], [*EXTREME, "1e308"])
STARTS = (["60", "119", "120", "5e-324"], [*EXTREME[1:], "0"])
REQUIREMENTS = (["1", "11", "51", "300"], [*EXTREME, "5e-324", "1e308"])


def menu(values, bad):
    """A value from the extreme half of the (sane, extreme) pair when ``bad``,
    else from the sane half."""
    return st.sampled_from(values[bad])


def part(values, bad):
    """A sane value, or when ``bad`` a value from either half, so that a
    malformed method or schedule entry can have valid parts."""
    return st.sampled_from(values[0] + values[1] if bad else values[0])


def method_text(bad):
    entry = st.builds(
        "{}:{}:{}".format, part(NAMES, bad), part(ACCURACIES, bad), part(ENERGIES, bad)
    )
    if bad:
        entry |= st.sampled_from(["gps:10", "gps:10:1425:1", "gps:x:1", " ", ":::"])
    return st.lists(entry, min_size=0 if bad else 1, max_size=3).map(";".join)


def schedule_text(bad):
    entry = st.builds("{}:{}".format, part(STARTS, bad), part(REQUIREMENTS, bad))
    first = st.builds("0:{}".format, part(REQUIREMENTS, bad))
    if bad:
        entry |= st.sampled_from(["0:1:2", "a:b", " "])
        first |= st.just("")
    return st.builds(lambda a, b: ",".join([a, *b]), first, st.lists(entry, max_size=3))


@st.composite
def config_text(draw):
    """Config-file text: a horizon and some other keys once each, then at
    times an unknown or duplicate key or a malformed line."""
    bad = draw(st.lists(st.sampled_from(list(DEFAULTS)), unique=True, max_size=2))
    others = draw(st.lists(st.sampled_from(list(DEFAULTS)), unique=True, max_size=5))
    keys = list(dict.fromkeys(["duration_s", *bad, *others]))
    lines = []
    for key in keys:
        if key == "methods":
            value = draw(method_text(key in bad))
        elif key == "schedule":
            value = draw(schedule_text(key in bad))
        else:
            value = draw(menu(FIELDS[key], key in bad))
        lines.append(f"{key} = {value}")
    lines.append(draw(st.sampled_from(["", "", "# note", "speed = 1", "seed = 1", "seed 1", "= 1"])))
    return "\n".join(draw(st.permutations(lines)))


class TestDrawnConfigFiles:
    @settings(max_examples=300)
    @given(text=config_text())
    # Each run costs one 1e308-mJ fix, so the two seeds' energies sum past
    # the float range although their mean does not.
    @example(text="duration_s = 0\nmethods = gps:5e-324:1e308\n")
    def test_every_command_exits_0_or_2(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(text)
            calls = [
                ["simulate", "--config", str(cfg)],
                ["simulate", "--config", str(cfg), "--out", str(Path(tmp) / "e.csv")],
                ["sweep", "--config", str(cfg), "--alphas", "0.3,1", "--seeds", "1..2",
                 "--out", str(Path(tmp) / "grid.csv")],
            ]
            for argv in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        code = main(argv)
                assert code in (0, 2), (argv, err.getvalue())
                if code == 2:
                    assert err.getvalue().splitlines()[-1].startswith("error: ")


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

    @pytest.mark.parametrize(
        ("argv", "stderr_gone"),
        [
            (["simulate", "--duration", "60"], False),
            (["simulate", "--duration", "60"], True),
            (["sweep", "--duration", "60", "--out", "{tmp}/grid.csv"], True),
        ],
        ids=["simulate-stdout", "simulate-both", "sweep-both"],
    )
    def test_gone_reader_exits_1_without_traceback(self, tmp_path, argv, stderr_gone):
        # With PYTHONUNBUFFERED unset, the summary waits in stdout's buffer
        # and a reader that has gone shows only when it is flushed.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "locsim", *(a.format(tmp=tmp_path) for a in argv)],
                stdout=write, stderr=write if stderr_gone else subprocess.PIPE,
                env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        if not stderr_gone:
            err = proc.stderr.decode()
            assert "Exception ignored" not in err
            assert "Traceback" not in err
            assert err.splitlines()[-1] == "error: [Errno 32] Broken pipe"

    @pytest.mark.parametrize(
        ("argv", "redirect", "last"),
        [
            (SIMULATE_60, "1>&-", "error: stdout is closed"),
            (SWEEP_60, "1>&-", "error: stdout is closed"),
            (SIMULATE_60, "2>&-", "error: stderr is closed"),
            (SIMULATE_60, "2</dev/null", EBADF_LINE),
            (SIMULATE_60, "2>/dev/full", ENOSPC_LINE),
            (SWEEP_60, "2</dev/null", EBADF_LINE),
            (SWEEP_60, "2>/dev/full", ENOSPC_LINE),
            (SIMULATE_60, "1</dev/null", EBADF_LINE),
            (SIMULATE_60, "1>/dev/full", ENOSPC_LINE),
        ],
        ids=[
            "simulate-stdout", "sweep-stdout", "simulate-stderr",
            "simulate-stderr-readonly", "simulate-stderr-full",
            "sweep-stderr-readonly", "sweep-stderr-full",
            "simulate-stdout-readonly", "simulate-stdout-full",
        ],
    )
    def test_closed_stream_exits_1_without_traceback(self, tmp_path, argv, redirect, last):
        # A stream that is closed, read-only or full is an I/O error; the
        # error line goes to the other stream.
        proc = run_redirected(tmp_path, argv, redirect)
        other = (proc.stderr if redirect.startswith("1") else proc.stdout).decode()
        assert proc.returncode == 1
        assert "Traceback" not in other
        assert other.splitlines()[-1] == last
        if redirect.endswith("&-"):
            # A descriptor closed at start-up leaves its sys stream None,
            # and nothing runs, not even the config echo.
            assert other == last + "\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("redirect", ["1</dev/null", "1>/dev/full"], ids=["readonly", "full"])
    def test_sweep_exits_0_with_a_stdout_it_never_writes(self, tmp_path, redirect):
        proc = run_redirected(tmp_path, SWEEP_60, redirect)
        assert proc.returncode == 0
        assert proc.stderr.decode().splitlines()[-1].startswith("wrote 1 rows")
        assert (tmp_path / "grid_mean.csv").exists()

    @pytest.mark.parametrize("name", ["stdout", "stderr"])
    @pytest.mark.parametrize("mode", ["r", "w"], ids=["readonly", "full"])
    def test_failed_stream_in_process_returns_1(self, tmp_path, capsys, monkeypatch, name, mode):
        readonly = tmp_path / "stream.txt"
        readonly.touch()
        with (
            open(readonly if mode == "r" else "/dev/full", mode) as stream,
            monkeypatch.context() as patch,
        ):
            patch.setattr(sys, name, stream)
            code = main(SIMULATE_60)
        assert code == 1
        captured = capsys.readouterr()
        other = captured.err if name == "stdout" else captured.out
        assert other.splitlines()[-1] == ("error: not writable" if mode == "r" else ENOSPC_LINE)
