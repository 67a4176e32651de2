"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

They are kept out of the package's suite (``tests/``) because they run the
benchmark's workloads, which take several seconds each.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import speed
import tracer
import workloads

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI = workloads.import_cli()


def _rows(call):
    """Run one call; return its summary rows keyed by (kind, alpha, beta, seed)."""
    _, rc, out, err = workloads.invoke(CLI.main, call)
    res = workloads.check_call(call, rc, out, err)
    assert res.problems == []
    text = call.sweep_out.read_text() if call.sweep_out is not None else out
    return {tuple(line.split(",")[:4]): line for line in text.splitlines()[1:]}


def _pass_rows(workload):
    rows = {}
    for call in workload.calls:
        rows.update(_rows(call))
    return rows


def test_ensemble_calls_make_the_rows_of_one_full_sweep(tmp_path):
    ensemble = workloads.build("ensemble", workloads.DEFAULT_SEED, tmp_path)
    seeds = ",".join(str(s) for s in workloads.sim_seeds(workloads.DEFAULT_SEED))
    first = ensemble.calls[0]
    argv = list(first.argv)
    argv[argv.index("--seeds") + 1] = seeds
    argv[-1] = str(tmp_path / "full.csv")
    full = workloads.Call("full", tuple(argv), runs=first.runs * len(ensemble.calls),
                          sweep_out=tmp_path / "full.csv", mean_rows=first.mean_rows)
    assert _pass_rows(ensemble) == _rows(full)


@pytest.mark.parametrize("bench_seed", [workloads.DEFAULT_SEED, 7])
def test_event_log_rows_equal_ensemble_rows(tmp_path, bench_seed):
    sweep_rows = _pass_rows(workloads.build("ensemble", bench_seed, tmp_path))
    event_log = workloads.build("event_log", bench_seed, tmp_path)
    for call in event_log.calls:
        for key, line in _rows(call).items():
            assert line == sweep_rows[key], call.key


def _simulate_call(tmp_path, kind):
    workload = workloads.build("event_log", workloads.DEFAULT_SEED, tmp_path)
    call = next(c for c in workload.calls if c.key.startswith(kind + "/"))
    _, rc, out, err = workloads.invoke(CLI.main, call)
    return workload, call, rc, out, err


def test_check_flags_a_missing_event_row(tmp_path):
    workload, call, rc, out, err = _simulate_call(tmp_path, "adaptive")
    assert workloads.check_call(call, rc, out, err).problems == []
    lines = call.events_out.read_text().splitlines(keepends=True)
    fix_row = next(i for i, line in enumerate(lines) if ",fix," in line and i > 1)
    call.events_out.write_text("".join(lines[:fix_row] + lines[fix_row + 1:]))
    problems = workloads.check_call(call, rc, out, err).problems
    assert any("fix rows" in p for p in problems)


def test_check_flags_gps_energy_off_by_one_fix(tmp_path):
    workload, call, rc, out, err = _simulate_call(tmp_path, "fixed:gps")
    header, row = out.splitlines()
    fields = row.split(",")
    fields[4] = f"{float(fields[4]) + workloads.GPS_ENERGY_MJ:.6f}"
    tampered = f"{header}\n{','.join(fields)}\n"
    problems = workloads.check_call(call, rc, tampered, err).problems
    assert any("fixed:gps energy" in p for p in problems)


def test_session_fails_calls_whose_digest_differs_from_reference(tmp_path, monkeypatch):
    workload = workloads.build("event_log", workloads.DEFAULT_SEED, tmp_path)
    workload.calls = workload.calls[:2]
    reference = dict(workloads.load_reference(workload))
    reference[f"{workload.calls[1].key}/events"] = "0" * 64
    monkeypatch.setattr(workloads, "load_reference", lambda _w: reference)
    session = run.Session(workload, CLI.main)
    session.run_pass()
    assert (session.attempted, session.failed) == (2, 1)


def test_traced_pass_self_times_and_layer_counts(tmp_path):
    workload = workloads.build("event_log", workloads.DEFAULT_SEED, tmp_path)
    workload.calls = workload.calls[:4]
    session = run.Session(workload, CLI.main)
    spans = tracer.Tracer()
    p = session.traced_pass(spans)
    assert session.failed == 0
    assert tracer.check_self_times(spans.spans) == []
    assert p.layers["cli.main.calls"] == 4
    assert p.layers["simulator.run.calls"] == 4
    assert p.layers["mobility.traces_per_run"] == 1.0
    assert p.layers["strategy.begin_epoch.calls"] == p.layers["sim.fixes"]
    assert p.layers["strategy.on_velocity_sample.calls"] == p.layers["sim.samples"]
    assert p.layers["simulator.satisfaction.spans"] == p.layers["sim.fixes"]
    # Tracing is removed again after the pass.
    assert not hasattr(CLI.run, "__wrapped__") and CLI.run.__name__ == "run"


def test_reference_latencies_divide_by_the_slowdown_around_each_call():
    ref = speed.REFERENCE_S
    p = run.Pass(wall_s=0.3, latencies=[0.1, 0.2], calibration=[ref, 3 * ref, ref], counts={})
    assert p.reference_latencies() == [0.1 / 2.0, 0.2 / 2.0]


def test_missing_layer_function_is_reported_absent(monkeypatch):
    gone = ("locsim.simulator", "satisfaction_routine_that_was_removed", "simulator.gone", None)
    monkeypatch.setattr(tracer, "SPAN_TARGETS", tracer.SPAN_TARGETS + (gone,))
    t = tracer.Tracer()
    assert t.absent == ["simulator.gone"]
    with t.installed():
        pass


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_follows_the_contract(trace, section):
    proc = _bench("--workload", "event_log", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ensemble", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((workloads.HERE / "layer_map.json").read_text())
    assert set(layer_map["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)
