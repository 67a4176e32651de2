"""Simulation runs: event protocol, exact metrics, sweeps, CSV output."""

import csv
import io
import math
import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import locsim.simulator as simulator
import locsim.strategy as strategy
from locsim.cli import FIGURE_BETAS
from locsim.config import DEFAULT_SCHEDULE_TEXT, DEFAULTS, build_simulation_config
from locsim.errors import ConfigError
from locsim.mobility import (
    MAX_DURATION_S,
    MobilityParams,
    generate_trace,
    positions_at,
)
from locsim.simulator import (
    EVENT_CSV_HEADER,
    EVENT_FIX,
    EVENT_SAMPLE,
    EVENT_SCHEDULE_CHANGE,
    MAX_EVENTS,
    MAX_LOGGED_EVENTS,
    AccuracySchedule,
    SUMMARY_CSV_HEADER,
    SimulationConfig,
    _satisfaction_exact,
    on_requirement_change,
    parse_schedule,
    event_bounds,
    events_to_csv,
    run,
    summary_to_csv,
    sweep,
    sweep_means,
    RunResult,
)
from locsim.strategy import DEFAULT_METHODS, Method, StrategyConfig

from _events import events
from _traces import hand_trace

GPS, WIFI, GSM = DEFAULT_METHODS


def grid_satisfaction(events, trace, schedule, step_ms=1):
    """Brute-force satisfaction on a time grid; independent of the closed form."""
    duration = trace.params.duration_s
    n_steps = duration * 1000 // step_ms
    t = np.arange(n_steps + 1, dtype=np.float64) * (step_ms / 1000.0)
    knots = np.arange(len(trace.velocities) + 1, dtype=float)
    pos = np.interp(t, knots, trace.cumulative_m)
    fix_t = np.array([e.time_s for e in events if e.kind == EVENT_FIX])
    fix_acc = np.array([e.method.accuracy_m for e in events if e.kind == EVENT_FIX])
    fix_pos = np.interp(fix_t, knots, trace.cumulative_m)
    li = np.searchsorted(fix_t, t, side="right") - 1
    starts = np.array([s for s, _ in schedule.entries])
    reqs = np.array([r for _, r in schedule.entries])
    ri = np.searchsorted(starts, t, side="right") - 1
    ok = (pos - fix_pos[li]) + fix_acc[li] <= reqs[ri] + 1e-9
    return float(np.mean(ok))


class TestAccuracySchedule:
    def test_requirement_is_left_closed(self):
        # Entry 0 holds until the next start; the last one never ends.
        entries = parse_schedule("0:500,600:300").entries
        assert on_requirement_change(entries, 0) == (500.0, 600.0)
        assert on_requirement_change(entries, 1) == (300.0, math.inf)

    def test_change_times(self, make_constant_config):
        result = run(make_constant_config(duration=1800, requirement="0:500,600:300,1200:150"))
        changes = [e.time_s for e in events(result) if e.kind == EVENT_SCHEDULE_CHANGE]
        assert changes == [600.0, 1200.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            AccuracySchedule(())
        with pytest.raises(ConfigError):
            AccuracySchedule(((5.0, 100.0),))
        with pytest.raises(ConfigError):
            AccuracySchedule(((0.0, 100.0), (0.0, 50.0)))
        for bad in (((0.0, -1.0),), ((0.0, 0.0),), ((0.0, 500.0), (10.0, -3.0))):
            with pytest.raises(ConfigError):
                AccuracySchedule(bad)

    def test_parse_rejects_garbage(self):
        for bad in ("", "0", "0:a", "x:1:2"):
            with pytest.raises(ConfigError):
                parse_schedule(bad)


NON_FINITE_CONSTRUCTORS = {
    "method.accuracy_m": lambda x: Method("gps", x, 1425.0),
    "method.energy_mJ": lambda x: Method("gps", 10.0, x),
    "strategy.alpha": lambda x: StrategyConfig(alpha=x, beta=1.0),
    "strategy.beta": lambda x: StrategyConfig(alpha=0.5, beta=x),
    "strategy.t_min_refix_s": lambda x: StrategyConfig(alpha=0.5, beta=1.0, t_min_refix_s=x),
    "schedule.start": lambda x: AccuracySchedule(((0.0, 500.0), (x, 300.0))),
    "schedule.requirement": lambda x: AccuracySchedule(((0.0, 500.0), (600.0, x))),
    "mobility.v_min": lambda x: MobilityParams(duration_s=10, t1_s=3, v_min=x, v0=x),
    "mobility.v_max": lambda x: MobilityParams(duration_s=10, t1_s=3, v_max=x),
    "mobility.v0": lambda x: MobilityParams(duration_s=10, t1_s=3, v0=x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_CONSTRUCTORS))
def test_non_finite_numbers_rejected(field, value):
    with pytest.raises(ConfigError):
        NON_FINITE_CONSTRUCTORS[field](value)


def test_non_integer_values_are_refused_not_truncated():
    # int() would build a 3599-s run from 3599.9, or seed 7 from 7.9.
    for key, value in (("duration_s", 3599.9), ("t1_s", 3.5), ("seed", 7.9)):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            build_simulation_config({**DEFAULTS, key: value})


class TestRunClosedForm:
    def test_adaptive_constant_velocity(self, make_constant_config):
        result = run(make_constant_config())
        assert result.fix_count == 52
        assert result.total_energy_mJ == 1040.0
        assert result.satisfaction == 1.0
        fixes = [e for e in events(result) if e.kind == EVENT_FIX]
        assert [e.time_s for e in fixes] == [70.0 * i for i in range(52)]
        assert all(e.method is GSM for e in fixes)

    def test_fixed_gps_constant_velocity(self, make_constant_config):
        result = run(make_constant_config(kind="fixed:gps"))
        assert result.fix_count == 37
        assert result.total_energy_mJ == 37 * 1425.0
        fixes = [e.time_s for e in events(result) if e.kind == EVENT_FIX]
        assert fixes == [98.0 * i for i in range(37)]

    def test_result_coordinates_come_from_config(self, make_constant_config):
        config = make_constant_config(alpha=0.3, beta=0.2, kind="fixed:gps")
        result = run(config)
        assert (result.kind, result.alpha, result.beta, result.seed) == (
            config.strategy_kind,
            config.strategy_cfg.alpha,
            config.strategy_cfg.beta,
            config.mobility.seed,
        )

    def test_zero_duration_run(self, make_constant_config):
        result = run(make_constant_config(duration=0))
        assert result.fix_count == 1
        assert result.total_energy_mJ == GSM.energy_mJ
        assert result.satisfaction == 1.0
        assert result.sample_count == 0

    def test_initial_fix_is_charged(self, make_constant_config):
        result = run(make_constant_config(duration=10))
        first = events(result)[0]
        assert first.kind == EVENT_FIX and first.time_s == 0.0
        assert first.energy_mJ == GSM.energy_mJ

    def test_fallback_refixes_every_t_min(self, make_constant_config):
        cfg = make_constant_config(duration=10, requirement="0:5")
        result = run(cfg)
        fixes = [e for e in events(result) if e.kind == EVENT_FIX]
        assert [e.time_s for e in fixes] == [float(i) for i in range(10)]
        assert all(e.method is GPS for e in fixes)
        assert result.total_energy_mJ == 10 * 1425.0
        assert result.satisfaction == 0.0
        assert result.sample_count == 0

    def test_fixed_strategy_unknown_method_rejected(self, make_constant_config):
        with pytest.raises(ConfigError):
            make_constant_config(kind="fixed:lidar")


class TestEventProtocol:
    def test_schedule_change_precedes_forced_fix(self, make_constant_config):
        cfg = make_constant_config(requirement="0:500,600:300", duration=700)
        result = run(cfg)
        at_600 = [e for e in events(result) if e.time_s == 600.0]
        assert [e.kind for e in at_600] == [EVENT_SCHEDULE_CHANGE, EVENT_FIX]

    def test_change_coinciding_with_due_fix_yields_single_fix(self, make_constant_config):
        fix, change, sample = EVENT_FIX, EVENT_SCHEDULE_CHANGE, EVENT_SAMPLE
        # (schedule, duration, fix count, every row from the first listed on)
        cases = [
            # gsm's fixes land on multiples of 70; the change at 350 hits one exactly.
            (
                "0:500,350:420",
                500,
                8,
                [
                    (350.0, change, None),
                    (350.0, fix, "gsm"),
                    (404.0, fix, "gsm"),
                    (404.0, sample, None),
                    (458.0, fix, "gsm"),
                    (458.0, sample, None),
                ],
            ),
            # No method beats 5 m, so gps re-fixes every second; the re-fix
            # due at 10 meets the change.
            (
                "0:5,10:500",
                20,
                11,
                [(8.0, fix, "gps"), (9.0, fix, "gps"), (10.0, change, None), (10.0, fix, "gsm")],
            ),
            # A change at the horizon is no event; the fix due at 140 is past it.
            ("0:500,100:300", 100, 2, [(70.0, fix, "gsm"), (70.0, sample, None)]),
        ]
        for requirement, duration, fix_count, tail in cases:
            result = run(make_constant_config(requirement=requirement, duration=duration))
            rows = [
                (e.time_s, e.kind, e.method and e.method.name)
                for e in events(result)
                if e.time_s >= tail[0][0]
            ]
            assert rows == tail, requirement
            assert result.fix_count == fix_count, requirement

    def test_triggering_sample_logged_after_its_fix(self, make_constant_config):
        result = run(make_constant_config(duration=100))
        at_70 = [e for e in events(result) if e.time_s == 70.0]
        assert [e.kind for e in at_70] == [EVENT_FIX, EVENT_SAMPLE]

    def test_requirement_change_cancels_pending_sample(self, make_constant_config):
        # Change at 40 arrives before the pending sample at 70 of the first epoch.
        cfg = make_constant_config(requirement="0:500,40:450", duration=60)
        result = run(cfg)
        samples = [e.time_s for e in events(result) if e.kind == EVENT_SAMPLE]
        assert 70.0 not in samples

    def test_events_sorted_by_time(self, make_constant_config):
        cfg = make_constant_config(requirement="0:500,600:300,1200:150")
        result = run(cfg)
        times = [e.time_s for e in events(result)]
        assert times == sorted(times)

    def test_sample_events_carry_updated_estimate(self):
        params = MobilityParams(duration_s=200, t1_s=3, v0=5.0, seed=13)
        cfg = SimulationConfig(
            params, StrategyConfig(alpha=0.5, beta=0.5), parse_schedule("0:500")
        )
        result = run(cfg)
        first_sample = next(e for e in events(result) if e.kind == EVENT_SAMPLE)
        fix0 = events(result)[0]
        expected = 0.5 * first_sample.velocity_mps + 0.5 * fix0.v_e_mps
        assert first_sample.v_e_mps == pytest.approx(expected, abs=1e-12)


class TestStepCallContract:
    """``run`` calls ``begin_epoch`` once per fix and ``on_velocity_sample``
    once per sample, through the names ``locsim.simulator`` imports; the
    per-layer benchmark counts fixes and samples by wrapping those names.
    Where every span has a plan, including the fallback, ``select_method``
    is never called."""

    @pytest.mark.parametrize(
        "schedule, record_events",
        [(DEFAULT_SCHEDULE_TEXT, True), ("0:5", True), (DEFAULT_SCHEDULE_TEXT, False)],
        ids=["adaptive", "fallback", "no-events"],
    )
    def test_one_call_per_fix_and_per_sample(self, monkeypatch, schedule, record_events):
        calls = {"begin_epoch": 0, "on_velocity_sample": 0, "select_method": 0}
        for name in calls:
            module = strategy if name == "select_method" else simulator
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        cfg = build_simulation_config({**DEFAULTS, "schedule": schedule})
        result = run(cfg, record_events=record_events)
        if schedule == "0:5":
            # No method beats 5 m: the room is <= 0 and the run only re-fixes.
            assert result.sample_count == 0 and result.fix_count > 1
        else:
            assert len(cfg.schedule.entries) == 6 and result.sample_count > 0
        assert calls == {
            "begin_epoch": result.fix_count,
            "on_velocity_sample": result.sample_count,
            "select_method": 0,
        }
        # The loop counts samples in floats; the counts leave it as ints, so
        # the summary CSV never shows 312.0.
        assert type(result.fix_count) is int and type(result.sample_count) is int


class TestEventLog:
    @pytest.mark.parametrize("duration", [0, 1, 900])
    def test_events_are_built_from_the_log_on_access(self, duration):
        cfg = build_simulation_config(
            {**DEFAULTS, "duration_s": duration, "beta": 0.3, "schedule": "0:300,500:80"}
        )
        result = run(cfg)
        assert result.log and all(type(row) is tuple and len(row) == 7 for row in result.log)
        assert [e.kind for e in events(result)][:1] == [EVENT_FIX]
        assert all(
            (e.method is None) == (e.energy_mJ is None) == (e.kind != EVENT_FIX)
            for e in events(result)
        )
        slim = run(cfg, record_events=False)
        assert slim.log == ()

    @given(
        method=st.sampled_from(DEFAULT_METHODS),
        seed=st.sampled_from([1, 7, 30]),
        beta=st.sampled_from([0.1, 0.5, 1.0]),
    )
    def test_adaptive_over_one_method_is_that_fixed_method(self, method, seed, beta):
        values = {**DEFAULTS, "seed": seed, "beta": beta}
        pinned = run(build_simulation_config({**values, "strategy": f"fixed:{method.name}"}))
        only = run(build_simulation_config({**values, "methods": f"{method.name}:"
                                            f"{method.accuracy_m!r}:{method.energy_mJ!r}"}))
        assert only.kind == "adaptive"
        assert pinned._replace(kind="adaptive") == only

    def test_positions_are_those_of_positions_at(self):
        # The default schedule gives samples, forced fixes and changes; under
        # 0:300,500:5 no method beats 5 m, so the run re-fixes every
        # t_min_refix_s from t = 500 on (fallback re-fixes). A loop, not
        # parametrize, keeps this test's id.
        for schedule in (DEFAULT_SCHEDULE_TEXT, "0:300,500:5"):
            cfg = build_simulation_config(
                {**DEFAULTS, "duration_s": 900, "beta": 0.3, "seed": 4, "schedule": schedule}
            )
            trace = generate_trace(cfg.mobility)
            log = run(cfg).log
            times = np.array([row[0] for row in log])
            assert [row[4] for row in log] == positions_at(trace, times).tolist(), schedule
            assert {row[1] for row in log} == {EVENT_FIX, EVENT_SAMPLE, EVENT_SCHEDULE_CHANGE}


def no_trace(params):
    raise AssertionError("a trace was generated")


class TestEventBounds:
    def test_refused_before_any_trace_is_generated(self, monkeypatch):
        monkeypatch.setattr(simulator, "generate_trace", no_trace)
        cfg = build_simulation_config({**DEFAULTS, "beta": 1e-9})
        with pytest.raises(ConfigError, match="more than 1e\\+08"):
            run(cfg)

    def test_underflowing_room_is_refused_before_any_trace(self, monkeypatch):
        # The room 5e-324 m lasts 0 s at v_e = 2 * v_max; with no time to
        # simulate, only the per-fix cost rate used to find that out.
        monkeypatch.setattr(simulator, "generate_trace", no_trace)
        cfg = build_simulation_config(
            {**DEFAULTS, "duration_s": 0, "v0": 2.0, "methods": "a:5e-324:1",
             "schedule": "0:1e-323"}
        )
        with pytest.raises(ConfigError, match="method a: .*underflow"):
            run(cfg)

    def test_paper_runs_are_far_below_the_limit(self):
        for beta in (0.1, 1.0):
            cfg = build_simulation_config({**DEFAULTS, "beta": beta})
            fixes, samples, _ = event_bounds(cfg)
            result = run(cfg, record_events=False)
            assert result.fix_count <= fixes and result.sample_count <= samples
            assert fixes + samples < MAX_EVENTS / 1000

    def test_an_unrecorded_run_keeps_at_most_48_bytes_per_fix(self):
        # No method beats 5 m, so the run re-fixes every 0.1 s: 10^5 fixes,
        # each stored once as two doubles, plus one double per span in the
        # evaluation and its chunk's temporaries.
        cfg = build_simulation_config(
            {**DEFAULTS, "schedule": "0:5", "t_min_refix_s": 0.1, "duration_s": 10_000}
        )
        run(cfg, record_events=False)  # fills the span-table cache
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = run(cfg, record_events=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.fix_count == 100_000
        assert (peak - before) / result.fix_count <= 48

    def test_recorded_run_is_refused_above_the_log_limit(self, monkeypatch):
        monkeypatch.setattr(simulator, "generate_trace", no_trace)
        cfg = build_simulation_config({**DEFAULTS, "duration_s": 1_000_000, "beta": 0.01})
        # About 5.1e7 events: allowed without a log, too many to keep one.
        assert MAX_LOGGED_EVENTS < sum(event_bounds(cfg)[:2]) < MAX_EVENTS
        with pytest.raises(ConfigError, match="an event log may hold; drop --out"):
            run(cfg)

    @pytest.mark.parametrize("kind", ["adaptive", "fixed:gps", "fixed:wifi", "fixed:gsm"])
    def test_default_runs_at_beta_one_tenth_record_up_to_the_longest_horizon(self, kind):
        cfg = build_simulation_config(
            {**DEFAULTS, "duration_s": MAX_DURATION_S, "beta": 0.1, "strategy": kind}
        )
        assert sum(event_bounds(cfg, record_events=True)[:2]) <= MAX_LOGGED_EVENTS

    def test_rounding_that_could_stall_time_is_refused(self):
        # At t = 1e5 the float spacing is about 1.5e-11 s, so re-fixing every
        # 1e-12 s would leave t where it is.
        cfg = build_simulation_config(
            {**DEFAULTS, "duration_s": 100001, "t_min_refix_s": 1e-12,
             "schedule": "0:500,100000:5,100000.00001:500"}
        )
        with pytest.raises(ConfigError, match="too short to advance the event time"):
            event_bounds(cfg)
        with pytest.raises(ConfigError, match="too short to advance the event time"):
            run(cfg, record_events=False)


class TestMetrics:
    def test_total_energy_sums_fix_events(self, make_constant_config):
        result = run(make_constant_config())
        fix_energy = math.fsum(e.energy_mJ for e in events(result) if e.kind == EVENT_FIX)
        assert fix_energy == result.total_energy_mJ == 1040.0

    def test_replay_determinism(self):
        params = MobilityParams(duration_s=1200, t1_s=3, v0=2.0, seed=77)
        cfg = SimulationConfig(
            params, StrategyConfig(alpha=0.3, beta=0.4), parse_schedule("0:500,600:120")
        )
        a = run(cfg)
        b = run(cfg)
        assert a == b

    def test_metrics_unchanged_without_event_log(self):
        params = MobilityParams(duration_s=900, t1_s=3, v0=4.0, seed=5)
        cfg = SimulationConfig(
            params, StrategyConfig(alpha=0.5, beta=0.3), parse_schedule("0:300,500:80")
        )
        full = run(cfg)
        slim = run(cfg, record_events=False)
        assert slim.log == ()
        assert (slim.total_energy_mJ, slim.satisfaction, slim.fix_count, slim.sample_count) == (
            full.total_energy_mJ,
            full.satisfaction,
            full.fix_count,
            full.sample_count,
        )

    def test_energy_is_count_weighted_sum(self):
        params = MobilityParams(duration_s=2000, t1_s=3, v0=3.0, seed=21)
        cfg = SimulationConfig(
            params, StrategyConfig(alpha=0.5, beta=1.0), parse_schedule("0:500,900:120")
        )
        result = run(cfg)
        by_method = {}
        for e in events(result):
            if e.kind == EVENT_FIX:
                by_method[e.method.name] = by_method.get(e.method.name, 0) + 1
        per_method = {m.name: m.energy_mJ for m in DEFAULT_METHODS}
        expected = sum(per_method[name] * count for name, count in by_method.items())
        assert result.total_energy_mJ == expected


class TestSatisfaction:
    def test_linear_crossing_example(self):
        # One fix at t=0 (accuracy 50), v=2, requirement 100 over 30 s:
        # satisfied while 2t + 50 <= 100, i.e. 25 of 30 seconds.
        trace = hand_trace(np.full(30, 2.0), t1_s=40)
        room = np.array([100.0 - WIFI.accuracy_m])
        assert _satisfaction_exact(np.array([0.0]), room, [1], trace) == [
            pytest.approx(25.0 / 30.0, abs=1e-12)
        ]

    def test_boundary_equality_counts_as_satisfied(self, make_constant_config):
        # Every epoch re-fixes exactly when moved distance equals the budget.
        assert run(make_constant_config()).satisfaction == 1.0

    def test_fallback_epochs_contribute_zero(self):
        trace = hand_trace(np.full(10, 5.0), t1_s=20)
        # Fallback fixes every second with gps (accuracy 10) under requirement 5.
        fix_times = np.arange(10, dtype=float)
        room = np.full(10, 5.0 - GPS.accuracy_m)
        assert _satisfaction_exact(fix_times, room, [10], trace) == [0.0]

    def test_matches_grid_oracle_on_random_runs(self):
        rng = random.Random(99)
        for _ in range(3):
            duration = rng.randint(120, 300)
            change = rng.randint(30, duration - 30)
            sched = parse_schedule(f"0:500,{change}:{rng.choice([200, 300, 800])}")
            params = MobilityParams(
                duration_s=duration, t1_s=rng.randint(1, 5),
                v0=float(rng.randint(1, 10)), seed=rng.randint(0, 10**6),
            )
            cfg = SimulationConfig(
                params,
                StrategyConfig(alpha=rng.choice([0.1, 0.5, 1.0]), beta=rng.choice([0.2, 1.0])),
                sched,
                rng.choice(["adaptive", "fixed:gps"]),
            )
            result = run(cfg)
            trace = generate_trace(params)
            approx = grid_satisfaction(events(result), trace, sched)
            assert result.satisfaction == pytest.approx(approx, abs=1e-4)


class TestBetaInvariance:
    def test_constant_velocity_energy_independent_of_beta(self, make_constant_config):
        results = {
            beta: run(make_constant_config(beta=beta)) for beta in (0.1, 0.5, 1.0)
        }
        energies = {r.total_energy_mJ for r in results.values()}
        assert energies == {1040.0}
        assert {r.fix_count for r in results.values()} == {52}
        assert results[0.1].sample_count == 514
        assert results[0.5].sample_count == 102
        assert results[1.0].sample_count == 51

    def test_per_epoch_sample_count_is_ceil_inverse_beta(self, make_constant_config):
        for beta in (0.1, 0.3, 0.5, 1.0):
            result = run(make_constant_config(beta=beta, duration=700))
            fixes = [e.time_s for e in events(result) if e.kind == EVENT_FIX]
            samples = [e.time_s for e in events(result) if e.kind == EVENT_SAMPLE]
            expected = math.ceil(1.0 / beta)
            for lo, hi in zip(fixes, fixes[1:]):
                inside = [s for s in samples if lo < s <= hi]
                assert len(inside) == expected, f"beta={beta} epoch ({lo},{hi}]"


class TestSweep:
    def base(self):
        params = MobilityParams(duration_s=600, t1_s=3, v0=1.0, seed=1)
        return SimulationConfig(
            params, StrategyConfig(alpha=0.5, beta=1.0), parse_schedule("0:500,300:120")
        )

    def test_row_order_is_kind_alpha_beta_seed(self):
        rows = sweep(self.base(), [0.3, 0.5], [0.5, 1.0], [1, 2], ["adaptive", "fixed:gps"])
        assert len(rows) == 16
        coords = [(r.kind, r.alpha, r.beta, r.seed) for r in rows]
        assert coords[0] == ("adaptive", 0.3, 0.5, 1)
        assert coords[1] == ("adaptive", 0.3, 0.5, 2)
        assert coords[-1] == ("fixed:gps", 0.5, 1.0, 2)
        assert coords == sorted(coords, key=lambda c: (c[0] != "adaptive", c[1], c[2], c[3]))

    def test_singleton_sweep_matches_run(self):
        base = self.base()
        row = sweep(base, [0.5], [1.0], [1], ["adaptive"])[0]
        assert row == run(base, record_events=False)

    def test_invalid_seed_is_refused_before_any_trace(self, monkeypatch):
        monkeypatch.setattr(simulator, "generate_trace", no_trace)
        with pytest.raises(ConfigError, match=r"seed=-5: seed must be an unsigned 64-bit"):
            sweep(self.base(), [0.5], [0.1], [1, -5], ["adaptive"])

    def test_invalid_cell_reports_coordinates(self):
        with pytest.raises(ConfigError, match=r"kind=fixed:nope .*seed=2"):
            sweep(self.base(), [0.5], [1.0], [2], ["fixed:nope"])

    def test_oversized_grid_is_refused_before_any_trace(self, monkeypatch):
        monkeypatch.setattr(simulator, "generate_trace", no_trace)
        cells = [round(0.01 * i, 10) for i in range(1, 101)]
        with pytest.raises(ConfigError, match="20000000 runs allow more than 1e\\+08"):
            sweep(self.base(), cells, cells, range(1, 1001), ["adaptive", "fixed:gps"])

    def test_empty_runs_are_charged_a_floor(self, monkeypatch):
        # Each 0 s run is allowed 2 events, so 5 * 10^7 of them would fit
        # under MAX_EVENTS and take about 25 minutes.
        monkeypatch.setattr(simulator, "generate_trace", no_trace)
        base = self.base()
        base = replace(base, mobility=replace(base.mobility, duration_s=0))
        cells = [round(0.01 * i, 10) for i in range(1, 101)]
        with pytest.raises(ConfigError, match="50000000 runs allow more than 1e\\+08"):
            sweep(base, cells, cells, range(1, 2501), ["adaptive", "fixed:gps"])

    def test_paper_grid_passes_the_preflight(self, monkeypatch):
        monkeypatch.setattr(simulator, "generate_trace", no_trace)
        base = build_simulation_config(DEFAULTS)
        with pytest.raises(AssertionError, match="a trace was generated"):
            sweep(base, [0.3, 0.5], FIGURE_BETAS, range(1, 31), ["adaptive", "fixed:gps"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep(self.base(), [], [1.0], [1], ["adaptive"])

    def test_means_group_per_cell(self):
        rows = sweep(self.base(), [0.5], [0.5, 1.0], [1, 2, 3], ["adaptive"])
        means = sweep_means(rows)
        assert [(m.kind, m.alpha, m.beta) for m in means] == [
            ("adaptive", 0.5, 0.5),
            ("adaptive", 0.5, 1.0),
        ]
        first = [r for r in rows if r.beta == 0.5]
        assert means[0].total_energy_mJ == pytest.approx(
            sum(r.total_energy_mJ for r in first) / 3
        )

    def test_mean_energy_near_the_float_maximum(self):
        rows = sweep(self.base(), [0.5], [1.0], [1, 2, 3], ["adaptive"])
        for energy in (1e308, sys.float_info.max):
            huge = [r._replace(total_energy_mJ=energy) for r in rows]
            assert sweep_means(huge)[0].total_energy_mJ == energy


def csv_by_field(rows):
    """The event CSV written field by field, as an oracle for :func:`events_to_csv`."""
    lines = [EVENT_CSV_HEADER]
    for t, kind, method, energy_mJ, position, v, v_e in rows:
        name, energy = ("", "") if method is None else (method.name, f"{energy_mJ:.6f}")
        lines.append(
            ",".join([f"{t:.6f}", kind, name, energy, f"{position:.6f}", f"{v:.6f}", f"{v_e:.6f}"])
        )
    return "\n".join(lines) + "\n"


@st.composite
def log_rows(draw):
    """Event-log 7-tuples with few distinct velocities, huge energies and
    positions, and method names holding ``%``."""
    big = st.floats(0.0, 1e300) | st.sampled_from([0.0, 0.5e-6, 1e300])
    names = st.text(alphabet="%sdf.6a", min_size=1, max_size=6)
    method = st.builds(Method, names, st.just(1.0), big.filter(bool))
    methods = draw(st.lists(method, min_size=1, max_size=3))
    near = st.sampled_from([1.0, 1.0000004, 1.0000006, 2.0])  # texts 1.000000 to 2.000000
    levels = draw(st.lists(st.floats(1.0, 1e6) | near, min_size=1, max_size=4))
    row = st.tuples(
        st.floats(0.0, 1e6),
        st.sampled_from([EVENT_SAMPLE, EVENT_SCHEDULE_CHANGE]),
        st.sampled_from([None] + methods),
        big,
        big,
        st.sampled_from(levels),
        st.floats(0.5, 1e6),
    ).map(
        lambda r: (r[0], r[1], None, None, *r[4:]) if r[2] is None else (r[0], EVENT_FIX, *r[2:])
    )
    return draw(st.lists(row, max_size=30))


class TestCsvRoundTrips:
    @given(rows=log_rows())
    def test_events_csv_matches_field_by_field_formatting(self, rows):
        # Lines, not one string: pytest's diff of long strings is slow to shrink with.
        assert events_to_csv(rows).splitlines() == csv_by_field(rows).splitlines()

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 10])
    def test_events_file_written_in_blocks_is_the_one_csv(self, monkeypatch, tmp_path, n):
        log = run(build_simulation_config({**DEFAULTS, "duration_s": 900, "beta": 0.1})).log[:n]
        assert len(log) == n
        calls = []

        def counted(rows, _fn=events_to_csv):
            calls.append(len(rows))
            return _fn(rows)

        monkeypatch.setattr(simulator, "CSV_BLOCK_ROWS", 3)
        monkeypatch.setattr(simulator, "events_to_csv", counted)
        simulator.write_events_csv(log, tmp_path / "ev.csv")
        assert (tmp_path / "ev.csv").read_bytes() == events_to_csv(log).encode()
        assert calls == [min(3, n - lo) for lo in range(0, max(n, 1), 3)]

    def test_summary_roundtrip(self):
        rows = [
            RunResult("adaptive", 0.5, 1.0, 7, 1040.0, 1.0, 52, 51),
            RunResult("fixed:gps", 0.3, 0.1, 2, 52725.0, 0.75, 37, 370),
        ]
        types = (str, float, float, int, float, float, int, int)
        header, *body = csv.reader(io.StringIO(summary_to_csv(rows)))
        assert header == SUMMARY_CSV_HEADER.split(",")
        back = [RunResult(*(convert(x) for convert, x in zip(types, row))) for row in body]
        assert back == rows

    def test_events_roundtrip_parseable(self, make_constant_config):
        result = run(make_constant_config(duration=300, requirement="0:500,150:120"))
        back = list(csv.DictReader(io.StringIO(events_to_csv(events(result)))))
        assert len(back) == len(events(result))
        assert [row["kind"] for row in back] == [e.kind for e in events(result)]
        fix_energy = [float(row["energy_mJ"]) for row in back if row["kind"] == EVENT_FIX]
        assert fix_energy == [e.energy_mJ for e in events(result) if e.kind == EVENT_FIX]
