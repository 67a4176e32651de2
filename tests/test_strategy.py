"""Strategy layer: EWMA estimation, cost-rate selection, epoch scheduling.

The epoch behaviour (what a fix, a velocity sample and a requirement change
do) is driven by the event loop of ``locsim.simulator.run``, so most of
those tests run it on constant or step velocity traces and read the event
log.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import locsim.simulator as simulator
from locsim.errors import ConfigError
from locsim.mobility import MobilityParams
from locsim.simulator import (
    EVENT_FIX,
    EVENT_SAMPLE,
    EVENT_SCHEDULE_CHANGE,
    AccuracySchedule,
    SimulationConfig,
    _event_bounds,
    parse_schedule,
    run,
)
from locsim.strategy import (
    BUDGET_REL_TOL,
    DEFAULT_METHODS,
    Method,
    StrategyConfig,
    begin_epoch,
    cost_rate,
    on_velocity_sample,
    parse_methods,
    plan_method,
    select_method,
)

from _events import events
from _traces import hand_trace

GPS, WIFI, GSM = DEFAULT_METHODS


def brute_force_select(methods, a_t, v_e):
    """Independent exhaustive re-derivation of the selection contract."""
    best = None
    best_key = None
    for m in methods:
        if not (m.accuracy_m < a_t):
            continue
        seconds_per_fix = (a_t - m.accuracy_m) / v_e
        rate = m.energy_mJ / seconds_per_fix
        key = (rate, m.accuracy_m, m.name)
        if best_key is None or key < best_key:
            best, best_key = m, key
    return best


def random_instance(rng):
    size = rng.randint(1, 6)
    methods = tuple(
        Method(f"m{i}", rng.uniform(0.5, 900.0), rng.uniform(1.0, 5000.0))
        for i in range(size)
    )
    a_t = rng.uniform(1.0, 1000.0)
    v_e = rng.uniform(1e-6, 20.0)
    return methods, a_t, v_e


class TestMethodParsing:
    def test_default_method_set(self):
        assert [(m.name, m.accuracy_m, m.energy_mJ) for m in DEFAULT_METHODS] == [
            ("gps", 10.0, 1425.0),
            ("wifi", 50.0, 545.0),
            ("gsm", 150.0, 20.0),
        ]

    def test_rejects_malformed_entries(self):
        for bad in ("gps:10", "gps:10:1425:9", "gps:x:1"):
            with pytest.raises(ConfigError):
                parse_methods(bad)
        # StrategyConfig refuses an empty set.
        for empty in ("", ";;"):
            with pytest.raises(ConfigError, match="method set is empty"):
                StrategyConfig(alpha=0.5, beta=1.0, methods=parse_methods(empty))

    def test_rejects_duplicates_and_nonpositive(self):
        with pytest.raises(ConfigError, match="duplicate method name 'a'"):
            StrategyConfig(alpha=0.5, beta=1.0, methods=parse_methods("a:1:1;a:2:2"))
        with pytest.raises(ConfigError):
            parse_methods("a:0:1")
        with pytest.raises(ConfigError):
            parse_methods("a:1:-5")


class TestStrategyConfig:
    def test_validates_ranges(self):
        for bad in (dict(alpha=0.0), dict(alpha=1.5), dict(beta=0.0), dict(beta=2.0)):
            kwargs = dict(alpha=0.5, beta=1.0)
            kwargs.update(bad)
            with pytest.raises(ConfigError):
                StrategyConfig(**kwargs)
        with pytest.raises(ConfigError):
            StrategyConfig(alpha=0.5, beta=1.0, t_min_refix_s=0.0)
        with pytest.raises(ConfigError):
            StrategyConfig(alpha=0.5, beta=1.0, methods=())


class TestEwma:
    def test_worked_sample_pair(self):
        assert on_velocity_sample(2.0, 16.0, 0.5) == pytest.approx(9.0, abs=1e-12)
        assert on_velocity_sample(2.0, 16.0, 0.3) == pytest.approx(6.2, abs=1e-12)
        assert on_velocity_sample(2.0, 16.0, 0.1) == pytest.approx(3.4, abs=1e-12)

    def test_alpha_one_tracks_newest_sample(self):
        assert on_velocity_sample(3.0, 8.0, 1.0) == 8.0

    def test_fixed_point(self):
        assert on_velocity_sample(7.0, 7.0, 0.42) == pytest.approx(7.0, abs=1e-12)

    def test_alpha_out_of_range_raises(self):
        # on_velocity_sample trusts its alpha; StrategyConfig is where it is checked.
        for alpha in (0.0, -0.1, 1.0001):
            with pytest.raises(ConfigError):
                StrategyConfig(alpha=alpha, beta=1.0)

    @given(
        prev=st.floats(min_value=0.1, max_value=50, allow_nan=False),
        new=st.floats(min_value=0.1, max_value=50, allow_nan=False),
        alpha=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    )
    def test_stays_between_inputs(self, prev, new, alpha):
        out = on_velocity_sample(prev, new, alpha)
        assert min(prev, new) - 1e-9 <= out <= max(prev, new) + 1e-9

    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        v=st.floats(1.0, 20.0),
        v_e=st.floats(1.0, 20.0),
    )
    def test_a_fix_folds_its_velocity_as_a_sample_does(self, alpha, v, v_e):
        # begin_epoch writes the EWMA out rather than calling it: bit for bit
        # the same estimate, and the first fix's velocity taken as it is.
        cfg = StrategyConfig(alpha=alpha, beta=1.0)
        assert begin_epoch(cfg, 500.0, v, v_e, GPS)[0] == on_velocity_sample(v_e, v, alpha)
        assert begin_epoch(cfg, 500.0, v, None, GPS)[0] == v


class TestCostRate:
    def test_default_methods_at_500m_5mps(self):
        assert cost_rate(GPS, 500.0, 5.0) == pytest.approx(1425.0 / 98.0, abs=1e-12)
        assert cost_rate(WIFI, 500.0, 5.0) == pytest.approx(545.0 / 90.0, abs=1e-12)
        assert cost_rate(GSM, 500.0, 5.0) == pytest.approx(20.0 / 70.0, abs=1e-12)

    def test_accuracy_equal_to_requirement_is_ineligible(self):
        assert cost_rate(WIFI, 50.0, 5.0) == math.inf

    def test_accuracy_above_requirement_is_ineligible(self):
        assert cost_rate(GSM, 100.0, 5.0) == math.inf

    @given(v=st.floats(min_value=0.01, max_value=50, allow_nan=False))
    def test_scales_linearly_in_velocity(self, v):
        base = cost_rate(GSM, 500.0, 1.0)
        assert cost_rate(GSM, 500.0, v) == pytest.approx(base * v, rel=1e-9)


class TestSelectMethod:
    def test_picks_gsm_for_loose_requirement(self):
        assert select_method(DEFAULT_METHODS, 500.0, 5.0) is GSM

    def test_picks_wifi_at_120m(self):
        assert select_method(DEFAULT_METHODS, 120.0, 2.0) is WIFI

    def test_picks_gps_when_only_gps_eligible(self):
        assert select_method(DEFAULT_METHODS, 50.0, 5.0) is GPS

    def test_none_when_nothing_eligible(self):
        assert select_method(DEFAULT_METHODS, 10.0, 5.0) is None
        assert select_method(DEFAULT_METHODS, 5.0, 5.0) is None

    def test_tie_breaks_on_accuracy_then_name(self):
        # Equal cost rates: energy proportional to budget.
        a = Method("near", 10.0, 90.0)
        b = Method("far", 60.0, 40.0)
        assert select_method((b, a), 100.0, 3.0) is a
        c = Method("aaa", 10.0, 90.0)
        assert select_method((a, c), 100.0, 3.0) is c

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(2000):
            methods, a_t, v_e = random_instance(rng)
            assert select_method(methods, a_t, v_e) is brute_force_select(methods, a_t, v_e)

    def test_velocity_invariance(self):
        rng = random.Random(7)
        for _ in range(300):
            methods, a_t, _ = random_instance(rng)
            assert select_method(methods, a_t, 0.5) is select_method(methods, a_t, 15.0)

    @given(scale=st.floats(min_value=0.01, max_value=1000, allow_nan=False))
    def test_energy_scale_invariance(self, scale):
        scaled = tuple(
            Method(m.name, m.accuracy_m, m.energy_mJ * scale) for m in DEFAULT_METHODS
        )
        for a_t in (500.0, 120.0, 50.0):
            base = select_method(DEFAULT_METHODS, a_t, 4.0)
            got = select_method(scaled, a_t, 4.0)
            assert (base is None) == (got is None)
            if base is not None:
                assert got.name == base.name


class TestPlanMethod:
    """The per-requirement plan is select_method's choice at every v_e in
    [1, v_hi], or None (select per fix)."""

    @pytest.mark.parametrize("a_t", [500.0, 300.0, 150.0, 120.0, 80.0, 50.0])
    def test_default_requirements_match_select_method(self, a_t):
        plan = plan_method(DEFAULT_METHODS, a_t, 20.0)
        assert plan is not None
        for v_e in (1.0, 5.5, 10.0):
            assert select_method(DEFAULT_METHODS, a_t, v_e) is plan

    def test_none_for_overflowing_rate(self):
        assert plan_method((Method("gps", 10.0, 1e308),), 10.5, 20.0) is None

    def test_none_for_subnormal_room(self):
        assert plan_method((Method("a", 5e-324, 1.0),), 1e-323, 20.0) is None

    @pytest.mark.parametrize(
        "methods, a_t",
        [
            ((Method("gps", 10.0, 1e307),), 10.5),  # the rate overflows at v_e = 10
            ((Method("a", 5e-324, 1e-320),), 1.5e-323),  # the seconds underflow at v_e = 10
            ((Method("a", 1.0, 1e-310), Method("b", 2.0, 1e-310)), 100.0),  # subnormal rates
        ],
    )
    def test_none_when_a_room_or_rate_leaves_the_normal_range(self, methods, a_t):
        assert plan_method(methods, a_t, 20.0) is None

    def test_none_on_exact_tie(self):
        near, far = Method("near", 10.0, 90.0), Method("far", 60.0, 40.0)
        assert plan_method((far, near), 100.0, 20.0) is None

    def test_most_accurate_when_nothing_eligible(self):
        # No method beats a_t: the plan is the fallback, whose room is <= 0.
        assert plan_method(DEFAULT_METHODS, 10.0, 20.0) is GPS
        assert plan_method(DEFAULT_METHODS, 5.0, 20.0) is GPS
        # Accuracy decides before the name, and the name breaks a tie on it.
        a, b, c = Method("a", 10.0, 900.0), Method("b", 10.0, 1.0), Method("0", 20.0, 1.0)
        for methods in ((a, b, c), (c, b, a)):
            assert plan_method(methods, 5.0, 20.0) is a

    def test_relative_gap_decides(self):
        # a: 100 mJ over 100 m of room; b's energy per metre is 1 + rel.
        a = Method("a", 1.0, 100.0)
        assert plan_method((a, Method("b", 51.0, 50.0 * (1 + 2e-9))), 101.0, 20.0) is a
        assert plan_method((a, Method("b", 51.0, 50.0 * (1 + 5e-10))), 101.0, 20.0) is None

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(6)
        planned = fallbacks = 0
        for _ in range(2000):
            methods, a_t, _ = random_instance(rng)
            v_hi = rng.uniform(1.0, 40.0)
            plan = plan_method(methods, a_t, v_hi)
            if brute_force_select(methods, a_t, v_hi) is None:
                fallbacks += 1
                assert plan is min(methods, key=lambda m: (m.accuracy_m, m.name))
            elif plan is not None:
                planned += 1
                for v_e in (1.0, v_hi, rng.uniform(1.0, v_hi)):
                    assert brute_force_select(methods, a_t, v_e) is plan
        assert planned > 1000 and fallbacks > 100


def step_trace_run(velocities, schedule="0:500", alpha=0.5, beta=1.0):
    """Run over a trace that may change velocity every second (t1_s=1)."""
    trace = hand_trace(velocities)
    cfg = SimulationConfig(trace.params, StrategyConfig(alpha=alpha, beta=beta), parse_schedule(schedule))
    with mock.patch.object(simulator, "generate_trace", lambda _: trace):
        return run(cfg)


def fixes(result):
    return [e for e in events(result) if e.kind == EVENT_FIX]


def samples(result):
    return [e for e in events(result) if e.kind == EVENT_SAMPLE]


class TestBeginEpoch:
    """An epoch begins at every fix: EWMA update, method choice, first sample time."""

    def test_first_fix_initializes_ewma_to_sample(self, make_constant_config):
        result = run(make_constant_config(v=5.0, duration=100))
        first = events(result)[0]
        assert (first.kind, first.time_s, first.v_e_mps) == (EVENT_FIX, 0.0, 5.0)
        assert first.method is GSM
        # budget 500 - 150 = 350 m lasts t_s = 70 s at 5 m/s.
        assert samples(result)[0].time_s == 70.0

    def test_beta_scales_sampling_interval(self, make_constant_config):
        result = run(make_constant_config(v=5.0, duration=100, beta=0.5))
        assert samples(result)[0].time_s == 35.0

    def test_ewma_persists_across_epochs(self):
        # A change at t=10 forces a fix where the velocity has ramped to 8.
        result = step_trace_run([4.0, 5.0, 6.0, 7.0] + [8.0] * 16, schedule="0:500,10:500")
        change = next(e for e in events(result) if e.kind == EVENT_SCHEDULE_CHANGE)
        assert (change.time_s, change.v_e_mps) == (10.0, 4.0)
        assert [(e.time_s, e.v_e_mps) for e in fixes(result)] == [(0.0, 4.0), (10.0, 6.0)]

    def test_fallback_when_nothing_eligible(self, make_constant_config):
        # From t=12 no method beats 10 m: gps re-fixes every t_min_refix_s.
        result = run(make_constant_config(duration=16, requirement="0:500,12:10"))
        late = [e for e in fixes(result) if e.time_s >= 12.0]
        assert [e.time_s for e in late] == [12.0, 13.0, 14.0, 15.0]
        assert all(e.method is GPS for e in late)
        assert result.sample_count == 0

    def test_overflowing_cost_rates_get_no_plan_and_no_selection(self):
        # gps beats 10.5 m, but 1e308 mJ over 0.5 m of room overflows to inf,
        # so neither step chooses a method. A run never asks: its preflight
        # refuses the config (test_overflowing_cost_rates_match_reference).
        gps = Method("gps", 10.0, 1e308)
        assert plan_method((gps,), 10.5, 20.0) is None
        assert select_method((gps,), 10.5, 5.0) is None

    @given(data=st.data())
    def test_in_a_run_the_fallback_is_exactly_the_room_le_0_regime(self, data):
        # The loop re-fixes after t_min_refix_s when the room is <= 0 and
        # samples otherwise, so for configs the preflight accepts, each span
        # of the table must open its epochs with a method that beats a_t
        # exactly when one exists, and never with None.
        # Accuracies sit on half-metres; requirements on whole metres (rooms
        # of at least 0.5 m), on the accuracies (rooms of 0) or just above
        # them, where an energy of 1e308 overflows the cost rate.
        acc_st = st.integers(1, 200).map(lambda a: a + 0.5)
        pairs = data.draw(st.lists(
            st.tuples(acc_st, st.integers(1, 2000).map(float) | st.just(1e308)),
            min_size=1, max_size=4,
        ))
        methods = tuple(Method(f"m{i}", acc, e) for i, (acc, e) in enumerate(pairs))
        a_st = (
            st.integers(1, 300).map(float)
            | st.sampled_from([acc + d for acc, _ in pairs for d in (0.0, 1e-9, 0.5)])
        )
        starts = data.draw(st.lists(st.integers(1, 500), max_size=3, unique=True))
        entries = tuple((float(s), data.draw(a_st)) for s in [0, *sorted(starts)])
        v_min = float(data.draw(st.integers(1, 5)))
        v_max = v_min + data.draw(st.sampled_from([0.0, 0.5, 9.0]))
        duration = data.draw(st.integers(0, 400))
        kind = data.draw(st.sampled_from(["adaptive", *(f"fixed:{m.name}" for m in methods)]))
        config = SimulationConfig(
            MobilityParams(duration_s=duration, t1_s=1, v_min=v_min, v_max=v_max, v0=v_min),
            StrategyConfig(alpha=data.draw(st.floats(0.01, 1.0)), beta=0.5, methods=methods),
            AccuracySchedule(entries),
            kind,
        )
        cfg = config.loop_strategy
        v_hi = 2.0 * v_max
        try:
            _, _, spans = _event_bounds(
                entries, cfg.methods, float(duration), v_hi, cfg.beta, cfg.t_min_refix_s
            )
        except ConfigError:
            assume(False)
        in_force = [a_t for i, (start, a_t) in enumerate(entries) if i == 0 or start < duration]
        assert [a_t for a_t, _, _ in spans] == in_force
        for a_t, _, plan in spans:
            beats = any(m.accuracy_m < a_t for m in cfg.methods)
            for v_e in (v_min, v_hi, data.draw(st.floats(v_min, v_hi))):
                v = data.draw(st.floats(v_min, v_max))
                _, method = begin_epoch(cfg, a_t, v, v_e, plan)
                assert method is not None and (method.accuracy_m < a_t) == beats


class TestOnVelocitySample:
    """Each sample folds into the EWMA and may exhaust the budget, calling a fix."""

    def test_folds_sample_then_advances_estimate(self):
        # EWMA 0.5 * 16 + 0.5 * 2 = 9 m/s; run advances the estimate by it.
        assert on_velocity_sample(2.0, 16.0, 0.5) == 9.0

    def test_single_shot_fix_at_epoch_end(self, make_constant_config):
        result = run(make_constant_config(v=5.0, duration=100, beta=1.0))
        at_70 = [(e.kind, e.method) for e in events(result) if e.time_s == 70.0]
        assert at_70 == [(EVENT_FIX, GSM), (EVENT_SAMPLE, None)]

    def test_two_step_sampling(self, make_constant_config):
        result = run(make_constant_config(v=5.0, duration=100, beta=0.5))
        assert [(e.time_s, e.kind) for e in events(result)] == [
            (0.0, EVENT_FIX),
            (35.0, EVENT_SAMPLE),
            (70.0, EVENT_FIX),
            (70.0, EVENT_SAMPLE),
        ]

    def test_velocity_increase_brings_fix_forward(self):
        result = step_trace_run([5.0, 6.0, 7.0, 8.0, 9.0] + [10.0] * 95, alpha=1.0, beta=0.1)
        assert fixes(result)[1].time_s < 70.0  # faster than estimated: budget gone sooner

    def test_accumulator_is_monotone(self):
        # Rebuild the distance estimate from the log: it grows with every
        # sample and the fix comes at the first sample that exhausts it.
        rng = random.Random(1)
        v = [5.0]
        while len(v) < 1500:
            v.append(min(10.0, max(1.0, v[-1] + rng.choice((-1.0, 0.0, 1.0)))))
        result = step_trace_run(v, beta=0.1)
        fix_events, sample_events = fixes(result), samples(result)
        for fix, nxt in zip(fix_events, fix_events[1:]):
            room = 500.0 - fix.method.accuracy_m
            step = room / fix.v_e_mps * 0.1
            epoch = [e for e in sample_events if fix.time_s < e.time_s <= nxt.time_s]
            assert epoch[-1].time_s == nxt.time_s
            r_i = 0.0
            for j, e in enumerate(epoch):
                last = r_i
                r_i += e.v_e_mps * step
                assert r_i > last
                assert (r_i >= room * (1.0 - BUDGET_REL_TOL)) == (j == len(epoch) - 1)
        assert len(fix_events) > 10

    @pytest.mark.parametrize("v", [1.0, 3.0, 5.0, 7.0, 9.0, 10.0])
    @pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 1.0])
    def test_constant_velocity_fix_time_is_budget_over_v(self, make_constant_config, v, beta):
        # Holds for every v including ones where budget/v rounds down (v=9).
        result = run(make_constant_config(v=v, duration=1000, beta=beta))
        first, second = fixes(result)[:2]
        expected = (500.0 - first.method.accuracy_m) / v
        assert second.time_s == pytest.approx(expected, rel=1e-9)
        in_epoch = [e for e in samples(result) if e.time_s <= second.time_s]
        assert len(in_epoch) == math.ceil(1.0 / beta)

    def test_no_sampling_in_fallback_regime(self, make_constant_config):
        result = run(make_constant_config(duration=50, requirement="0:10"))
        assert result.sample_count == 0
        assert result.fix_count == 50


class TestOnRequirementChange:
    """A requirement change forces a fix with the method chosen for it."""

    def test_selects_method_for_new_requirement(self, make_constant_config):
        result = run(make_constant_config(v=5.0, duration=700, requirement="0:500,600:50"))
        at_600 = [(e.kind, e.method) for e in events(result) if e.time_s == 600.0]
        assert at_600 == [(EVENT_SCHEDULE_CHANGE, None), (EVENT_FIX, GPS)]

    def test_cancels_pending_sample(self, make_constant_config):
        # The sample due at 70 s is dropped; the new epoch (gsm, 150 m of
        # room at 5 m/s) samples first at 30 + 30 s.
        result = run(make_constant_config(v=5.0, duration=100, requirement="0:500,30:300"))
        assert [e.time_s for e in samples(result)] == [60.0, 90.0]
