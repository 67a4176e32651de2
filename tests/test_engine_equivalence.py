"""Differential test: the event loop, the event CSV and trace generation
against the frozen reference engine.

``perfbench/refsim`` is a copy of the package taken before the scheduler
was fused into one scalar loop. It is imported read-only (no bytecode is
written next to it) and every result is compared with exact ``==``:
energy, satisfaction, fix and sample counts, and on drawn configs the
full event log and the event CSV bytes; traces are compared byte for byte.
The drawn configs also check that no run exceeds its ``event_bounds``,
and that a config is refused exactly when a cost rate it could meet
overflows, where refsim would report an infinite energy.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locsim.simulator as simulator
from locsim.config import DEFAULTS, build_simulation_config
from locsim.errors import ConfigError
from locsim.mobility import MobilityParams, generate_trace
from locsim.simulator import event_bounds, events_to_csv, run, sweep
from locsim.strategy import cost_rate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def refsim():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import refsim.config
        import refsim.simulator
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return refsim


def both_configs(refsim, values):
    merged = dict(DEFAULTS, **values)
    return build_simulation_config(merged), refsim.config.build_simulation_config(merged)


def outcome(result):
    return (result.total_energy_mJ, result.satisfaction, result.fix_count, result.sample_count)


def event_tuples(result):
    return [
        (
            e.time_s,
            e.kind,
            e.method.name if e.method is not None else None,
            e.energy_mJ,
            e.position_m,
            e.velocity_mps,
            e.v_e_mps,
        )
        for e in result.events
    ]


def test_paper_ensemble_cells_match_reference(refsim):
    ours, ref = both_configs(refsim, {})
    grid = ((0.3, 0.5), [round(0.1 * i, 10) for i in range(1, 11)], range(1, 31))
    kinds = ("adaptive", "fixed:gps")
    got = sweep(ours, *grid, kinds)
    want = refsim.simulator.sweep(ref, *grid, kinds)
    assert len(got) == len(want) == 1200
    for g, w in zip(got, want):
        assert (g.kind, g.alpha, g.beta, g.seed) == (w.kind, w.alpha, w.beta, w.seed)
        assert (g.total_energy_mJ, g.satisfaction, g.fix_count, g.sample_count) == (
            w.total_energy_mJ,
            w.satisfaction,
            w.fix_count,
            w.sample_count,
        )


@pytest.mark.parametrize(
    "values",
    [
        {"methods": "gps:10:1e308", "schedule": "0:10.5"},
        {
            "methods": "gps:10:1e308;gsm:150:20",
            "schedule": "0:10.5,100:500,200:10.25",
            "beta": 0.3,
            "t_min_refix_s": 2.0,
            "duration_s": 300,
        },
    ],
)
def test_overflowing_cost_rates_match_reference(refsim, monkeypatch, values):
    # gps beats the requirement but its cost rate overflows to inf. refsim
    # then samples gps's positive room on the re-fix grid and reports an
    # infinite energy; locsim refuses the config before any trace.
    ours, ref = both_configs(refsim, values)
    want = refsim.simulator.run(ref)
    assert want.total_energy_mJ == math.inf and want.sample_count > 0
    assert refused(ours)

    def no_trace(params):
        raise AssertionError("a trace was generated")

    monkeypatch.setattr(simulator, "generate_trace", no_trace)
    with pytest.raises(ConfigError, match="method gps: .* requirement 10.5 m overflows"):
        run(ours)


def refused(config):
    """The refusal rule, re-derived: a method the run uses beats a
    requirement in force before the horizon and its cost rate there is inf
    at v_e = 2 * v_max, above any EWMA the run can reach."""
    pinned = config.pinned_method()
    methods = config.strategy_cfg.methods if pinned is None else (pinned,)
    v_hi = 2 * config.mobility.v_max
    return any(
        cost_rate(m, a_t, v_hi) == math.inf
        for i, (start, a_t) in enumerate(config.schedule.entries)
        if i == 0 or start < config.mobility.duration_s
        for m in methods
        if m.accuracy_m < a_t
    )


def run_unless_refused(config, **kwargs):
    """``run(config)``, or None after checking that a config :func:`refused`
    flags raises :class:`ConfigError`."""
    if refused(config):
        with pytest.raises(ConfigError, match="overflows"):
            run(config, **kwargs)
        return None
    return run(config, **kwargs)


# Accuracies sit on half-metres and requirements on whole metres, so every
# room is either <= 0 (the fallback regime) or at least 0.5 m and a drawn
# run stays small. An energy of 1e308 makes small rooms' cost rates
# overflow to inf.
methods_st = st.lists(
    st.tuples(st.integers(1, 200), st.integers(1, 2000) | st.just(1e308)), min_size=1, max_size=4
).map(lambda ms: ";".join(f"m{i}:{acc + 0.5!r}:{e!r}" for i, (acc, e) in enumerate(ms)))


@st.composite
def drawn_values(draw):
    duration = draw(st.sampled_from([0, 1, 7]) | st.integers(0, 400))
    v_min = float(draw(st.integers(1, 5)))
    v_max = v_min + draw(st.sampled_from([0.0, 0.5]) | st.integers(0, 8).map(float))
    v0 = draw(st.floats(v_min, v_max))
    methods = draw(methods_st)
    n = methods.count(";") + 1
    return {
        "duration_s": duration,
        "t1_s": draw(st.integers(1, 20) | st.just(duration + 1)),
        "v_min": v_min,
        "v_max": v_max,
        "v0": v0,
        "seed": draw(st.integers(0, 2**32)),
        "alpha": draw(st.floats(0.01, 1.0)),
        "beta": draw(st.floats(0.05, 1.0)),
        "t_min_refix_s": draw(st.sampled_from([0.25, 1.0]) | st.floats(0.1, 30.0)),
        "strategy": draw(
            st.just("adaptive") | st.integers(0, n - 1).map(lambda i: f"fixed:m{i}")
        ),
        "methods": methods,
    }


def schedule_text(entries):
    return ",".join(f"{s!r}:{r!r}" for s, r in entries)


@settings(max_examples=150)
@given(values=drawn_values(), data=st.data())
def test_drawn_configs_match_reference_event_for_event(refsim, values, data):
    first = float(data.draw(st.integers(1, 600)))
    base = {**values, "schedule": schedule_text([(0.0, first)])}
    ours, ref = both_configs(refsim, base)
    probe = refsim.simulator.run(ref)
    got = run_unless_refused(ours)
    if got is not None:
        assert outcome(got) == outcome(probe)
        assert event_tuples(got) == event_tuples(probe)

    # Requirement changes off the sampling grid, exactly at event times of
    # the run without them, and past the horizon.
    event_times = sorted({e.time_s for e in probe.events if e.time_s > 0})
    duration = float(values["duration_s"])
    change_st = st.floats(0.001, duration + 50.0)
    if event_times:
        change_st |= st.sampled_from(event_times)
    changes = sorted(set(data.draw(st.lists(change_st, max_size=5))))
    reqs = data.draw(st.lists(st.integers(1, 600), min_size=len(changes), max_size=len(changes)))
    entries = [(0.0, first)] + [(t, float(r)) for t, r in zip(changes, reqs)]
    ours, ref = both_configs(refsim, {**values, "schedule": schedule_text(entries)})
    got, want = run_unless_refused(ours), refsim.simulator.run(ref)
    if got is not None:
        assert outcome(got) == outcome(want)
        assert event_tuples(got) == event_tuples(want)
        assert outcome(run(ours, record_events=False)) == outcome(want)


@st.composite
def drawn_run_values(draw):
    """:func:`drawn_values` with a schedule of up to four requirements, its
    changes off the sampling grid and some past the horizon."""
    values = draw(drawn_values())
    changes = sorted(set(draw(st.lists(st.floats(0.001, values["duration_s"] + 50.0), max_size=3))))
    reqs = draw(st.lists(st.integers(1, 600), min_size=len(changes) + 1, max_size=len(changes) + 1))
    entries = [(0.0, float(reqs[0]))] + [(t, float(r)) for t, r in zip(changes, reqs[1:])]
    return {**values, "schedule": schedule_text(entries)}


@settings(max_examples=150)
@given(values=drawn_run_values())
@example(values={"duration_s": 0})
@example(
    values={
        "methods": "m0:10.5:1e+308;m1:150.5:20",
        "schedule": "0:11.0,100:500.0,200:10.75",
        "duration_s": 300,
        "beta": 0.3,
    }
)
def test_event_csv_bytes_match_reference(refsim, values):
    ours, ref = both_configs(refsim, values)
    got = run_unless_refused(ours)
    if got is not None:
        want = refsim.simulator.events_to_csv(refsim.simulator.run(ref).events)
        assert events_to_csv(got.log) == want


@settings(max_examples=150)
@given(values=drawn_run_values())
def test_counts_stay_within_event_bounds(values):
    config = build_simulation_config(dict(DEFAULTS, **values))
    result = run_unless_refused(config, record_events=False)
    if result is not None:
        fixes, samples = event_bounds(config)
        assert result.fix_count <= fixes
        assert result.sample_count <= samples


@st.composite
def subnormal_room_values(draw):
    """:func:`drawn_values` with one method whose room is a few subnormal
    metres, over a horizon of 0 or 1 s: its seconds of room or its cost
    rate may leave the float range at some v_e and not at others."""
    values = draw(drawn_values())
    accuracy = draw(st.integers(1, 4)) * 5e-324
    requirement = accuracy + draw(st.integers(1, 4)) * 5e-324
    energy = draw(st.sampled_from([1e-300, 1e-20, 1.0]))
    return {
        **values,
        "duration_s": draw(st.sampled_from([0, 1])),
        "strategy": "adaptive",
        "methods": f"a:{accuracy!r}:{energy!r}",
        "schedule": f"0:{requirement!r}",
    }


@settings(max_examples=150)
@given(values=drawn_run_values() | subnormal_room_values())
def test_config_errors_come_before_any_trace(values):
    config = build_simulation_config(dict(DEFAULTS, **values))
    traces = []

    def spy(params):
        traces.append(params)
        return generate_trace(params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "generate_trace", spy)
        try:
            run(config, record_events=False)
        except ConfigError:
            assert traces == []
        else:
            assert len(traces) == 1


@st.composite
def mobility_values(draw):
    duration = draw(st.sampled_from([0, 1, 7]) | st.integers(0, 2000))
    v_min = float(draw(st.integers(1, 5)))
    v_max = v_min + draw(st.sampled_from([0.0, 0.5]) | st.integers(0, 8).map(float))
    return {
        "duration_s": duration,
        "t1_s": draw(st.integers(1, 20) | st.just(duration + 1)),
        "v_min": v_min,
        "v_max": v_max,
        "v0": draw(st.sampled_from([v_min, v_max]) | st.floats(v_min, v_max)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


def both_traces(refsim, values):
    ours = generate_trace(MobilityParams(**values))
    ref = refsim.mobility.generate_trace(refsim.mobility.MobilityParams(**values))
    return ours.velocities.tobytes(), ref.velocities.tobytes()


@settings(max_examples=300)
@given(values=mobility_values())
def test_drawn_traces_match_reference(refsim, values):
    got, want = both_traces(refsim, values)
    assert got == want


@pytest.mark.parametrize(
    "v0, duration", [(5.0, 40), (1.0, 40), (10.0, 40), (5.0, 2)]
)
def test_rejected_draw_matches_reference(refsim, monkeypatch, v0, duration):
    # numpy's bounded draw over 3 choices rejects the 32-bit value 0 (and
    # only it), which a seeded stream yields with probability 2**-32. Make
    # it the first value of every stream: with 3 choices (v0 = 5) it must
    # be skipped, with 2 (v0 at a band edge) it must be taken. A trace of
    # 2 s has one event, so skipping its value needs a second bulk draw.
    default_rng = np.random.default_rng

    def first_value_zero(seed):
        rng = default_rng(seed)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
        return rng

    assert first_value_zero(1).integers(0, 2**32, dtype=np.uint32) == 0
    values = {"duration_s": duration, "t1_s": 1, "v0": v0, "seed": 1}
    unrigged, _ = both_traces(refsim, values)
    monkeypatch.setattr(np.random, "default_rng", first_value_zero)
    got, want = both_traces(refsim, values)
    assert got == want
    assert (got == unrigged) == (v0 == 5.0)


@st.composite
def near_tie_values(draw):
    # Two or three methods whose energy per metre of room, e / (a_t - acc),
    # is equal at requirement a_t, a few ulps apart, or apart by just less
    # or just more than the planner's 1e-9 gap, so runs take both the
    # planned path and the per-fix fallback with its tie-break.
    # Rooms of a few metres give many fixes, each a fresh v_e at which
    # rounding may reorder rates a few ulps apart.
    values = draw(drawn_values())
    a_t = float(draw(st.integers(40, 600)))
    q = draw(st.floats(0.01, 100.0))
    n = draw(st.integers(2, 3))
    methods = []
    for i in range(n):
        room = draw(st.integers(2, 30)) + 0.5
        acc = a_t - room
        energy = q * room
        if i:
            energy *= 1.0 + draw(st.sampled_from([0.0, 0.99e-9, 1.01e-9, -0.99e-9, -1.01e-9]))
            ulps = draw(st.integers(-3, 3))
            for _ in range(abs(ulps)):
                energy = math.nextafter(energy, math.copysign(math.inf, ulps))
        methods.append(f"m{i}:{acc!r}:{energy!r}")
    changes = sorted(set(draw(st.lists(st.floats(0.001, 400.0), max_size=3))))
    reqs = draw(
        st.lists(
            st.just(a_t) | st.integers(1, 600).map(float),
            min_size=len(changes),
            max_size=len(changes),
        )
    )
    entries = [(0.0, a_t)] + list(zip(changes, reqs))
    return {
        **values,
        "strategy": "adaptive",
        "methods": ";".join(methods),
        "schedule": schedule_text(entries),
    }


@settings(max_examples=150)
@given(values=near_tie_values())
def test_near_tie_method_sets_match_reference_event_for_event(refsim, values):
    ours, ref = both_configs(refsim, values)
    got, want = run(ours), refsim.simulator.run(ref)
    assert outcome(got) == outcome(want)
    assert event_tuples(got) == event_tuples(want)
