"""Differential tests: ``sweep``'s batched evaluation against separate runs.

``sweep`` runs the event loop for every cell over a seed's trace, then
evaluates all those runs with one ``_satisfaction_exact`` call. Every
comparison here is exact ``==``: each sweep row against a separate ``run``
of its cell and seed, each run's slice of a multi-run evaluation against
that run evaluated alone, and the rooms the loops store once per change
against the room of every logged fix.
"""

import random
from array import array
from bisect import bisect_right
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import locsim.simulator as simulator
from locsim.config import DEFAULTS, build_simulation_config
from locsim.mobility import generate_trace, positions_at, times_at_positions
from locsim.simulator import (
    _event_loop,
    _satisfaction_exact,
    run,
    sweep,
)

from test_engine_equivalence import near_tie_values


def cell_config(base, kind, alpha, beta):
    strategy_cfg = replace(base.strategy_cfg, alpha=alpha, beta=beta)
    return replace(base, strategy_cfg=strategy_cfg, strategy_kind=kind)


@st.composite
def grids(draw):
    """Config values and (alphas, betas, seeds, kinds) of a small grid.

    Accuracies sit on half-metres and requirements on whole metres, so every
    room is either <= 0 (a fallback span) or at least 0.5 m. Seeds repeat.
    """
    duration = draw(st.sampled_from([0, 1, 7]) | st.integers(0, 200))
    v_min = float(draw(st.integers(1, 5)))
    v_max = v_min + float(draw(st.integers(0, 8)))
    n = draw(st.integers(1, 3))
    methods = ";".join(
        f"m{i}:{draw(st.integers(1, 200)) + 0.5!r}:{draw(st.integers(1, 2000))!r}"
        for i in range(n)
    )
    changes = sorted(set(draw(st.lists(st.floats(0.001, duration + 50.0), max_size=3))))
    reqs = draw(st.lists(st.integers(1, 600), min_size=len(changes) + 1, max_size=len(changes) + 1))
    entries = [(0.0, float(reqs[0]))] + [(t, float(r)) for t, r in zip(changes, reqs[1:])]
    values = {
        "duration_s": duration,
        "t1_s": draw(st.integers(1, 20) | st.just(duration + 1)),
        "v_min": v_min,
        "v_max": v_max,
        "v0": draw(st.floats(v_min, v_max)),
        "t_min_refix_s": draw(st.sampled_from([0.5, 1.0]) | st.floats(0.1, 30.0)),
        "methods": methods,
        "schedule": ",".join(f"{s!r}:{r!r}" for s, r in entries),
    }
    kind_st = st.just("adaptive") | st.integers(0, n - 1).map(lambda i: f"fixed:m{i}")
    axes = (
        draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=2)),
        draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=2)),
        draw(st.lists(st.integers(0, 3) | st.integers(0, 2**32), min_size=1, max_size=4)),
        draw(st.lists(kind_st, min_size=1, max_size=3)),
    )
    return values, axes


TWO_METHODS = "m0:10.5:1425;m1:50.5:545"


@given(grid=grids())
# A horizon of 0 s, with a seed listed twice.
@example(
    grid=(
        {"duration_s": 0, "methods": TWO_METHODS},
        ([0.5], [1.0], [3, 3, 1], ["adaptive", "fixed:m1"]),
    )
)
# A fallback span (no method beats 5 m), then one that m1 cannot meet.
@example(
    grid=(
        {"duration_s": 60, "methods": TWO_METHODS, "schedule": "0:5.0,20:600.0,40:30.0"},
        ([0.3, 1.0], [0.5], [1, 2, 1], ["fixed:m1", "adaptive", "fixed:m0"]),
    )
)
# Runs of a single fix: 14 m at most in 7 s, against a room of 589.5 m.
@example(
    grid=(
        {"duration_s": 7, "v_max": 2.0, "methods": TWO_METHODS, "schedule": "0:600.0"},
        ([0.5], [0.2, 1.0], [5, 6], ["adaptive", "fixed:m0"]),
    )
)
def test_sweep_rows_equal_separate_runs(grid):
    values, (alphas, betas, seeds, kinds) = grid
    base = build_simulation_config(dict(DEFAULTS, **values))
    expected = [
        run(replace(cell, mobility=replace(base.mobility, seed=seed)), record_events=False)
        for cell in (cell_config(base, *coords) for coords in product(kinds, alphas, betas))
        for seed in seeds
    ]
    assert sweep(base, alphas, betas, seeds, kinds) == expected


def satisfaction_alone(span_start, span_room, trace):
    """One run's satisfaction from its own arrays: the single-run evaluation
    as it stood before runs were batched."""
    duration = float(trace.params.duration_s)
    span_end = np.append(span_start[1:], duration)
    crossings = times_at_positions(trace, positions_at(trace, span_start) + span_room)
    crossings = np.where(span_room < 0, span_start, crossings)
    crossings = np.clip(crossings, span_start, span_end)
    violated = float(np.sum(span_end - crossings))
    return 1.0 if violated <= 0.0 else (duration - violated) / duration


def loop_buffers(runs, record_events=False):
    """The buffers that the event loops of ``runs``, (config, trace) pairs,
    fill one after another, as ``_runs_on_trace`` has them fill: fix times,
    rooms stored at each change and the fix index of each. Returns those,
    the rooms decoded to one per fix by bisection, and the run ends and
    event logs."""
    times, rooms, room_at = array("d"), array("d"), array("q")
    ends, logs = [], []
    for cfg, trace in runs:
        _, _, spans = simulator.event_bounds(cfg, record_events)
        *_, log = _event_loop(
            cfg.loop_strategy, spans, trace, record_events, times, rooms, room_at
        )
        ends.append(len(times))
        logs.append(log)
    per_fix = [rooms[bisect_right(room_at, i) - 1] for i in range(len(times))]
    return np.frombuffer(times), rooms.tolist(), room_at.tolist(), np.array(per_fix), ends, logs


def seed_runs(seed):
    """The default trace of ``seed`` and the fix times and per-fix rooms of
    18 cells' runs over it, then of three prefixes of the first run.

    fixed:wifi has a room of 0 under the last requirement (50 m). Prefixes
    of a run are span sets too, so with them the runs have from 1 to over
    500 spans.
    """
    base = build_simulation_config(dict(DEFAULTS, seed=seed))
    trace = generate_trace(base.mobility)
    runs = []
    for coords in product(("adaptive", "fixed:gps", "fixed:wifi"), (0.3, 0.5), (0.1, 0.35, 1.0)):
        times, _, _, rooms, _, _ = loop_buffers([(cell_config(base, *coords), trace)])
        runs.append((times, rooms))
    times, rooms = runs[0]
    return trace, runs + [(times[:n], rooms[:n]) for n in (1, 7, 100)]


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_each_slice_equals_its_run_evaluated_alone(seed):
    # The sums cross numpy's pairwise blocks of 128, and the orders below
    # start them at many offsets of the concatenation.
    trace, runs = seed_runs(seed)
    assert min(len(t) for t, _ in runs) < 128 < max(len(t) for t, _ in runs)
    for order in (runs, runs[::-1], random.Random(seed).sample(runs, len(runs))):
        got = _satisfaction_exact(
            np.concatenate([t for t, _ in order]),
            np.concatenate([r for _, r in order]),
            np.cumsum([len(t) for t, _ in order]).tolist(),
            trace,
        )
        assert got == [satisfaction_alone(t, r, trace) for t, r in order]
        assert got == [_satisfaction_exact(t, r, [len(t)], trace)[0] for t, r in order]


@pytest.mark.parametrize("seed", [1, 17])
def test_gaps_made_in_small_chunks_change_no_satisfaction(monkeypatch, seed):
    # Chunks of 7 spans end inside runs and across their boundaries.
    trace, runs = seed_runs(seed)
    times = np.concatenate([t for t, _ in runs])
    rooms = np.concatenate([r for _, r in runs])
    ends = np.cumsum([len(t) for t, _ in runs]).tolist()
    monkeypatch.setattr(simulator, "_GAP_CHUNK", len(times))
    whole = _satisfaction_exact(times, rooms, ends, trace)
    monkeypatch.setattr(simulator, "_GAP_CHUNK", 7)
    assert _satisfaction_exact(times, rooms, ends, trace) == whole
    assert whole == [satisfaction_alone(t, r, trace) for t, r in runs]


def assert_rooms_stored_once_per_change(runs):
    """The loops of ``runs`` store a room at each run's first fix and at each
    change of room, and decoded, those rooms are the requirement in force
    minus the method accuracy of every logged fix, in order. Returns the
    stored rooms, their fix indices and the run ends."""
    times, rooms, room_at, per_fix, ends, logs = loop_buffers(runs, record_events=True)
    firsts = [0, *ends[:-1]]
    assert all(a < b for a, b in zip(room_at, room_at[1:]))
    assert set(firsts) <= set(room_at) and room_at[0] == 0
    for i, at in enumerate(room_at[1:], 1):
        assert at in firsts or rooms[i] != rooms[i - 1]
    expected = []
    for (cfg, _), log in zip(runs, logs):
        entries = cfg.schedule.entries
        for t, kind, method, *_ in log:
            if kind == simulator.EVENT_FIX:
                a_t = entries[bisect_right([s for s, _ in entries], t) - 1][1]
                expected.append(a_t - method.accuracy_m)
    assert per_fix.tolist() == expected and len(times) == len(expected)
    return rooms, room_at, ends


@pytest.mark.parametrize("seed", [1, 17])
def test_rooms_are_stored_once_per_change(seed):
    # The paper's cells, fixed:wifi with its zero room under 50 m, and two
    # fallback runs back to back, whose -5 m room carries over a run boundary.
    base = build_simulation_config(dict(DEFAULTS, seed=seed))
    trace = generate_trace(base.mobility)
    cells = [cell_config(base, k, 0.5, b) for k in ("adaptive", "fixed:gps") for b in (0.1, 1.0)]
    cells.append(cell_config(base, "fixed:wifi", 0.3, 0.35))
    fallback = replace(base, schedule=simulator.parse_schedule("0:5"))
    runs = [(cell, trace) for cell in cells + [fallback, fallback]]
    rooms, room_at, ends = assert_rooms_stored_once_per_change(runs)
    # Six spans, one planned method each: at most six rooms per run, and one
    # per fallback run, out of its 3,600 fixes.
    stored = [sum(lo <= at < hi for at in room_at) for lo, hi in zip([0, *ends], ends)]
    assert all(0 < n <= 6 for n in stored) and stored[-2:] == [1, 1]
    assert rooms[-2:] == [-5.0, -5.0] and ends[-1] - ends[-2] == 3600


@given(values=near_tie_values())
def test_near_tie_rooms_are_stored_once_per_change(values):
    # Spans without a plan select a method per fix, so the room may change
    # at any fix; the drawn run is evaluated twice over one set of buffers.
    cfg = build_simulation_config(dict(DEFAULTS, **values))
    _, _, spans = simulator.event_bounds(cfg)
    assume(any(plan is None for *_, plan in spans))
    trace = generate_trace(cfg.mobility)
    assert_rooms_stored_once_per_change([(cfg, trace), (cfg, trace)])
