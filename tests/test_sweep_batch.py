"""Differential tests: ``sweep``'s batched evaluation against separate runs.

``sweep`` runs the event loop for every cell over a seed's trace, then
evaluates all those runs with one ``_satisfaction_exact`` call. Every
comparison here is exact ``==``: each sweep row against a separate ``run``
of its cell and seed, and each run's slice of a multi-run evaluation against
that run evaluated alone.
"""

import random
from array import array
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
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


def seed_runs(seed):
    """The default trace of ``seed`` and the fix times and rooms of 18 cells'
    runs over it, then of three prefixes of the first run.

    fixed:wifi has a room of 0 under the last requirement (50 m). Prefixes
    of a run are span sets too, so with them the runs have from 1 to over
    500 spans.
    """
    base = build_simulation_config(dict(DEFAULTS, seed=seed))
    trace = generate_trace(base.mobility)
    runs = []
    for coords in product(("adaptive", "fixed:gps", "fixed:wifi"), (0.3, 0.5), (0.1, 0.35, 1.0)):
        cell = cell_config(base, *coords)
        _, _, spans = simulator.event_bounds(cell)
        times, rooms = array("d"), array("d")
        _event_loop(cell.loop_strategy, spans, trace, False, times, rooms)
        runs.append((np.frombuffer(times), np.frombuffer(rooms)))
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
