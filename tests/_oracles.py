"""The suite's exact oracles, each written once against the raw definition
and independent of the code under test: the 1 ms satisfaction grid and the
exhaustive method search, with the random instances it is checked on."""

import numpy as np

from locsim.simulator import EVENT_FIX
from locsim.strategy import Method


def grid_satisfaction(events, trace, schedule) -> float:
    """The share of 1 ms grid points, from 0 to the horizon, at which the
    distance moved since the last fix plus its accuracy is within the
    requirement in force (1e-9 m of slack); independent of the closed form."""
    t = np.arange(trace.params.duration_s * 1000 + 1, dtype=np.float64) / 1000.0
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
    """1 to 6 methods, a requirement and a velocity estimate drawn from ``rng``."""
    size = rng.randint(1, 6)
    methods = tuple(
        Method(f"m{i}", rng.uniform(0.5, 900.0), rng.uniform(1.0, 5000.0))
        for i in range(size)
    )
    a_t = rng.uniform(1.0, 1000.0)
    v_e = rng.uniform(1e-6, 20.0)
    return methods, a_t, v_e
