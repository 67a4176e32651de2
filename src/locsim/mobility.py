"""Synthetic 1-D mobility traces with a bounded random-walk velocity.

A trace stores one velocity value per integer second; velocity is constant
over [t, t+1). Every ``t1_s`` seconds a fresh acceleration from {-1, 0, +1}
is drawn uniformly over the choices that keep velocity inside
[v_min, v_max], so consecutive per-second values never differ by more than
1 m/s. Position is the exact integral of the piecewise-constant profile.

Randomness comes from numpy's PCG64 (``np.random.default_rng(seed)``),
consumed in ascending event-time order exactly as
``rng.integers(len(candidates))`` would: one 32-bit value per event with 2
or 3 admissible accelerations, none for an event with only one (as when
v_min == v_max), and one more for each value the bounded draw rejects
(probability 2**-32 per event with 3 choices). The walk draws the values
in chunks of at most ``_CHUNK``, turns each into a small-int code that
holds its index for both 2 and 3 choices, and takes each event's next
level from the current level's successor row, one lookup per event (see
:func:`generate_trace`). Nothing else in the package draws random numbers,
so traces (and everything computed from them) are bit-reproducible across
runs and machines for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError

__all__ = [
    "MobilityParams",
    "MotionTrace",
    "generate_trace",
    "positions_at",
    "times_at_positions",
]

# The longest horizon accepted. A trace keeps several values per simulated
# second in memory, so a longer one is refused instead of exhausting it (the
# paper's runs are 3600 s).
MAX_DURATION_S = 1_000_000

# The most 32-bit values the walk draws at once, so a trace that stops
# early draws at most this many values it never reads.
_CHUNK = 4096


@dataclass(frozen=True)
class MobilityParams:
    """Parameters of the bounded random-walk velocity model.

    ``duration_s`` may be zero for a degenerate instant-only horizon; such a
    trace still carries the single t=0 velocity ``v0``.
    """

    duration_s: int
    t1_s: int
    v_min: float = 1.0
    v_max: float = 10.0
    v0: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        # ``type(x) is int`` refuses a bool, which ``isinstance`` would pass.
        if type(self.duration_s) is not int or self.duration_s < 0:
            raise ConfigError(f"duration_s must be a non-negative integer, got {self.duration_s!r}")
        if self.duration_s > MAX_DURATION_S:
            raise ConfigError(f"duration_s must be at most {MAX_DURATION_S}, got {self.duration_s!r}")
        if type(self.t1_s) is not int or self.t1_s < 1:
            raise ConfigError(f"t1_s must be a positive integer, got {self.t1_s!r}")
        # A period of MAX_DURATION_S already holds the velocity constant over
        # the longest horizon, so no longer one changes a trace.
        if self.t1_s > MAX_DURATION_S:
            raise ConfigError(f"t1_s must be at most {MAX_DURATION_S}, got {self.t1_s!r}")
        for name in ("v_min", "v_max", "v0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.v_min < 1:
            raise ConfigError(f"v_min must be at least 1 m/s, got {self.v_min!r}")
        if self.v_max < self.v_min:
            raise ConfigError(f"v_max must be >= v_min, got v_max={self.v_max!r} v_min={self.v_min!r}")
        if not (self.v_min <= self.v0 <= self.v_max):
            raise ConfigError(f"v0 must lie in [v_min, v_max], got {self.v0!r}")
        if type(self.seed) is not int or not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class MotionTrace:
    """A generated velocity profile plus its exact cumulative distance.

    ``velocities[t]`` holds the (constant) velocity over [t, t+1);
    ``cumulative_m[k]`` is the distance travelled over [0, k].

    :func:`generate_trace` builds it, and nothing here re-checks what it
    built: one value per second inside [v_min, v_max], steps of at most
    1 m/s, changes only every ``t1_s`` seconds. The test suite pins these.
    """

    params: MobilityParams
    velocities: np.ndarray = field(repr=False)
    cumulative_m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.velocities, dtype=float)
        v.setflags(write=False)
        cum = np.concatenate(([0.0], np.cumsum(v)))
        cum.setflags(write=False)
        object.__setattr__(self, "velocities", v)
        object.__setattr__(self, "cumulative_m", cum)

    @cached_property
    def velocity_list(self) -> list[float]:
        """``velocities`` as Python floats, built once per trace for scalar loops."""
        return self.velocities.tolist()


def generate_trace(params: MobilityParams) -> MotionTrace:
    """Generate the seeded velocity trace for ``params``.

    velocities[0] is v0; a new acceleration is drawn at every t >= 1 with
    t % t1_s == 0 and the velocity holds steady in between.

    The draws reproduce ``rng.integers(k)`` over the k admissible
    accelerations of (-1, 0, +1): numpy maps a 32-bit value ``x`` to
    ``(x * k) >> 32`` (Lemire), and for k == 3 rejects ``x == 0`` and takes
    the next value. The walk draws one value per event still without a
    level, at most ``_CHUNK`` at a time (PCG64 keeps the spare 32-bit half
    across calls, so the chunks read what one bulk draw would), and
    :func:`_codes` turns each into a small int that holds both indices.
    The first time the walk reaches a level it builds that level's
    successor row (:func:`_successors`), the next level for each code, so
    an event is one row lookup. A rejected value is skipped and the next
    chunk draws the one it leaves missing; at a level where neither step
    is allowed the walk stops and the level holds to the end.
    """
    rng = np.random.default_rng(params.seed)
    n = max(1, params.duration_s)
    t1 = params.t1_s
    events = len(range(t1, n, t1))
    v_min, v_max = params.v_min, params.v_max
    level = float(params.v0)
    levels = [level]
    row = _successors(level, v_min, v_max)
    rows = {level: row}
    append, row_of = levels.append, rows.get
    left = events
    while left and row is not None:
        for c in _codes(rng, min(left, _CHUNK)):
            level = row[c]
            if level is None:
                continue  # a rejected value: this event reads the next one
            append(level)
            row = row_of(level)
            if row is None:
                row = rows[level] = _successors(level, v_min, v_max)
                if row is None:
                    break
        left = events + 1 - len(levels)
    counts = np.full(len(levels), t1)
    counts[-1] = n - (len(levels) - 1) * t1
    return MotionTrace(params=params, velocities=np.repeat(np.array(levels), counts))


def _codes(rng: np.random.Generator, size: int) -> list[int]:
    """Draw ``size`` 32-bit values ``x`` and map each to the code
    ``3 * (x >> 31) + ((x * 3) >> 32)``, or 6 where ``x == 0``: the
    indices ``x >> 31`` (= ``(x * 2) >> 32``) for two choices and
    ``(x * 3) >> 32`` for three, with 6 for the value three rejects."""
    x = rng.integers(0, 2**32, dtype=np.uint32, size=size).astype(np.int64)
    return np.where(x == 0, 6, 3 * (x >> 31) + ((x * 3) >> 32)).tolist()


def _successors(level: float, v_min: float, v_max: float) -> tuple[float | None, ...] | None:
    """The next level after ``level`` for each code of :func:`_codes`, or
    None when neither step keeps the velocity inside [v_min, v_max].

    With both steps allowed the three-choice index picks from
    (level - 1, level, level + 1) and code 6 maps to None (rejected); at
    the top or the foot of the band the two-choice index picks from
    (level - 1, level) or (level, level + 1).
    """
    down, up = level - 1, level + 1
    if down >= v_min and up <= v_max:
        return (down, level, up, down, level, up, None)
    if down >= v_min:
        return (down,) * 3 + (level,) * 3 + (down,)
    if up <= v_max:
        return (level,) * 3 + (up,) * 3 + (level,)
    return None


def positions_at(trace: MotionTrace, times: np.ndarray) -> np.ndarray:
    """Distance travelled over [0, t] for each t in ``times``.

    Exact for the piecewise-constant profile: the cumulative distance at
    ``int(t)`` plus the remainder at that second's velocity. Times must lie
    in [0, duration_s]; they are not checked.
    """
    v = trace.velocities
    k = np.minimum(times.astype(np.int64), len(v) - 1)
    return trace.cumulative_m[k] + (times - k) * v[k]


def times_at_positions(trace: MotionTrace, positions: np.ndarray) -> np.ndarray:
    """Inverse of the position integral, capped at the trace duration.

    Velocity never drops below v_min >= 1, so position is strictly
    increasing and each crossing is solved in closed form on its linear
    piece. Targets beyond the total distance map to duration_s.
    """
    cum = trace.cumulative_m
    v = trace.velocities
    duration = float(trace.params.duration_s)
    k = np.searchsorted(cum, positions, side="right") - 1
    k = np.clip(k, 0, len(v) - 1)
    t = k + (positions - cum[k]) / v[k]
    return np.minimum(t, duration)
