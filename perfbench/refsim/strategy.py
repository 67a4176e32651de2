"""Adaptive localization scheduling.

The strategy keeps an exponentially weighted moving average (EWMA) of the
observed velocity, picks the localization method with the lowest energy
cost per second of usable epoch (energy divided by the time the method's
error budget is expected to last), and schedules the next fix when the
accumulated distance estimate exhausts that budget.

An epoch starts at a fix and ends at the next one. The epoch sampling
interval ``t_s`` is frozen when the epoch begins; velocity is re-sampled
every ``t_s * beta`` seconds and each sample advances the distance
estimate by ``v_e * t_s * beta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .errors import ConfigError, InvalidStateError

__all__ = [
    "Method",
    "StrategyConfig",
    "SchedulerState",
    "SampleAgainAt",
    "FixNowAt",
    "FixDecision",
    "DEFAULT_METHODS_TEXT",
    "DEFAULT_METHODS",
    "parse_methods",
    "format_methods",
    "ewma_update",
    "cost_rate",
    "select_method",
    "most_accurate_method",
    "begin_epoch",
    "on_velocity_sample",
    "on_requirement_change",
]

# Accumulated-estimate sums within one part in 1e12 of the budget count as
# having reached it, so the discrete loop lands on the same fix times as
# exact arithmetic would (e.g. budget/v followed by v*t_s rounding down).
BUDGET_REL_TOL = 1e-12


@dataclass(frozen=True)
class Method:
    """A localization method: its error radius (m) and per-fix energy (mJ)."""

    name: str
    accuracy_m: float
    energy_mJ: float

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ":;,"):
            raise ConfigError(f"invalid method name {self.name!r}")
        if self.accuracy_m <= 0:
            raise ConfigError(f"method {self.name}: accuracy_m must be > 0")
        if self.energy_mJ <= 0:
            raise ConfigError(f"method {self.name}: energy_mJ must be > 0")


DEFAULT_METHODS_TEXT = "gps:10:1425;wifi:50:545;gsm:150:20"


def parse_methods(text: str) -> tuple[Method, ...]:
    """Parse ``name:accuracy_m:energy_mJ;...`` into a method tuple."""
    methods: list[Method] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 3:
            raise ConfigError(f"malformed method entry {part!r} (want name:accuracy_m:energy_mJ)")
        name, acc, energy = (f.strip() for f in fields)
        try:
            methods.append(Method(name, float(acc), float(energy)))
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed method entry {part!r}: {exc}") from exc
    if not methods:
        raise ConfigError("method set is empty")
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate method names in {text!r}")
    return tuple(methods)


def format_methods(methods: Sequence[Method]) -> str:
    def fmt(x: float) -> str:
        return f"{x:g}"

    return ";".join(f"{m.name}:{fmt(m.accuracy_m)}:{fmt(m.energy_mJ)}" for m in methods)


DEFAULT_METHODS = parse_methods(DEFAULT_METHODS_TEXT)


@dataclass(frozen=True)
class StrategyConfig:
    """Scheduler tuning knobs.

    alpha: EWMA weight on the newest velocity sample, in (0, 1].
    beta:  sampling-interval fraction of the epoch length, in (0, 1].
    t_min_refix_s: forced re-fix period when no method beats the requirement.
    """

    alpha: float
    beta: float
    methods: tuple[Method, ...] = DEFAULT_METHODS
    t_min_refix_s: float = 1.0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not (0 < self.beta <= 1):
            raise ConfigError(f"beta must satisfy 0 < beta <= 1, got {self.beta!r}")
        if self.t_min_refix_s <= 0:
            raise ConfigError(f"t_min_refix_s must be > 0, got {self.t_min_refix_s!r}")
        if not self.methods:
            raise ConfigError("method set is empty")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate method names")
        object.__setattr__(self, "methods", tuple(self.methods))


class SampleAgainAt(NamedTuple):
    """Keep the epoch open; sample velocity again at ``time_s``."""

    time_s: float


class FixNowAt(NamedTuple):
    """Perform a fix at ``time_s`` with ``method``."""

    time_s: float
    method: Method


FixDecision = Union[SampleAgainAt, FixNowAt]


def _check_alpha(alpha: float) -> None:
    if not (0 < alpha <= 1):
        raise ConfigError(f"alpha must satisfy 0 < alpha <= 1, got {alpha!r}")


def ewma_update(v_e_prev: float, v_new: float, alpha: float) -> float:
    """One EWMA step: alpha weighs the fresh sample, 1-alpha the history."""
    _check_alpha(alpha)
    return alpha * v_new + (1.0 - alpha) * v_e_prev


def cost_rate(method: Method, a_t: float, v_e: float) -> float:
    """Energy per second of epoch bought by one fix with ``method``.

    The error budget a_t - accuracy_m lasts (a_t - accuracy_m) / v_e
    seconds at estimated velocity v_e. Methods whose accuracy does not
    strictly beat the requirement get ``math.inf`` (the ineligible
    sentinel, never an exception).
    """
    if method.accuracy_m >= a_t:
        return math.inf
    return method.energy_mJ / ((a_t - method.accuracy_m) / v_e)


def select_method(methods: Sequence[Method], a_t: float, v_e: float) -> Optional[Method]:
    """Pick the eligible method with the lowest cost rate.

    Ties break on smaller accuracy_m, then lexicographic name. Returns
    None when no method is eligible (the caller falls back to periodic
    re-fixing with the most accurate method). The choice is independent
    of v_e > 0, which scales every rate equally.
    """
    if not methods:
        raise ConfigError("method set is empty")
    best: Optional[Method] = None
    best_key: tuple[float, float, str] | None = None
    for m in methods:
        rate = cost_rate(m, a_t, v_e)
        if rate == math.inf:
            continue
        key = (rate, m.accuracy_m, m.name)
        if best_key is None or key < best_key:
            best, best_key = m, key
    return best


def most_accurate_method(methods: Sequence[Method]) -> Method:
    if not methods:
        raise ConfigError("method set is empty")
    return min(methods, key=lambda m: (m.accuracy_m, m.name))


@dataclass(slots=True)
class SchedulerState:
    """Mutable scheduler state, owned by a single simulation run.

    v_e persists across epochs; it is None only before the first-ever fix,
    which initializes it to the first velocity sample. budget_m <= 0 marks
    the fallback regime (periodic forced re-fixes, no sampling).
    """

    v_e: Optional[float] = None
    r_i: float = 0.0
    budget_m: float = 0.0
    t_s: float = 0.0
    last_fix_time: float = 0.0
    current_method: Optional[Method] = None
    epoch_requirement_m: float = 0.0
    next_sample_time: float = math.inf
    samples_this_epoch: int = 0


def begin_epoch(
    state: SchedulerState,
    t_fix: float,
    a_t: float,
    v_sample: float,
    cfg: StrategyConfig,
) -> tuple[float, Method]:
    """Start an epoch at the fix performed at ``t_fix``.

    Folds the fix-time velocity sample into the EWMA, selects the method,
    freezes the epoch interval t_s = (a_t - accuracy_m) / v_e, and returns
    (next scheduled time, chosen method). In the fallback regime the
    returned time is a forced re-fix at t_fix + t_min_refix_s instead of a
    velocity sample.
    """
    if a_t <= 0:
        raise ConfigError(f"accuracy requirement must be > 0, got {a_t!r}")
    if state.v_e is None:
        v_e = float(v_sample)
    else:
        v_e = ewma_update(state.v_e, v_sample, cfg.alpha)

    method = select_method(cfg.methods, a_t, v_e)
    if method is None:
        method = most_accurate_method(cfg.methods)
        budget = a_t - method.accuracy_m  # <= 0: fallback regime
        t_s = cfg.t_min_refix_s
        next_time = t_fix + cfg.t_min_refix_s
    else:
        budget = a_t - method.accuracy_m
        t_s = budget / v_e
        next_time = t_fix + t_s * cfg.beta

    state.v_e = v_e
    state.r_i = 0.0
    state.budget_m = budget
    state.t_s = t_s
    state.last_fix_time = t_fix
    state.current_method = method
    state.epoch_requirement_m = a_t
    state.next_sample_time = next_time
    state.samples_this_epoch = 0
    return next_time, method


def on_velocity_sample(
    state: SchedulerState,
    t: float,
    v_sample: float,
    cfg: StrategyConfig,
) -> FixDecision:
    """Feed the scheduled velocity sample at ``t`` into the open epoch.

    Updates the EWMA, advances the accumulated distance estimate by
    v_e * t_s * beta, and either schedules the next sample or calls for a
    fix right at this sample time once the estimate reaches the budget.
    """
    if state.current_method is None or state.v_e is None:
        raise InvalidStateError("no epoch is open; call begin_epoch first")
    if state.budget_m <= 0:
        raise InvalidStateError("sampling is disabled in the fallback regime")
    if t != state.next_sample_time:
        raise InvalidStateError(
            f"sample at t={t!r} but the scheduled time is {state.next_sample_time!r}"
        )
    v_e = cfg.alpha * v_sample + (1.0 - cfg.alpha) * state.v_e
    state.v_e = v_e
    step = state.t_s * cfg.beta
    state.r_i += v_e * step
    state.samples_this_epoch += 1
    if state.r_i < state.budget_m * (1.0 - BUDGET_REL_TOL):
        next_time = state.last_fix_time + (state.samples_this_epoch + 1) * step
        state.next_sample_time = next_time
        return SampleAgainAt(next_time)
    state.next_sample_time = math.inf
    return FixNowAt(t, state.current_method)


def on_requirement_change(
    state: SchedulerState,
    t: float,
    new_requirement_m: float,
    cfg: StrategyConfig,
) -> FixNowAt:
    """React to the accuracy requirement changing at time ``t``.

    Cancels any pending sample and calls for an immediate fix with the
    method selected for the new requirement; the caller then starts the
    new epoch via begin_epoch at the same instant (which, selection being
    velocity-invariant, picks the same method).
    """
    if state.current_method is None or state.v_e is None:
        raise InvalidStateError("no epoch is open; call begin_epoch first")
    if new_requirement_m <= 0:
        raise ConfigError(f"accuracy requirement must be > 0, got {new_requirement_m!r}")
    method = select_method(cfg.methods, new_requirement_m, state.v_e)
    if method is None:
        method = most_accurate_method(cfg.methods)
    state.next_sample_time = math.inf
    return FixNowAt(t, method)
