"""Adaptive localization scheduling: methods, tuning knobs and the selector.

The strategy keeps an exponentially weighted moving average (EWMA) of the
observed velocity, picks the localization method with the lowest energy
cost per second of usable epoch (energy divided by the time the method's
error budget is expected to last), and schedules the next fix when the
accumulated distance estimate exhausts that budget.

An epoch starts at a fix and ends at the next one. The epoch sampling
interval ``t_s`` is frozen when the epoch begins; velocity is re-sampled
every ``t_s * beta`` seconds and each sample advances the distance
estimate by ``v_e * t_s * beta``. The event loop that does this, and times
each epoch, is ``locsim.simulator._event_loop``; this module holds what it
is configured with and the steps it calls: :func:`plan_method`, once per
requirement span of a config, :func:`begin_epoch`, which takes the plan or
selects a method, once per fix and :func:`on_velocity_sample`, the one EWMA,
once per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError

__all__ = [
    "Method",
    "StrategyConfig",
    "DEFAULT_METHODS_TEXT",
    "DEFAULT_METHODS",
    "parse_methods",
    "cost_rate",
    "select_method",
    "plan_method",
    "begin_epoch",
    "on_velocity_sample",
]

# Accumulated-estimate sums within one part in 1e12 of the budget count as
# having reached it, so the discrete loop lands on the same fix times as
# exact arithmetic would (e.g. budget/v followed by v*t_s rounding down).
BUDGET_REL_TOL = 1e-12

# plan_method commits to a method only when its energy per metre of room is
# below every other eligible method's by this relative gap: far wider than
# the few-ulp rounding of a computed cost rate. Its bounds on rooms and
# rates keep every rate it vouches for a normal float, which that rounding
# bound needs (the smallest normal float is about 2.2e-308).
PLAN_REL_GAP = 1e-9
PLAN_MIN, PLAN_MAX = 1e-290, 1e290


@dataclass(frozen=True)
class Method:
    """A localization method: its error radius (m) and per-fix energy (mJ)."""

    name: str
    accuracy_m: float
    energy_mJ: float

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ":;,"):
            raise ConfigError(f"invalid method name {self.name!r}")
        if not (math.isfinite(self.accuracy_m) and self.accuracy_m > 0):
            raise ConfigError(f"method {self.name}: accuracy_m must be finite and > 0")
        if not (math.isfinite(self.energy_mJ) and self.energy_mJ > 0):
            raise ConfigError(f"method {self.name}: energy_mJ must be finite and > 0")


DEFAULT_METHODS_TEXT = "gps:10:1425;wifi:50:545;gsm:150:20"


def parse_methods(text: str) -> tuple[Method, ...]:
    """Parse ``name:accuracy_m:energy_mJ;...``; :class:`StrategyConfig` checks the set."""
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
    return tuple(methods)


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
        if not (0 < self.alpha <= 1):
            raise ConfigError(f"alpha must satisfy 0 < alpha <= 1, got {self.alpha!r}")
        if not (0 < self.beta <= 1):
            raise ConfigError(f"beta must satisfy 0 < beta <= 1, got {self.beta!r}")
        if not (math.isfinite(self.t_min_refix_s) and self.t_min_refix_s > 0):
            raise ConfigError(f"t_min_refix_s must be finite and > 0, got {self.t_min_refix_s!r}")
        if not self.methods:
            raise ConfigError("method set is empty")
        seen: set[str] = set()
        for m in self.methods:
            if m.name in seen:
                raise ConfigError(f"duplicate method name {m.name!r}")
            seen.add(m.name)
        object.__setattr__(self, "methods", tuple(self.methods))


def on_velocity_sample(v_e: float, v: float, alpha: float) -> float:
    """The EWMA after the velocity sample ``v``: alpha weighs the fresh
    sample, 1-alpha the history ``v_e``.

    ``alpha`` is not checked here: :class:`StrategyConfig` validates it once.
    """
    return alpha * v + (1.0 - alpha) * v_e


def cost_rate(method: Method, a_t: float, v_e: float) -> float:
    """Energy per second of epoch bought by one fix with ``method``.

    The error budget a_t - accuracy_m lasts (a_t - accuracy_m) / v_e
    seconds at estimated velocity v_e. Methods whose accuracy does not
    strictly beat the requirement get ``math.inf`` (the ineligible
    sentinel). A budget so small that those seconds underflow to 0 raises
    :class:`ConfigError`.
    """
    if method.accuracy_m >= a_t:
        return math.inf
    seconds = (a_t - method.accuracy_m) / v_e
    if seconds == 0.0:
        raise ConfigError(
            f"method {method.name}: the budget {a_t - method.accuracy_m!r} m under "
            f"requirement {a_t!r} m lasts 0 s at {v_e!r} m/s (underflow)"
        )
    return method.energy_mJ / seconds


def select_method(methods: Sequence[Method], a_t: float, v_e: float) -> Optional[Method]:
    """Pick the eligible method with the lowest cost rate.

    Ties break on smaller accuracy_m, then lexicographic name. Returns
    None when no rate is finite (in a run, the plan covers those spans). The
    choice is independent of v_e > 0, up to rounding.
    """
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


def plan_method(methods: Sequence[Method], a_t: float, v_hi: float) -> Optional[Method]:
    """The method :func:`select_method` picks under ``a_t`` at every v_e in
    [1, v_hi]; the fallback, the most accurate method (ties broken by name),
    when no method beats ``a_t``; or None when the pick cannot be proven.

    Each rate ``e / ((a_t - accuracy_m) / v_e)`` is within a factor of about
    1 +- 4 * 2**-53 of ``q * v_e``, with ``q = e / (a_t - accuracy_m)``, as
    long as no step leaves the normal float range. So the method with the
    smallest q wins at every v_e when its q is below every other eligible q
    by :data:`PLAN_REL_GAP`. Returns None on ties and near-ties (decided per
    fix by accuracy and name), and when a room or rate could underflow or
    overflow for some v_e in range (decided per fix by :func:`select_method`).
    """
    best: Optional[Method] = None
    best_q = second_q = math.inf
    for m in methods:
        if m.accuracy_m >= a_t:
            continue
        d = a_t - m.accuracy_m
        q = m.energy_mJ / d
        if min(d / v_hi, q) < PLAN_MIN or q * v_hi > PLAN_MAX:
            return None
        if q < best_q:
            best, best_q, second_q = m, q, best_q
        elif q < second_q:
            second_q = q
    if best is None:
        return min(methods, key=lambda m: (m.accuracy_m, m.name))
    return best if best_q < second_q * (1.0 - PLAN_REL_GAP) else None


def begin_epoch(
    cfg: StrategyConfig, a_t: float, v: float, v_e: Optional[float], plan: Optional[Method]
) -> tuple[float, Method]:
    """Open the epoch that starts at a fix under requirement ``a_t``: fold
    the fix-time velocity ``v`` into the EWMA ``v_e`` (None before the first
    fix, which sets it to ``v``) and take the method, ``plan`` or, when that
    is None, the :func:`select_method` choice at this ``v_e``, which in a run
    always finds one: a plan is None only where some method beats ``a_t``,
    and the preflight refuses rates that are not finite. Returns (v_e,
    method); the loop times the epoch.
    """
    # Called through this module's name, not the one locsim.simulator
    # imports, so calls of that name stay one per sample.
    v_e = v if v_e is None else on_velocity_sample(v_e, v, cfg.alpha)
    return v_e, plan if plan is not None else select_method(cfg.methods, a_t, v_e)
