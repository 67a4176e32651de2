"""Discrete-event simulation of localization scheduling over a mobility trace.

A run starts with an unconditional (and charged) fix at t=0 and then
samples velocity and re-fixes as the adaptive strategy prescribes. Changes in
the accuracy requirement force an immediate re-fix; when a change lands at
the exact instant a fix was already due, only one fix happens. Events that
would occur at or after the horizon are dropped.

The satisfaction degree is the fraction of time the position uncertainty
(distance moved since the last fix plus that fix's method accuracy) stays
within the requirement in force. Velocity never drops below 1 m/s, so the
uncertainty is strictly increasing between fixes and every
satisfied-to-violated crossing is solved in closed form on its linear
piece; no time discretization is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .mobility import (
    MobilityParams,
    MotionTrace,
    generate_trace,
    positions_at,
    times_at_positions,
)
from .strategy import (
    BUDGET_REL_TOL,
    Method,
    StrategyConfig,
    begin_epoch,
    cost_rate,
    on_velocity_sample,
    plan_method,
)

__all__ = [
    "AccuracySchedule",
    "parse_schedule",
    "SimulationConfig",
    "Event",
    "EVENT_FIX",
    "EVENT_SAMPLE",
    "EVENT_SCHEDULE_CHANGE",
    "RunResult",
    "MAX_EVENTS",
    "event_bounds",
    "run",
    "SweepMean",
    "sweep",
    "sweep_means",
    "figure_series",
    "SUMMARY_CSV_HEADER",
    "MEAN_CSV_HEADER",
    "EVENT_CSV_HEADER",
    "summary_to_csv",
    "write_summary_csv",
    "means_to_csv",
    "write_mean_csv",
    "events_to_csv",
    "write_events_csv",
]

EVENT_FIX = "fix"
EVENT_SAMPLE = "sample"
EVENT_SCHEDULE_CHANGE = "schedule_change"

SUMMARY_CSV_HEADER = "kind,alpha,beta,seed,total_energy_mJ,satisfaction,fix_count,sample_count"
MEAN_CSV_HEADER = "kind,alpha,beta,total_energy_mJ,satisfaction,fix_count,sample_count"
EVENT_CSV_HEADER = "time_s,kind,method,energy_mJ,position_m,velocity_mps,ve_mps"


@dataclass(frozen=True)
class AccuracySchedule:
    """Left-closed piecewise-constant accuracy requirement over time.

    ``entries`` are (start_s, requirement_m) pairs; the first start must be
    0 and starts must strictly increase. The last entry extends to the end
    of any horizon.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(s), float(r)) for s, r in self.entries)
        if not entries:
            raise ConfigError("schedule needs at least one entry")
        for s, r in entries:
            if not (math.isfinite(s) and math.isfinite(r)):
                raise ConfigError(f"schedule entry {s!r}:{r!r} must be finite")
        if entries[0][0] != 0:
            raise ConfigError(f"schedule must start at t=0, got {entries[0][0]!r}")
        for (s0, _), (s1, _) in zip(entries, entries[1:]):
            if s1 <= s0:
                raise ConfigError("schedule start times must strictly increase")
        for s, r in entries:
            if r <= 0:
                raise ConfigError(f"requirement at t={s:g} must be > 0, got {r!r}")
        object.__setattr__(self, "entries", entries)


def parse_schedule(text: str) -> AccuracySchedule:
    """Parse ``start:requirement,start:requirement,...``."""
    entries: list[tuple[float, float]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 2:
            raise ConfigError(f"malformed schedule entry {part!r} (want start_s:requirement_m)")
        try:
            entries.append((float(fields[0]), float(fields[1])))
        except ValueError as exc:
            raise ConfigError(f"malformed schedule entry {part!r}: {exc}") from exc
    return AccuracySchedule(tuple(entries))


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run needs: mobility, strategy tuning, schedule, kind.

    ``strategy_kind`` is either "adaptive" (cost-rate method selection) or
    "fixed:<name>" which pins that method while keeping the same scheduling
    loop (budget-driven sampling, forced re-fix on requirement changes).
    """

    mobility: MobilityParams
    strategy_cfg: StrategyConfig
    schedule: AccuracySchedule
    strategy_kind: str = "adaptive"

    def __post_init__(self) -> None:
        self.pinned_method()

    def pinned_method(self) -> Optional[Method]:
        kind = self.strategy_kind
        if kind == "adaptive":
            return None
        if kind.startswith("fixed:"):
            name = kind[len("fixed:"):]
            for m in self.strategy_cfg.methods:
                if m.name == name:
                    return m
            raise ConfigError(f"strategy {kind!r} names an unknown method {name!r}")
        raise ConfigError(f"strategy must be 'adaptive' or 'fixed:<name>', got {kind!r}")


class Event(NamedTuple):
    """One observable simulation event.

    At a shared timestamp the canonical log order is schedule_change, then
    fix, then sample. ``v_e_mps`` is the estimator state right after the
    event; method and energy are only set for fixes.
    """

    time_s: float
    kind: str
    method: Optional[Method]
    energy_mJ: Optional[float]
    position_m: float
    velocity_mps: float
    v_e_mps: float


@dataclass(frozen=True)
class RunResult:
    """One run's summary-CSV row, its coordinates taken from its config, then its event log.

    ``log`` holds one plain tuple per event, in :class:`Event` field order;
    :attr:`events` builds the :class:`Event` records from it on first access.
    """

    kind: str
    alpha: float
    beta: float
    seed: int
    total_energy_mJ: float
    satisfaction: float
    fix_count: int
    sample_count: int
    log: tuple[tuple, ...] = ()

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """``log`` as :class:`Event` records, built once."""
        return tuple(Event(*row) for row in self.log)


def on_requirement_change(
    entries: Sequence[tuple[float, float]], i: int
) -> tuple[float, float]:
    """Schedule entry ``i`` comes into force (entry 0 when a run starts).

    Returns its requirement and the start of the next entry, ``math.inf``
    after the last one.
    """
    return entries[i][1], entries[i + 1][0] if i + 1 < len(entries) else math.inf


# The most fixes plus samples that :func:`event_bounds` may allow one run.
# The paper's runs are allowed about 1.3e4 at beta 0.1; a config allowed
# more than this would take hours and fill memory with its event log.
MAX_EVENTS = 10**8


def _steps(span: float, step: float, ulp: float) -> float:
    """The most advances of at least ``step`` that fit in ``span``, each
    shortened by up to ``ulp`` of rounding; inf when rounding could stall."""
    if span <= 0.0:
        return 0.0
    return span / (step - ulp) if step > ulp else math.inf


def event_bounds(config: SimulationConfig) -> tuple[float, float]:
    """Upper bounds on a run's fix and sample counts, from ``config`` alone.

    Within each schedule span of length L under the horizon, every epoch
    with a positive room lasts until the distance estimate, which grows at
    most at 2 * v_max, reaches the room; so with rho the smallest positive
    room of the methods the run uses, fixes <= 1 + L * 2 * v_max / (rho *
    (1 - BUDGET_REL_TOL)), and samples, each at least rho * beta / (2 *
    v_max) after the last, <= fixes + L * 2 * v_max / (rho * beta). A span
    where no method beats the requirement re-fixes instead, adding L /
    t_min_refix_s fixes. Each advance is taken shortened by the float
    spacing at the span's end, and one that spacing could round away gives
    an infinite bound.

    Raises :class:`ConfigError` when a method the run uses beats a
    requirement in the horizon but its cost rate overflows, or its seconds
    of room underflow, at v_e = 2 * v_max. The EWMA stays below that and
    float division rounds monotonically, so a run that passes has a finite
    rate at every fix and falls back only where no method beats a_t.
    """
    cfg = config.strategy_cfg
    pinned = config.pinned_method()
    return _event_bounds(
        config.schedule.entries,
        cfg.methods if pinned is None else (pinned,),
        float(config.mobility.duration_s),
        2.0 * config.mobility.v_max,
        cfg.beta,
        cfg.t_min_refix_s,
    )


# The bounds do not depend on the seed or alpha, so the runs of a sweep
# share them; the cache keeps the preflight off each run's cost.
@lru_cache(maxsize=64)
def _event_bounds(
    entries: tuple[tuple[float, float], ...],
    methods: tuple[Method, ...],
    duration: float,
    v_hi: float,
    beta: float,
    t_min: float,
) -> tuple[float, float]:
    near = 1.0 - BUDGET_REL_TOL
    ends = [start for start, _ in entries[1:]]
    ends.append(math.inf)
    fixes = samples = 0.0
    for (start, a_t), end in zip(entries, ends):
        if start >= duration and start > 0.0:
            break
        end = min(end, duration)
        span, ulp = end - start, math.ulp(end)
        rho = math.inf
        for m in methods:
            room = a_t - m.accuracy_m
            if room > 0.0:
                rho = min(rho, room)
                if cost_rate(m, a_t, v_hi) == math.inf:  # an underflow raises in cost_rate
                    raise ConfigError(
                        f"method {m.name}: its cost rate under requirement {a_t!r} m overflows; "
                        "lower its energy_mJ or raise the requirement"
                    )
        span_fixes, span_samples = 1.0, 0.0
        if rho == math.inf:
            span_fixes += _steps(span, t_min, ulp)
        else:
            span_fixes += _steps(span, rho * near / v_hi, ulp)
            span_samples += _steps(span, rho * beta / v_hi, ulp)
        fixes += span_fixes
        samples += span_fixes + span_samples
    return fixes, samples


def _allowed_events(config: SimulationConfig) -> float:
    """The sum of ``config``'s :func:`event_bounds`; :class:`ConfigError`
    when it is infinite or above :data:`MAX_EVENTS`."""
    most = sum(event_bounds(config))
    if most > MAX_EVENTS:
        why = (
            "an epoch or re-fix period is too short to advance the event time"
            if most == math.inf
            else f"the config allows up to {most:.3g} fixes and samples in one run, "
            f"more than {MAX_EVENTS:.0e}"
        )
        raise ConfigError(
            f"{why}; raise beta, t_min_refix_s or the rooms (requirement minus method accuracy)"
        )
    return most


def run(
    config: SimulationConfig,
    *,
    trace: Optional[MotionTrace] = None,
    record_events: bool = True,
) -> RunResult:
    """Simulate one full run; pure function of ``config``.

    ``trace`` may supply a pre-generated trace for the same mobility
    parameters (useful when sweeping strategy knobs over a shared seed).
    With ``record_events=False`` the event log is left empty; every metric
    is unchanged. Every :class:`ConfigError` is raised before any trace is
    generated: by the config types, or by the preflight, which refuses what
    :func:`event_bounds` refuses and bounds adding up to over :data:`MAX_EVENTS`.

    The scheduler is one loop over Python floats, one epoch per outer
    iteration. Each fix opens an epoch with
    :func:`~locsim.strategy.begin_epoch`, called once per fix, which folds
    the velocity at the fix into the EWMA ``v_e`` and takes the method that
    :func:`~locsim.strategy.plan_method` chose for the requirement in force,
    or selects one at this ``v_e`` when there is no plan, and returns the
    wait ``(a_t - accuracy_m) / v_e * beta``. A positive room (requirement
    minus method accuracy) is sampled every wait. Each sample calls
    :func:`~locsim.strategy.on_velocity_sample`, the one EWMA, once, and the
    loop itself advances the distance estimate ``r_i`` by ``v_e * wait``;
    the sample at which ``r_i`` reaches the room calls for a fix at that
    same instant. A room <= 0 (no method beats the requirement) re-fixes
    after a wait of ``t_min_refix_s`` instead. At each
    change of the requirement :func:`on_requirement_change` moves to the
    next schedule entry, and the method is planned again.

    Each event is logged as a plain tuple in :class:`Event` field order,
    its position computed in the loop as ``cum[k] + (t - k) * v`` with
    ``k = int(t)``: the float expression of
    :func:`~locsim.mobility.positions_at`. :attr:`RunResult.events` builds
    the :class:`Event` records from that log only when it is read.
    """
    _allowed_events(config)
    if trace is None:
        trace = generate_trace(config.mobility)
    elif trace.params != config.mobility:
        raise ConfigError("supplied trace was generated from different mobility parameters")

    cfg = config.strategy_cfg
    pinned = config.pinned_method()
    if pinned is not None:
        cfg = replace(cfg, methods=(pinned,))
    entries = config.schedule.entries
    duration = float(config.mobility.duration_s)
    vel = trace.velocity_list  # every event index int(t) is < duration, so in range
    cum = trace.cumulative_m.tolist() if record_events else None
    alpha = cfg.alpha
    near = 1.0 - BUDGET_REL_TOL
    # The EWMA of velocities in [v_min, v_max] stays there up to rounding,
    # so twice v_max bounds it with room to spare.
    v_hi = 2.0 * config.mobility.v_max

    log: list[tuple] = []
    fix_times: list[float] = []
    fix_rooms: list[float] = []
    energy = 0.0
    samples = 0
    trigger: Optional[tuple] = None  # a sample calling for a fix is logged after that fix

    si = 0  # index of the schedule entry in force
    a_t, change_t = on_requirement_change(entries, si)
    plan = plan_method(cfg.methods, a_t, v_hi)
    bound = min(change_t, duration)
    t = 0.0
    v = vel[0]
    v_e: Optional[float] = None
    while True:
        # A fix at t; v is the velocity at t.
        v_e, method, wait = begin_epoch(cfg, a_t, v, v_e, plan)
        room = a_t - method.accuracy_m
        energy += method.energy_mJ
        fix_times.append(t)
        fix_rooms.append(room)
        if record_events:
            k = int(t)
            log.append((t, EVENT_FIX, method, method.energy_mJ, cum[k] + (t - k) * v, v, v_e))
            if trigger is not None:
                log.append(trigger)
                trigger = None

        # Find the next event: a fix (fix_due), else a change or the horizon.
        fix_due = False
        t_next = t + wait
        if room > 0.0:
            limit = room * near
            r_i = 0.0
            n = 0  # samples taken in this epoch
            while t_next < bound:
                v = vel[int(t_next)]
                v_e = on_velocity_sample(v_e, v, alpha)
                r_i += v_e * wait
                n += 1
                if not r_i < limit:
                    fix_due = True
                    if record_events:
                        k = int(t_next)
                        trigger = (
                            t_next, EVENT_SAMPLE, None, None, cum[k] + (t_next - k) * v, v, v_e
                        )
                    break
                if record_events:
                    k = int(t_next)
                    log.append(
                        (t_next, EVENT_SAMPLE, None, None, cum[k] + (t_next - k) * v, v, v_e)
                    )
                t_next = t + (n + 1) * wait
            samples += n
        elif t_next < bound:
            fix_due = True
            v = vel[int(t_next)]

        if fix_due:
            t = t_next
        elif change_t <= t_next and change_t < duration:
            # A change due exactly when a fix was scheduled coalesces into
            # this single forced fix.
            t = change_t
            v = vel[int(t)]
            if record_events:
                k = int(t)
                log.append(
                    (t, EVENT_SCHEDULE_CHANGE, None, None, cum[k] + (t - k) * v, v, v_e)
                )
            si += 1
            a_t, change_t = on_requirement_change(entries, si)
            plan = plan_method(cfg.methods, a_t, v_hi)
            bound = min(change_t, duration)
        else:
            break

    satisfaction = _satisfaction_exact(
        np.array(fix_times, dtype=float), np.array(fix_rooms, dtype=float), trace
    )
    return RunResult(
        config.strategy_kind,
        alpha,
        cfg.beta,
        config.mobility.seed,
        energy,
        satisfaction,
        len(fix_times),
        samples,
        tuple(log),
    )


def _satisfaction_exact(
    span_start: np.ndarray, span_room: np.ndarray, trace: MotionTrace
) -> float:
    """Fraction of [0, duration] where uncertainty stays within the requirement.

    Span i opens with a fix at ``span_start[i]`` (the first at t=0) and runs
    to the next span's start, the last one to the horizon. Its room is the
    requirement in force minus the fix's method accuracy. Time counts as
    satisfied while the distance moved since the fix is at most the room,
    equality included.
    """
    duration = float(trace.params.duration_s)
    if duration <= 0:
        return 1.0
    span_end = np.append(span_start[1:], duration)
    crossings = times_at_positions(trace, positions_at(trace, span_start) + span_room)
    crossings = np.where(span_room < 0, span_start, crossings)
    crossings = np.clip(crossings, span_start, span_end)
    violated = float(np.sum(span_end - crossings))
    if violated <= 0.0:
        return 1.0
    return (duration - violated) / duration


@dataclass(frozen=True)
class SweepMean:
    kind: str
    alpha: float
    beta: float
    total_energy_mJ: float
    satisfaction: float
    fix_count: float
    sample_count: float


def sweep(
    base: SimulationConfig,
    alphas: Sequence[float],
    betas: Sequence[float],
    seeds: Sequence[int],
    kinds: Sequence[str],
) -> list[RunResult]:
    """Run the grid in deterministic (kind, alpha, beta, seed) order.

    Before any trace, each (kind, alpha, beta) cell config is built once. A
    refused cell is named with the first seed, as bounds do not depend on
    seeds; a grid whose runs allow over :data:`MAX_EVENTS` events in all is
    refused too. Then each seed's trace is generated once, shared by the cells.
    """
    if not alphas or not betas or not seeds or not kinds:
        raise ConfigError("sweep needs at least one alpha, beta, seed and kind")
    cells: list[SimulationConfig] = []
    most = 0.0
    for kind, alpha, beta in product(kinds, alphas, betas):
        try:
            strategy_cfg = replace(base.strategy_cfg, alpha=alpha, beta=beta)
            cfg = replace(base, strategy_cfg=strategy_cfg, strategy_kind=kind)
            most += _allowed_events(cfg) * len(seeds)
        except ConfigError as exc:
            raise ConfigError(
                f"sweep cell kind={kind} alpha={alpha} beta={beta} seed={seeds[0]}: {exc}"
            ) from exc
        # A run allows at least two events, so a grid of any size is
        # refused after at most MAX_EVENTS / 2 cells.
        if most > MAX_EVENTS:
            raise ConfigError(
                f"the sweep's {len(kinds) * len(alphas) * len(betas) * len(seeds)} runs allow "
                f"more than {MAX_EVENTS:.0e} fixes and samples; shrink the grid or the duration"
            )
        cells.append(cfg)
    mobility = [replace(base.mobility, seed=seed) for seed in dict.fromkeys(seeds)]
    traces = {params.seed: generate_trace(params) for params in mobility}
    rows: list[RunResult] = []
    for cfg in cells:
        for seed in seeds:
            trace = traces[seed]
            rows.append(run(replace(cfg, mobility=trace.params), trace=trace, record_events=False))
    return rows


def sweep_means(rows: Sequence[RunResult]) -> list[SweepMean]:
    """Per-(kind, alpha, beta) means over seeds, in first-appearance order."""
    grouped: dict[tuple[str, float, float], list[RunResult]] = {}
    for row in rows:
        grouped.setdefault((row.kind, row.alpha, row.beta), []).append(row)
    means: list[SweepMean] = []
    for (kind, alpha, beta), cell in grouped.items():
        n = len(cell)
        means.append(
            SweepMean(
                kind,
                alpha,
                beta,
                math.fsum(r.total_energy_mJ for r in cell) / n,
                math.fsum(r.satisfaction for r in cell) / n,
                math.fsum(r.fix_count for r in cell) / n,
                math.fsum(r.sample_count for r in cell) / n,
            )
        )
    return means


DEFAULT_FIGURE_BETAS = tuple(round(0.1 * i, 10) for i in range(1, 11))
DEFAULT_FIGURE_SEEDS = tuple(range(1, 31))


def figure_series(
    base: SimulationConfig,
    *,
    betas: Sequence[float] = DEFAULT_FIGURE_BETAS,
    seeds: Sequence[int] = DEFAULT_FIGURE_SEEDS,
) -> dict[str, list[tuple[float, float, float]]]:
    """Build the four comparison tables: energy and satisfaction vs beta.

    fig2/fig3 compare mean energy / mean satisfaction of fixed:gps against
    the adaptive strategy at alpha=0.5; fig4/fig5 repeat this at alpha=0.3.
    Rows are (beta, gps_value, ours_value).
    """
    tables: dict[str, list[tuple[float, float, float]]] = {}
    for alpha, (energy_key, sat_key) in ((0.5, ("fig2", "fig3")), (0.3, ("fig4", "fig5"))):
        rows = sweep(base, [alpha], betas, seeds, ["fixed:gps", "adaptive"])
        means = sweep_means(rows)
        gps = {m.beta: m for m in means if m.kind == "fixed:gps"}
        ours = {m.beta: m for m in means if m.kind == "adaptive"}
        tables[energy_key] = [
            (b, gps[b].total_energy_mJ, ours[b].total_energy_mJ) for b in betas
        ]
        tables[sat_key] = [(b, gps[b].satisfaction, ours[b].satisfaction) for b in betas]
    return tables


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def summary_to_csv(rows: Sequence[RunResult]) -> str:
    lines = [SUMMARY_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.kind},{_fmt(r.alpha)},{_fmt(r.beta)},{r.seed},"
            f"{_fmt(r.total_energy_mJ)},{_fmt(r.satisfaction)},{r.fix_count},{r.sample_count}"
        )
    return "\n".join(lines) + "\n"


def write_summary_csv(rows: Sequence[RunResult], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(summary_to_csv(rows))


def means_to_csv(means: Sequence[SweepMean]) -> str:
    lines = [MEAN_CSV_HEADER]
    for m in means:
        lines.append(
            f"{m.kind},{_fmt(m.alpha)},{_fmt(m.beta)},"
            f"{_fmt(m.total_energy_mJ)},{_fmt(m.satisfaction)},{_fmt(m.fix_count)},{_fmt(m.sample_count)}"
        )
    return "\n".join(lines) + "\n"


def write_mean_csv(means: Sequence[SweepMean], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(means_to_csv(means))


# "%.6f" % x is the same string as f"{x:.6f}" for every float.
_EVENT_ROW = "%.6f,%s,,,%.6f,%.6f,%.6f\n"
_FIX_ROW = "%.6f,%s,%s,%.6f,%.6f,%.6f,%.6f\n"


def events_to_csv(rows: Sequence[tuple]) -> str:
    """The event CSV of ``rows``: 7-tuples in :class:`Event` field order, such
    as :attr:`RunResult.log` or :attr:`RunResult.events`, formatted with one
    ``%`` over the whole log."""
    templates: list[str] = []
    values: list = []
    for t, kind, method, energy_mJ, position, v, v_e in rows:
        if method is None:
            templates.append(_EVENT_ROW)
            values += (t, kind, position, v, v_e)
        else:
            templates.append(_FIX_ROW)
            values += (t, kind, method.name, energy_mJ, position, v, v_e)
    return EVENT_CSV_HEADER + "\n" + "".join(templates) % tuple(values)


def write_events_csv(rows: Sequence[tuple], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(events_to_csv(rows))
