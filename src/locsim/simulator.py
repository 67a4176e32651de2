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
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
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
    "EVENT_FIX",
    "EVENT_SAMPLE",
    "EVENT_SCHEDULE_CHANGE",
    "RunResult",
    "MAX_EVENTS",
    "MAX_LOGGED_EVENTS",
    "RUN_EVENTS_FLOOR",
    "CSV_BLOCK_ROWS",
    "event_bounds",
    "run",
    "SweepMean",
    "sweep",
    "sweep_means",
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
    ``loop_strategy`` is derived from the two: ``strategy_cfg`` with the
    methods the kind uses, all of them or the pinned one alone.
    """

    mobility: MobilityParams
    strategy_cfg: StrategyConfig
    schedule: AccuracySchedule
    strategy_kind: str = "adaptive"
    loop_strategy: StrategyConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        cfg, kind = self.strategy_cfg, self.strategy_kind
        if kind.startswith("fixed:"):
            name = kind[len("fixed:"):]
            pinned = tuple(m for m in cfg.methods if m.name == name)
            if not pinned:
                raise ConfigError(f"strategy {kind!r} names an unknown method {name!r}")
            cfg = replace(cfg, methods=pinned)
        elif kind != "adaptive":
            raise ConfigError(f"strategy must be 'adaptive' or 'fixed:<name>', got {kind!r}")
        object.__setattr__(self, "loop_strategy", cfg)


class RunResult(NamedTuple):
    """One run's summary-CSV row in column order (coordinates from its config), then its log.

    ``log`` holds one plain tuple per event: (time_s, kind, method,
    energy_mJ, position_m, velocity_mps, v_e_mps). There ``kind`` is one of
    the ``EVENT_*`` names, and at a shared timestamp the order is
    schedule_change, then fix, then sample. ``method`` and ``energy_mJ`` are
    set for fixes and None otherwise; ``v_e_mps`` is the velocity estimate
    right after the event.
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


class SweepMean(NamedTuple):
    """One (kind, alpha, beta) cell's means over its seeds: a mean-CSV row."""

    kind: str
    alpha: float
    beta: float
    total_energy_mJ: float
    satisfaction: float
    fix_count: float
    sample_count: float


SUMMARY_CSV_HEADER = ",".join(RunResult._fields[:-1])
MEAN_CSV_HEADER = ",".join(SweepMean._fields)


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
# The most a run that records its event log may be allowed: a logged event
# keeps about 200 B, so this caps the log near 2 GB (plus one written block).
MAX_LOGGED_EVENTS = 10**7
_GAP_CHUNK = 8_192  # spans per crossing pass of _satisfaction_exact, to bound its temporaries


def _steps(span: float, step: float, ulp: float) -> float:
    """The most advances of at least ``step`` that fit in ``span``, each
    shortened by up to ``ulp`` of rounding; inf when rounding could stall."""
    if span <= 0.0:
        return 0.0
    return span / (step - ulp) if step > ulp else math.inf


def event_bounds(
    config: SimulationConfig, record_events: bool = False
) -> tuple[float, float, tuple[tuple, ...]]:
    """The preflight: bounds on a run's fix and sample counts, and its span
    table, from ``config`` alone.

    Within each schedule span of length L under the horizon, every epoch
    with a positive room lasts until the distance estimate, which grows at
    most at 2 * v_max, reaches the room; so with rho the smallest positive
    room of the methods the run uses, fixes <= 1 + L * 2 * v_max / (rho *
    (1 - BUDGET_REL_TOL)), and samples, each at least rho * beta / (2 *
    v_max) after the last, <= fixes + L * 2 * v_max / (rho * beta). A span
    where no method beats the requirement re-fixes instead, adding L /
    t_min_refix_s fixes. Each advance is taken shortened by the float
    spacing at the span's end, and one that spacing could round away gives
    an infinite bound. The span table has one row ``(a_t, bound, plan)``
    per span under the horizon: the requirement in force, the span's end
    (the next change or the horizon) and its planned method.

    Raises :class:`ConfigError` when the bounds add up to an infinite sum
    or to more than :data:`MAX_EVENTS`, or, with ``record_events``, to
    more than :data:`MAX_LOGGED_EVENTS`. It also raises when a method the
    run uses beats a requirement in the horizon but its cost rate
    overflows, or its seconds of room underflow, at v_e = 2 * v_max. The
    EWMA stays below that and float division rounds monotonically, so a run
    that passes has a finite rate at every fix: where a span has no plan,
    :func:`select_method <locsim.strategy.select_method>` always finds a
    method.
    """
    cfg = config.loop_strategy
    fixes, samples, spans = _event_bounds(
        config.schedule.entries,
        cfg.methods,
        float(config.mobility.duration_s),
        2.0 * config.mobility.v_max,
        cfg.beta,
        cfg.t_min_refix_s,
    )
    most = fixes + samples
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
    if record_events and most > MAX_LOGGED_EVENTS:
        raise ConfigError(
            f"the config allows up to {most:.3g} fixes and samples in one run, more than the "
            f"{MAX_LOGGED_EVENTS:.0e} an event log may hold; drop --out, or raise beta or the rooms"
        )
    return fixes, samples, spans


# The walk does not depend on the seed or alpha: the cache shares one span
# table among sweep cells that differ only in alpha, and across calls.
@lru_cache(maxsize=64)
def _event_bounds(
    entries: tuple[tuple[float, float], ...],
    methods: tuple[Method, ...],
    duration: float,
    v_hi: float,
    beta: float,
    t_min: float,
) -> tuple[float, float, tuple[tuple, ...]]:
    near = 1.0 - BUDGET_REL_TOL
    fixes = samples = 0.0
    spans: list[tuple] = []
    for i, (start, _) in enumerate(entries):
        if start >= duration and start > 0.0:
            break
        a_t, change_t = on_requirement_change(entries, i)
        bound = min(change_t, duration)
        span, ulp = bound - start, math.ulp(bound)
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
        spans.append((a_t, bound, plan_method(methods, a_t, v_hi)))
    return fixes, samples, tuple(spans)


def run(config: SimulationConfig, *, record_events: bool = True) -> RunResult:
    """Simulate one full run; pure function of ``config``.

    With ``record_events=False`` the event log is left empty; every metric
    is unchanged. Every :class:`ConfigError` is raised before the trace is
    generated: by the config types, or by the preflight,
    :func:`event_bounds`, whose span table the run then walks. A run is the
    one-cell case of :func:`_runs_on_trace`, the step :func:`sweep` takes
    for each seed.
    """
    _, _, spans = event_bounds(config, record_events)
    cells = [(config.strategy_kind, config.loop_strategy, spans)]
    (result,) = _runs_on_trace(cells, generate_trace(config.mobility), record_events)
    return result


def _runs_on_trace(
    cells: Sequence[tuple[str, StrategyConfig, tuple[tuple, ...]]],
    trace: MotionTrace,
    record_events: bool,
) -> list[RunResult]:
    """One result row per (kind, loop strategy, span table) cell, all over ``trace``.

    Each cell's strategy holds the methods its kind uses; its span table
    comes from :func:`event_bounds`. :func:`_event_loop` runs once per cell
    and appends to buffers shared by the runs; a run's fixes end at the
    length of ``starts`` when its loop returns. The rooms are expanded to
    one per fix, and one :func:`_satisfaction_exact` call evaluates all the
    runs from those ends; the rows take their seed from the trace.
    """
    starts, rooms, room_at = array("d"), array("d"), array("q")
    loops: list[tuple[float, int, tuple, int]] = []
    for _, cfg, spans in cells:
        energy, samples, log = _event_loop(cfg, spans, trace, record_events, starts, rooms, room_at)
        loops.append((energy, samples, tuple(log), len(starts)))
    ends = [end for *_, end in loops]
    room_at.append(len(starts))
    fix_rooms = np.repeat(np.frombuffer(rooms), np.diff(np.frombuffer(room_at, np.int64)))
    satisfaction = _satisfaction_exact(np.frombuffer(starts), fix_rooms, ends, trace)
    seed = trace.params.seed
    return [
        RunResult(kind, cfg.alpha, cfg.beta, seed, energy, sat, end - lo, samples, log)
        for (kind, cfg, _), (energy, samples, log, end), sat, lo in zip(
            cells, loops, satisfaction, [0, *ends]
        )
    ]


def _event_loop(
    cfg: StrategyConfig,
    spans: tuple[tuple, ...],
    trace: MotionTrace,
    record_events: bool,
    fix_times: array,
    rooms: array,
    room_at: array,
) -> tuple[float, int, list[tuple]]:
    """Schedule fixes and samples over ``trace``, span by span of ``spans``.

    ``cfg`` holds the methods the run may use (one, for a pinned kind), and
    ``spans`` is the config's span table from :func:`event_bounds`. Each
    fix's time is appended to ``fix_times``; its room to ``rooms``, and its
    index in ``fix_times`` to ``room_at``, only when the room differs from
    the previous fix's in this run (so always at a run's first fix). These
    ``array`` buffers may already hold earlier runs' fixes.
    Returns (energy, samples, log): the total fix energy, the sample count,
    and the event log, empty unless ``record_events``.

    The scheduler is three nested loops over Python floats, one per time
    scale. The outer loop makes one pass per row ``(a_t, bound, plan)`` of
    the span table: the requirement in force, the span's end (a change, or
    the horizon) and its planned method. The middle loop makes one pass
    per epoch. A fix at ``t`` opens it with
    :func:`~locsim.strategy.begin_epoch`, called once per fix, which folds
    the velocity at the fix into the EWMA ``v_e`` and takes the planned
    method, or selects one at this ``v_e`` when there is no plan. The epoch
    is timed from the room (requirement minus method accuracy). The inner
    loop samples a positive room every ``wait = room / v_e * beta``: each
    sample calls :func:`~locsim.strategy.on_velocity_sample`, the EWMA,
    once and advances the distance estimate ``r_i`` by ``v_e * wait``, and
    the sample at which ``r_i`` reaches the room calls for the next fix at
    that same instant. A room <= 0, where no method beats the requirement,
    re-fixes after ``t_min_refix_s`` instead. The span ends when its next
    fix would fall at or after its bound; a change at the instant a fix
    was due thus makes the one forced fix that opens the next span, and
    nothing happens at or after the horizon.

    Each event is logged as a plain tuple in :class:`RunResult` log order,
    a sample where it is taken; a fix goes before the last row if that is a
    sample, the one that called for it (any other is followed by a sample or
    ends its span). Each position is computed as ``cum[k] + (t - k) * v``,
    the float expression of :func:`~locsim.mobility.positions_at`, with the
    trace second ``k = math.floor(t)`` taken once per event, where the
    event's velocity ``vel[k]`` is looked up; a fix reuses the ``k`` of the
    event that set its time (t = 0, the sample that called for it, a change,
    or a fallback re-fix). Event times are never negative, so this is the
    second ``int(t)`` gives; ``int(x)`` is a type call, which CPython 3.11
    does not specialize. The sample counters ``n`` and ``samples`` are
    floats for the same reason, so the sample step does only float
    arithmetic; they are exact below 2**53, far above :data:`MAX_EVENTS`,
    and ``samples`` is returned as an int. :func:`_runs_on_trace` is the
    loop's one caller.
    """
    duration = float(trace.params.duration_s)
    vel = trace.velocity_list  # every event second floor(t) is < duration, so in range
    cum = trace.cumulative_m.tolist() if record_events else None
    alpha, beta, t_min = cfg.alpha, cfg.beta, cfg.t_min_refix_s
    near = 1.0 - BUDGET_REL_TOL

    log: list[tuple] = []
    energy = 0.0
    samples = 0.0  # a float, as is n below: see the docstring

    t = 0.0
    k = 0  # floor(t), shared by the velocity lookup and the logged position
    v = vel[0]
    v_e: Optional[float] = None
    last_room = math.nan  # unequal to every room, so the first fix records its own
    for a_t, bound, plan in spans:  # one pass per requirement span
        while True:  # one pass per epoch
            # A fix at t; v is the velocity at t.
            v_e, method = begin_epoch(cfg, a_t, v, v_e, plan)
            room = a_t - method.accuracy_m
            energy += method.energy_mJ
            if room != last_room:
                rooms.append(room)
                room_at.append(len(fix_times))
                last_room = room
            fix_times.append(t)
            if record_events:
                row = (t, EVENT_FIX, method, method.energy_mJ, cum[k] + (t - k) * v, v, v_e)
                if log and log[-1][1] == EVENT_SAMPLE:  # the sample that called for this fix
                    log.insert(-1, row)
                else:
                    log.append(row)

            if room > 0.0:
                wait = room / v_e * beta
                t_next = t + wait
                limit = room * near
                r_i = 0.0
                n = 0.0  # samples taken in this epoch
                while t_next < bound:
                    k = math.floor(t_next)
                    v = vel[k]
                    v_e = on_velocity_sample(v_e, v, alpha)
                    if record_events:
                        log.append(
                            (t_next, EVENT_SAMPLE, None, None, cum[k] + (t_next - k) * v, v, v_e)
                        )
                    r_i += v_e * wait
                    n += 1.0
                    if not r_i < limit:
                        break
                    t_next = t + (n + 1.0) * wait
                samples += n
                if not t_next < bound:
                    break
            else:
                t_next = t + t_min
                if not t_next < bound:
                    break
                k = math.floor(t_next)
                v = vel[k]
            t = t_next

        if bound < duration:
            t = bound
            k = math.floor(t)
            v = vel[k]
            if record_events:
                log.append((t, EVENT_SCHEDULE_CHANGE, None, None, cum[k] + (t - k) * v, v, v_e))

    return energy, int(samples), log


def _satisfaction_exact(
    span_start: np.ndarray, span_room: np.ndarray, ends: Sequence[int], trace: MotionTrace
) -> list[float]:
    """Each run's fraction of [0, duration] where uncertainty stays within the requirement.

    The runs share ``trace``. Their spans come concatenated, run after run,
    and ``ends`` holds where each run's spans end (``[n]`` for one run of
    n). Span i opens with a fix at ``span_start[i]`` (a run's first at
    t=0) and runs to the next span's start within its run, a run's last
    one to the horizon. Its room ``span_room[i]`` is the requirement in
    force minus the fix's method accuracy. Time counts as satisfied while
    the distance moved since the fix is at most the room, equality included.

    The crossings are solved in element-wise steps, :data:`_GAP_CHUNK`
    spans at a time, each chunk turning its span ends into gaps (end minus
    clipped crossing) in place. Each run's violated time is then
    ``np.sum`` over its own contiguous slice of the gaps, which adds the
    same values in the same order as a sum over that run alone, so every
    satisfaction is bit for bit the one of the run evaluated by itself.

    Known defect, kept to match ``perfbench/refsim`` (``span_room < 0``): a
    room of 0 still takes the ``positions_at`` round trip, which can land an
    ulp past the fix, so a run whose every room is 0 (``schedule = 0:10``,
    ``t_min_refix_s = 0.7``, seed 1, 600 s) reads 7.6e-16, not 0.0.
    """
    duration = float(trace.params.duration_s)
    gaps = np.append(span_start[1:], duration)  # each span's end, until its chunk's pass
    gaps[np.subtract(ends, 1)] = duration
    for lo in range(0, len(gaps), _GAP_CHUNK):
        start, room, end = (a[lo : lo + _GAP_CHUNK] for a in (span_start, span_room, gaps))
        crossings = times_at_positions(trace, positions_at(trace, start) + room)
        crossings = np.where(room < 0, start, crossings)
        np.subtract(end, np.clip(crossings, start, end), out=end)
    violated = [float(np.sum(gaps[lo:hi])) for lo, hi in zip([0, *ends], ends)]
    return [1.0 if v <= 0.0 else (duration - v) / duration for v in violated]


# What :func:`sweep` charges each run against :data:`MAX_EVENTS`, at least.
# Beyond its events a run costs its loop set-up and evaluation, and its
# summary row stays in memory until the grid is done. Charging it 1,000
# events caps a grid at MAX_EVENTS / RUN_EVENTS_FLOOR = 100,000 runs,
# however short they are (the paper's grid has 1,200).
RUN_EVENTS_FLOOR = 1_000


def sweep(
    base: SimulationConfig,
    alphas: Sequence[float],
    betas: Sequence[float],
    seeds: Sequence[int],
    kinds: Sequence[str],
) -> list[RunResult]:
    """Run the grid; rows come in deterministic (kind, alpha, beta, seed) order.

    Before any trace, each distinct seed's mobility parameters are built,
    and each (kind, alpha, beta) cell config is built once and bounded by
    :func:`event_bounds`. A refused cell is named with the first seed, as
    bounds do not depend on seeds. The grid is refused too when its runs
    allow over :data:`MAX_EVENTS` events in all, each run charged at least
    :data:`RUN_EVENTS_FLOOR`.

    Then, for each distinct seed, its trace is generated once and one
    :func:`_runs_on_trace` call runs every cell over it, the step that
    :func:`run` takes for a single cell. So each row is what :func:`run`
    returns for its cell and seed without an event log; a seed listed twice
    gives its rows twice.
    """
    if not alphas or not betas or not seeds or not kinds:
        raise ConfigError("sweep needs at least one alpha, beta, seed and kind")
    seed_params: dict[int, MobilityParams] = {}
    for seed in dict.fromkeys(seeds):
        try:
            seed_params[seed] = replace(base.mobility, seed=seed)
        except ConfigError as exc:
            raise ConfigError(f"sweep seed={seed}: {exc}") from exc
    cells: list[tuple[str, StrategyConfig, tuple[tuple, ...]]] = []
    most = 0.0
    for kind, alpha, beta in product(kinds, alphas, betas):
        try:
            strategy_cfg = replace(base.strategy_cfg, alpha=alpha, beta=beta)
            cfg = replace(base, strategy_cfg=strategy_cfg, strategy_kind=kind)
            fixes, samples, spans = event_bounds(cfg)
            most += max(fixes + samples, RUN_EVENTS_FLOOR) * len(seeds)
        except ConfigError as exc:
            raise ConfigError(
                f"sweep cell kind={kind} alpha={alpha} beta={beta} seed={seeds[0]}: {exc}"
            ) from exc
        # Each run is charged at least RUN_EVENTS_FLOOR, so a grid of any
        # size is refused after at most MAX_EVENTS / RUN_EVENTS_FLOOR cells.
        if most > MAX_EVENTS:
            raise ConfigError(
                f"the sweep's {len(kinds) * len(alphas) * len(betas) * len(seeds)} runs allow "
                f"more than {MAX_EVENTS:.0e} fixes and samples, each run counted as at least "
                f"{RUN_EVENTS_FLOOR}; shrink the grid or the duration"
            )
        cells.append((kind, cfg.loop_strategy, spans))
    by_seed = {
        seed: _runs_on_trace(cells, generate_trace(params), False)
        for seed, params in seed_params.items()
    }
    return [by_seed[seed][i] for i in range(len(cells)) for seed in seeds]


def sweep_means(rows: Sequence[RunResult]) -> list[SweepMean]:
    """Per-(kind, alpha, beta) means over seeds, in first-appearance order."""
    grouped: dict[tuple[str, float, float], list[RunResult]] = {}
    for row in rows:
        grouped.setdefault((row.kind, row.alpha, row.beta), []).append(row)
    means: list[SweepMean] = []
    for (kind, alpha, beta), cell in grouped.items():
        n = len(cell)
        energies, *rest = list(zip(*cell))[4:8]  # total_energy_mJ to sample_count
        try:
            energy = math.fsum(energies) / n
        except OverflowError:  # the sum leaves the float range, the mean cannot
            scale = 2.0 ** -n.bit_length()  # 1 / 2**k with 2**k > n: a finite sum
            energy = math.fsum(e * scale for e in energies) / n / scale
        means.append(SweepMean(kind, alpha, beta, energy, *(math.fsum(c) / n for c in rest)))
    return means


# "%.6f" % x is the same string as f"{x:.6f}" for every float.
_SUMMARY_ROW = "%s,%.6f,%.6f,%s,%.6f,%.6f,%s,%s\n"
_MEAN_ROW = "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n"


def summary_to_csv(rows: Sequence[RunResult]) -> str:
    return SUMMARY_CSV_HEADER + "\n" + "".join(_SUMMARY_ROW % r[:-1] for r in rows)


def write_summary_csv(rows: Sequence[RunResult], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(summary_to_csv(rows))


def means_to_csv(means: Sequence[SweepMean]) -> str:
    return MEAN_CSV_HEADER + "\n" + "".join(_MEAN_ROW % m for m in means)


def write_mean_csv(means: Sequence[SweepMean], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(means_to_csv(means))


# The velocity comes formatted already, hence its "%s".
_EVENT_ROW = "%.6f,%s,,,%.6f,%s,%.6f\n"
_FIX_ROW = "%.6f,%s,%s,%.6f,%.6f,%s,%.6f\n"


def events_to_csv(rows: Sequence[tuple]) -> str:
    """The event CSV of ``rows``: 7-tuples in :class:`RunResult` log order,
    such as :attr:`RunResult.log`, formatted with one ``%`` over the whole log.

    Each distinct velocity is formatted once per call and its text reused:
    a run logs only its trace's levels (10 by default, across about 1,600
    rows of a paper run). Velocities are at least v_min >= 1 m/s, so no two
    equal keys (0.0 and -0.0) would need different texts.
    """
    templates: list[str] = []
    values: list = []
    texts: dict[float, str] = {}
    for t, kind, method, energy_mJ, position, v, v_e in rows:
        text = texts.get(v)
        if text is None:
            text = texts[v] = "%.6f" % v
        if method is None:
            templates.append(_EVENT_ROW)
            values += (t, kind, position, text, v_e)
        else:
            templates.append(_FIX_ROW)
            values += (t, kind, method.name, energy_mJ, position, text, v_e)
    return EVENT_CSV_HEADER + "\n" + "".join(templates) % tuple(values)


CSV_BLOCK_ROWS = 65_536  # rows per events_to_csv call in write_events_csv


def write_events_csv(rows: Sequence[tuple], path) -> None:
    """Write ``events_to_csv(rows)`` to ``path``, formatted one block at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(events_to_csv(rows[:CSV_BLOCK_ROWS]))
        for lo in range(CSV_BLOCK_ROWS, len(rows), CSV_BLOCK_ROWS):
            fh.write(events_to_csv(rows[lo : lo + CSV_BLOCK_ROWS])[len(EVENT_CSV_HEADER) + 1 :])
