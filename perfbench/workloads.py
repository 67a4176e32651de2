"""Workload definitions and output checks for the locsim benchmark.

A workload is a fixed list of ``locsim`` command lines, built from the
benchmark seed, that one pass runs in order through ``locsim.cli.main``
in-process. After each call the files and stdout it produced are hashed
and checked against exact invariants; at the default seed the hashes are
also compared with ``reference.json``, recorded from the same command
lines.

The untraced path depends on ``locsim.cli.main`` alone, so refactors of
the package's internals do not break it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 1
SEEDS_PER_SET = 30
KINDS = ("adaptive", "fixed:gps")
# Per-fix energy of gps in the default method set "gps:10:1425;...".
GPS_ENERGY_MJ = 1425.0

SUMMARY_HEADER = "kind,alpha,beta,seed,total_energy_mJ,satisfaction,fix_count,sample_count"
MEAN_HEADER = "kind,alpha,beta,total_energy_mJ,satisfaction,fix_count,sample_count"
EVENT_HEADER = "time_s,kind,method,energy_mJ,position_m,velocity_mps,ve_mps"

# The default schedule 0:500,600:300,...,3000:50 changes 5 times inside 3600 s.
CHANGES_PER_RUN = 5
ALPHAS, BETAS = "0.3,0.5", "0.1:1.0:0.1"
RUNS_PER_SEED = 2 * 10 * len(KINDS)

WORKLOAD_NAMES = ("ensemble", "event_log")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass; ``key`` names it in digests and errors."""

    key: str
    argv: tuple[str, ...]
    runs: int
    sweep_out: Path | None = None
    mean_rows: int = 0
    events_out: Path | None = None


@dataclass
class Workload:
    name: str
    bench_seed: int
    calls: list[Call]
    params: dict

    @property
    def runs_per_pass(self) -> int:
        return sum(c.runs for c in self.calls)


@dataclass
class CallResult:
    """What one call produced: its output digests, exact counts and problems."""

    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def sim_seeds(bench_seed: int) -> list[int]:
    """Thirty simulation seeds; the default benchmark seed gives 1..30."""
    first = 1 + SEEDS_PER_SET * ((bench_seed - DEFAULT_SEED) % 2**32)
    return list(range(first, first + SEEDS_PER_SET))


def import_cli(root: Path = ROOT):
    """Import ``locsim.cli`` from ``<root>/src``, never from anywhere else."""
    src = (root / "src").resolve()
    if not (src / "locsim" / "cli.py").is_file():
        raise RuntimeError(f"no locsim sources under {src}")
    sys.path.insert(0, str(src))
    import locsim.cli

    if not Path(locsim.cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported locsim from {locsim.cli.__file__}, not {src}")
    return locsim.cli


def build(name: str, bench_seed: int, out_dir: Path) -> Workload:
    """List the workload's calls; their output files go to ``out_dir``."""
    seeds = sim_seeds(bench_seed)
    if name == "ensemble":
        # One sweep call per seed: the same 1,200 runs and 30 traces as one
        # call over all seeds, in units short enough that the calibrations
        # around each call measure the slow-down it ran under (speed.py).
        sweep_out = out_dir / "ensemble.csv"
        calls = [
            Call(
                f"seed={seed}",
                ("sweep", "--alphas", ALPHAS, "--betas", BETAS, "--seeds", str(seed),
                 "--kinds", ",".join(KINDS), "--out", str(sweep_out)),
                runs=RUNS_PER_SEED,
                sweep_out=sweep_out,
                mean_rows=RUNS_PER_SEED,
            )
            for seed in seeds
        ]
        params = {
            "argv": f"sweep --alphas {ALPHAS} --betas {BETAS} --seeds <s> "
                    f"--kinds {','.join(KINDS)} --out <file>",
            "seeds": [seeds[0], seeds[-1]],
            "calls_per_pass": len(calls),
            "runs_per_pass": RUNS_PER_SEED * len(calls),
        }
        return Workload(name, bench_seed, calls, params)
    if name == "event_log":
        events_out = out_dir / "events.csv"
        calls = [
            Call(
                f"{kind}/beta={beta}/seed={seed}",
                ("simulate", "--seed", str(seed), "--beta", beta,
                 "--strategy", kind, "--out", str(events_out)),
                runs=1,
                events_out=events_out,
            )
            for seed in seeds
            for kind in KINDS
            for beta in ("0.1", "1.0")
        ]
        params = {
            "argv": "simulate --seed <s> --beta <b> --strategy <k> --out <file>",
            "seeds": [seeds[0], seeds[-1]],
            "kinds": list(KINDS),
            "betas": [0.1, 1.0],
            "calls_per_pass": len(calls),
        }
        return Workload(name, bench_seed, calls, params)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")


def load_reference(workload: Workload) -> dict[str, str] | None:
    """Reference digests for ``workload``, or None away from the default seed."""
    if workload.bench_seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_PATH.read_text())[workload.name]


def invoke(main, call: Call) -> tuple[float, int | None, str, str]:
    """Run one CLI call in-process; returns (latency_s, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(call.argv))
        except Exception as exc:  # a crash is one failed call, not the end of the run
            return time.perf_counter() - t0, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
    return latency, rc, out.getvalue(), err.getvalue()


def check_call(call: Call, rc, stdout: str, stderr: str) -> CallResult:
    """Hash and check what ``call`` wrote; any problem makes the call failed."""
    res = CallResult()
    if rc != 0:
        res.problems.append(f"{call.key}: exit code {rc}: {stderr.strip()[-300:]}")
        return res
    try:
        if call.sweep_out is not None:
            _check_sweep(call, res)
        else:
            _check_simulate(call, stdout, res)
    except (OSError, ValueError, IndexError) as exc:
        res.problems.append(f"{call.key}: unreadable output: {exc}")
    return res


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_summary_rows(call: Call, lines: list[str], res: CallResult) -> None:
    if not lines or lines[0] != SUMMARY_HEADER:
        res.problems.append(f"{call.key}: bad summary header")
        return
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != call.runs:
        res.problems.append(f"{call.key}: {len(rows)} summary rows, expected {call.runs}")
    for row in rows:
        kind, energy, fixes, samples = row[0], float(row[4]), int(row[6]), int(row[7])
        if kind == "fixed:gps" and energy != GPS_ENERGY_MJ * fixes:
            res.problems.append(
                f"{call.key}: fixed:gps energy {energy} != {GPS_ENERGY_MJ} x {fixes} fixes"
            )
        res.counts["sim.fixes"] = res.counts.get("sim.fixes", 0) + fixes
        res.counts["sim.samples"] = res.counts.get("sim.samples", 0) + samples


def _check_sweep(call: Call, res: CallResult) -> None:
    out = call.sweep_out
    mean_out = out.with_name(out.stem + "_mean" + out.suffix)
    text, mean_text = out.read_text(), mean_out.read_text()
    res.digests = {f"{call.key}/sweep.csv": _digest(text),
                   f"{call.key}/sweep_mean.csv": _digest(mean_text)}
    lines, mean_lines = text.splitlines(), mean_text.splitlines()
    _check_summary_rows(call, lines, res)
    if not mean_lines or mean_lines[0] != MEAN_HEADER or len(mean_lines) - 1 != call.mean_rows:
        res.problems.append(f"{call.key}: mean CSV should hold a header and {call.mean_rows} rows")
    res.counts["sim.schedule_changes"] = call.runs * CHANGES_PER_RUN
    res.counts["simulator.csv.rows"] = len(lines) + len(mean_lines) - 2
    res.counts["simulator.csv.bytes"] = len(text) + len(mean_text)


def _check_simulate(call: Call, stdout: str, res: CallResult) -> None:
    events = call.events_out.read_text()
    res.digests = {f"{call.key}/summary": _digest(stdout), f"{call.key}/events": _digest(events)}
    summary_lines = stdout.splitlines()
    _check_summary_rows(call, summary_lines, res)
    event_lines = events.splitlines()
    if not event_lines or event_lines[0] != EVENT_HEADER:
        res.problems.append(f"{call.key}: bad event CSV header")
        return
    seen = {"fix": 0, "sample": 0, "schedule_change": 0}
    for line in event_lines[1:]:
        kind = line.split(",", 2)[1]
        seen[kind] = seen.get(kind, 0) + 1
    expected = {
        "fix": res.counts.get("sim.fixes"),
        "sample": res.counts.get("sim.samples"),
        "schedule_change": CHANGES_PER_RUN,
    }
    for kind, want in expected.items():
        if seen[kind] != want:
            res.problems.append(f"{call.key}: {seen[kind]} {kind} rows in the event CSV, expected {want}")
    res.counts["sim.schedule_changes"] = seen["schedule_change"]
    res.counts["simulator.csv.rows"] = len(summary_lines) + len(event_lines) - 2
    res.counts["simulator.csv.bytes"] = len(stdout) + len(events)
