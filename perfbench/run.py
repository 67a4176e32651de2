#!/usr/bin/env python3
"""locsim benchmark: one workload per process, timed through ``locsim.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 55 --trace 0

The process first times a few fresh set-up probes (``setup_s``), then runs
as many timed passes as fit in ``--seconds``. A pass is the workload's full
list of CLI calls, made one after another from this single thread (a
closed loop with one caller). Every call's outputs are checked; see
workloads.py. Each call's time is corrected for the machine's slow-down
measured around it (speed.py), and its median over the run's passes is kept.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics instead; its spans go to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
call passed its checks, 1 when any failed, and 2 when the benchmark could
not run at all (for example, no ``src/locsim`` to import).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracer
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
# Latency percentile p90 is reported only with at least 10 samples beyond it.
P90_MIN_SAMPLES = 100


@dataclass
class Pass:
    wall_s: float
    latencies: list[float]
    # Seconds of the calibration before the first call and after each call.
    calibration: list[float]
    counts: dict[str, int]
    layers: dict[str, float] = field(default_factory=dict)

    def reference_latencies(self) -> list[float]:
        """Each call's latency in reference seconds (see speed.py)."""
        cal = self.calibration
        return [t / speed.slowdown(cal[i], cal[i + 1]) for i, t in enumerate(self.latencies)]


class Session:
    """Runs passes of one workload and keeps the tally of checked calls."""

    def __init__(self, workload: workloads.Workload, main):
        self.workload = workload
        self.main = main
        self.reference = workloads.load_reference(workload)
        self.first_digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, trace: tracer.Tracer | None = None) -> Pass:
        main = self.main
        if trace is not None:
            main = lambda argv: trace.op(self.main, argv)  # noqa: E731
        walls, calibration, counts = [], [speed.calibrate()], {}
        for call in self.workload.calls:
            latency, rc, out, err = workloads.invoke(main, call)
            res = workloads.check_call(call, rc, out, err)
            self._compare_digests(res)
            self.attempted += 1
            if res.problems:
                self.failed += 1
                self.problems.extend(res.problems)
            walls.append(latency)
            calibration.append(speed.calibrate())
            for key, value in res.counts.items():
                counts[key] = counts.get(key, 0) + value
        return Pass(sum(walls), walls, calibration, counts)

    def _compare_digests(self, res: workloads.CallResult) -> None:
        for name, digest in res.digests.items():
            first = self.first_digests.setdefault(name, digest)
            if digest != first:
                res.problems.append(f"{name}: output differs from the first pass of this run")
            if self.reference is not None and self.reference.get(name) != digest:
                res.problems.append(f"{name}: sha256 differs from reference.json")

    def traced_pass(self, trace: tracer.Tracer) -> Pass:
        start = len(trace.spans)
        with trace.installed():
            p = self.run_pass(trace)
        spans = trace.spans[start:]
        bad_ops = {}
        for op, problem in tracer.check_self_times(spans):
            bad_ops.setdefault(op, problem)
        self.failed += len(bad_ops)
        self.problems.extend(bad_ops.values())
        c = p.counts
        p.layers = tracer.layer_metrics(
            spans, c.get("sim.fixes", 0), c.get("sim.samples", 0),
            c.get("sim.schedule_changes", 0), c.get("simulator.csv.bytes", 0),
        )
        p.layers.update(c)
        return p


def probe_setup(name: str, seed: int, out_dir: Path) -> float:
    """Reference seconds from launching a fresh process to its set-up being
    done, corrected by the two calibrations the probe times right after."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), str(out_dir)]
    t0 = time.perf_counter()
    # Unbuffered, so that readline leaves the rest in the pipe for communicate.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("set-up probe did not exit") from None
    try:
        after = [float(x) for x in rest.split()]
    except ValueError:
        after = []
    if proc.returncode != 0 or line.strip() != b"ready" or len(after) != 2:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed / speed.slowdown(*after)


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def manifest(args, workload: workloads.Workload) -> dict:
    import numpy

    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "bench_seed": args.seed,
        "sim_seeds": [workloads.sim_seeds(args.seed)[0], workloads.sim_seeds(args.seed)[-1]],
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "params": workload.params,
    }


def measure(session: Session, seconds: float, trace: bool):
    """Alternate traced and untraced passes, or run untraced passes only,
    for about ``seconds``: stop once one more pass as long as the last would
    overrun the deadline by half a pass or more. At least one of each kind."""
    spans = tracer.Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if spans is not None and len(traced) <= len(plain):
            traced.append(session.traced_pass(spans))
        else:
            plain.append(session.run_pass())
        now = time.perf_counter()
        if now + (now - start) / 2 >= deadline and plain and (traced or spans is None):
            return plain, traced, spans


def median_calls(passes: list[Pass]) -> list[float]:
    """Each call's median latency over ``passes``, in reference seconds."""
    return [statistics.median(call) for call in zip(*(p.reference_latencies() for p in passes))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cli = workloads.import_cli()
    except (OSError, ValueError, RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT_ROOT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    with tempfile.TemporaryDirectory(dir=OUT_ROOT, prefix="tmp-") as tmp:
        tmp = Path(tmp)
        try:
            setup = [] if args.trace else [
                probe_setup(args.workload, args.seed, tmp) for _ in range(SETUP_PROBES)
            ]
        except RuntimeError as exc:
            print(f"perfbench: cannot run: {exc}", file=sys.stderr)
            return 2
        workload = workloads.build(args.workload, args.seed, tmp)
        session = Session(workload, cli.main)
        speed.calibrate()  # the first call also warms refsim up
        plain, traced, spans = measure(session, args.seconds, bool(args.trace))

    info = manifest(args, workload)
    (OUT_ROOT / f"manifest-{tag}-trace{args.trace}.json").write_text(json.dumps(info, indent=2) + "\n")
    print("manifest " + json.dumps(info))

    # Other tenants of the machine slow whole stretches of a run by up to
    # 2x, so each call's time is corrected for the slow-down measured
    # around it (speed.py), and its median over the passes is kept.
    call_s = sorted(median_calls(plain))
    wall_s = sum(call_s)
    if args.trace:
        spans.write(OUT_ROOT / f"spans-{tag}.jsonl")
        fastest = min(traced, key=lambda p: p.wall_s)
        overhead = sum(median_calls(traced)) - wall_s
        values = dict(fastest.layers, **{"trace.overhead_s": overhead})
        print(f"absent: {', '.join(spans.absent) or 'none'}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "runs_per_s": workload.runs_per_pass / wall_s,
            "op_ms_p50": 1000.0 * statistics.median(call_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for key, value in sorted(plain[0].counts.items()):
            print(f"count {key} {value}")
    print("pass_wall_s " + " ".join(f"{p.wall_s:.4f}" for p in plain))
    raw_s = sum(statistics.median(call) for call in zip(*(p.latencies for p in plain)))
    print(f"uncorrected_wall_s {raw_s:.4f} (each call's median in host seconds)")
    n = len(call_s)
    p90 = (f"{1000.0 * statistics.quantiles(call_s, n=10)[-1]:.3f} ms"
           if n >= P90_MIN_SAMPLES else "n/a")
    print(f"op_ms_p90 {p90} (n={n} calls, each its median over {len(plain)} timed passes)")
    print(f"failed_frac {session.failed / session.attempted} ({session.failed}/{session.attempted})")
    for problem in session.problems[:20]:
        print(f"problem {problem}", file=sys.stderr)

    extra, missing = set(values) - set(declared), set(declared) - set(values)
    if extra or (missing and session.failed == 0):
        print(f"perfbench: metrics {sorted(extra | missing)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {}
    for name, unit in declared.items():
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        print(f"metric {name} {metrics[name]['value']} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if session.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
