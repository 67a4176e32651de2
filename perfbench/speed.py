"""Correction of timings for the machine's changing speed.

The benchmark was written on a 2-vCPU Intel Xeon VM whose host is shared.
Depending on what the other tenants run, the same code takes 1.0 to 2.0
times as long, in stretches from tens of milliseconds to many minutes, and
even the fastest moments move by 10% between runs, so best-of-run timings
still move by up to 44% from one run to the next.

So the benchmark times a fixed piece of work, :func:`calibrate`, before
and after every timed piece of work, and divides the work's time by its
slow-down: the mean of the calibrations around it over ``REFERENCE_S``.
The results are *reference seconds*: how long the work takes on that VM
when nothing disturbs it. A change to the program moves them in
proportion, and a change in the machine's load moves them much less than
it moves raw timings.

Different code slows down by different amounts under the same load, so the
calibration runs code of the same kind as the program: one short
``simulate`` call of ``refsim``, a frozen copy of ``src/locsim`` taken when
the benchmark was added. It is never edited, so that the program's own
changes cannot change the calibration. Tight arithmetic, tried first,
slowed down less than the simulator: across a change of load that doubled
raw times, ``ensemble`` moved by about 20% in those reference seconds, and
by about 10% with ``refsim``.
"""

from __future__ import annotations

import contextlib
import io
import time

from refsim import cli as refsim_cli

CALIBRATION_ARGV = ("simulate", "--duration", "1200", "--seed", "1")
# A calibration's time on an undisturbed vCPU of the VM named above
# (Python 3.11, numpy 2.4); its fastest runs there take about 3.5 ms.
REFERENCE_S = 3.5e-3


def calibrate() -> float:
    """Seconds taken by one fixed ``simulate`` call of the frozen ``refsim``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = refsim_cli.main(list(CALIBRATION_ARGV))
        elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"calibration call {' '.join(CALIBRATION_ARGV)} exited with {rc}")
    return elapsed


def slowdown(before: float, after: float) -> float:
    """How many times slower than the reference the machine ran, judged
    from the calibrations timed just before and just after some work."""
    return (before + after) / (2.0 * REFERENCE_S)
