"""Set-up probe: a fresh process that does a workload's set-up and reports.

Started by run.py, which times it from launch to the ``ready`` line. That
span covers interpreter start, ``import locsim`` (and numpy) from the
checkout's ``src/`` and listing the workload's calls: everything a
workload process does before its first timed call. The probe then prints
the seconds of two calibrations (speed.py), by which run.py corrects that
span for the machine's slow-down.

Usage: python3 perfbench/probe.py <workload> <bench seed> <output dir>
"""

import sys
from pathlib import Path

import speed
import workloads

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.import_cli()
    workloads.build(name, seed, out_dir)
    print("ready", flush=True)
    speed.calibrate()  # the first call also warms refsim up
    print(speed.calibrate(), speed.calibrate())
