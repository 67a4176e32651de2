#!/usr/bin/env python3
"""Regenerate the four strategy-comparison tables and print a short digest.

Writes fig2..fig5 CSVs (energy and satisfaction versus beta, adaptive vs
always-gps, 30 seeds) into --out, then prints per-beta ratios so a change
in either direction is visible without opening the files.
"""

import argparse
import sys

from locsim.cli import write_figures
from locsim.config import DEFAULTS, build_simulation_config
from locsim.simulator import figure_series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="figures", help="output directory")
    parser.add_argument(
        "--duration", type=int, default=None, help="override the horizon in seconds"
    )
    args = parser.parse_args(argv)

    values = dict(DEFAULTS)
    if args.duration is not None:
        values["duration_s"] = args.duration
    base = build_simulation_config(values)

    tables = figure_series(base)
    for path in write_figures(tables, args.out):
        print(f"wrote {path}")

    print("\nbeta   energy ours/gps (a=.5, a=.3)   satisfaction ours-gps (a=.5, a=.3)")
    fig4 = {b: (g, o) for b, g, o in tables["fig4"]}
    fig3 = {b: (g, o) for b, g, o in tables["fig3"]}
    fig5 = {b: (g, o) for b, g, o in tables["fig5"]}
    for beta, gps_e, ours_e in tables["fig2"]:
        g4, o4 = fig4[beta]
        g3, o3 = fig3[beta]
        g5, o5 = fig5[beta]
        print(
            f"{beta:4.1f}   {ours_e / gps_e:11.3f} {o4 / g4:6.3f}   "
            f"{o3 - g3:+17.4f} {o5 - g5:+7.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
