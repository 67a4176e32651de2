"""Command line front end.

Commands:
  simulate           one run; summary CSV line on stdout, optional event CSV
  sweep              alpha/beta/seed/kind grid; summary CSV plus *_mean.csv
  reproduce-figures  the paper's figures 2-5 (``FIGURES``) as CSVs, plus a
                     per-beta digest of them on stdout

Exit codes: 0 success, 2 configuration error, 1 runtime or I/O error (a
closed, read-only or full stream, or a gone reader, reported on the other
stream). The effective configuration is echoed to stderr before any work.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .config import (
    DEFAULTS,
    build_simulation_config,
    format_config,
    load_config_file,
    resolve_config,
)
from .errors import ConfigError
from .simulator import (
    run,
    summary_to_csv,
    sweep,
    sweep_means,
    write_events_csv,
    write_mean_csv,
    write_summary_csv,
)

__all__ = ["main", "build_parser"]

# The paper's figures 2-5, one (name, alpha, SweepMean field) row each. A
# figure's CSV has one row per beta: the field's mean over FIGURE_SEEDS at
# that alpha and beta for each of FIGURE_KINDS. One sweep runs them all.
FIGURES = (
    ("fig2", 0.5, "total_energy_mJ"),
    ("fig3", 0.5, "satisfaction"),
    ("fig4", 0.3, "total_energy_mJ"),
    ("fig5", 0.3, "satisfaction"),
)
FIGURE_BETAS = tuple(round(0.1 * i, 10) for i in range(1, 11))
FIGURE_SEEDS = range(1, 31)
FIGURE_KINDS = ("fixed:gps", "adaptive")  # the gps_value and ours_value columns
# Ranges are counted before they are built, so a long one is refused
# instead of filling memory; the paper's grids need tens of values.
MAX_LIST_VALUES = 100_000


def _check_range_count(count: int, text: str) -> None:
    if count > MAX_LIST_VALUES:
        raise ConfigError(f"range {text!r} has {count} values, more than {MAX_LIST_VALUES}")


def parse_float_list(text: str) -> list[float]:
    """Comma list ("0.3,0.5") or inclusive range ("0.1:1.0:0.1")."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"range must be numeric, got {text!r}") from None
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ConfigError(f"range start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise ConfigError(f"range step must be > 0, got {step!r}")
        if stop < start:
            raise ConfigError(f"range stop must be >= start, got {text!r}")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ConfigError(f"range step count must be finite, got {text!r}")
        if round(start, 10) != start or round(step, 10) != step:
            raise ConfigError(
                f"range {text!r} is finer than the 10 decimals its values are rounded to"
            )
        count = int(span + 1e-9) + 1
        _check_range_count(count, text)
        return [round(start + i * step, 10) for i in range(count)]
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma list of numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"empty value list {text!r}")
    return values


def parse_seed_list(text: str) -> list[int]:
    """Comma list ("1,2,3") or inclusive range ("1..30")."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            first, last = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"seed range must be a..b, got {text!r}") from None
        if last < first:
            raise ConfigError(f"seed range end must be >= start, got {text!r}")
        _check_range_count(last - first + 1, text)
        return list(range(first, last + 1))
    try:
        seeds = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma list of integers, got {text!r}") from None
    if not seeds:
        raise ConfigError(f"empty seed list {text!r}")
    return seeds


def parse_kind_list(text: str) -> list[str]:
    kinds = [p.strip() for p in text.split(",") if p.strip()]
    if not kinds:
        raise ConfigError(f"empty strategy list {text!r}")
    return kinds


def _resolved(args: argparse.Namespace) -> dict[str, object]:
    file_values = load_config_file(args.config) if args.config else None
    flag_values = {k: v for k, v in vars(args).items() if k in DEFAULTS}
    values = resolve_config(file_values, flag_values)
    sys.stderr.write(format_config(values))
    return values


def cmd_simulate(args: argparse.Namespace) -> int:
    values = _resolved(args)
    cfg = build_simulation_config(values)
    result = run(cfg, record_events=args.out is not None)
    # The event CSV first: a run whose log cannot be written prints no summary.
    if args.out is not None:
        write_events_csv(result.log, args.out)
    sys.stdout.write(summary_to_csv([result]))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _resolved(args)
    base = build_simulation_config(values)
    alphas = parse_float_list(args.alphas) if args.alphas else [float(values["alpha"])]
    betas = parse_float_list(args.betas) if args.betas else [float(values["beta"])]
    seeds = parse_seed_list(args.seeds) if args.seeds else [int(values["seed"])]
    kinds = parse_kind_list(args.kinds) if args.kinds else [str(values["strategy"])]
    rows = sweep(base, alphas, betas, seeds, kinds)
    out = Path(args.out)
    write_summary_csv(rows, out)
    mean_path = out.with_name(out.stem + "_mean" + (out.suffix or ".csv"))
    write_mean_csv(sweep_means(rows), mean_path)
    sys.stderr.write(f"wrote {len(rows)} rows to {out} and means to {mean_path}\n")
    return 0


def cmd_reproduce_figures(args: argparse.Namespace) -> int:
    base = build_simulation_config(_resolved(args))
    alphas = list(dict.fromkeys(alpha for _, alpha, _ in FIGURES))
    rows = sweep(base, alphas, FIGURE_BETAS, FIGURE_SEEDS, FIGURE_KINDS)
    means = {(m.kind, m.alpha, m.beta): m for m in sweep_means(rows)}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, alpha, field in FIGURES:
        pairs = [[getattr(means[k, alpha, b], field) for k in FIGURE_KINDS] for b in FIGURE_BETAS]
        text = "".join(f"{b:.6f},{g:.6f},{o:.6f}\n" for b, (g, o) in zip(FIGURE_BETAS, pairs))
        path = out_dir / f"{name}.csv"
        path.write_text("beta,gps_value,ours_value\n" + text, newline="")
        sys.stderr.write(f"wrote {path}\n")
    # Per beta: the energy ratios ours/gps, then the satisfaction
    # differences ours-gps, each in the alpha order of FIGURES.
    lines = ["beta   energy ours/gps (a=.5, a=.3)   satisfaction ours-gps (a=.5, a=.3)"]
    for b in FIGURE_BETAS:
        (g1, o1), (g2, o2) = ([means[k, a, b] for k in FIGURE_KINDS] for a in alphas)
        e1, e2 = o1.total_energy_mJ / g1.total_energy_mJ, o2.total_energy_mJ / g2.total_energy_mJ
        s1, s2 = o1.satisfaction - g1.satisfaction, o2.satisfaction - g2.satisfaction
        lines.append(f"{b:4.1f}   {e1:11.3f} {e2:6.3f}   {s1:+17.4f} {s2:+7.4f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``locsim`` parser, built on first use; flags use their config key as dest."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument(
        "--duration", dest="duration_s", metavar="DURATION", type=int,
        help="horizon in whole seconds",
    )

    parser = argparse.ArgumentParser(
        prog="locsim",
        description="Energy-aware localization scheduling simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common], help="run one simulation")
    sim.add_argument("--seed", type=int, help="mobility RNG seed")
    sim.add_argument("--alpha", type=float, help="EWMA weight in (0, 1]")
    sim.add_argument("--beta", type=float, help="sampling-interval fraction in (0, 1]")
    sim.add_argument("--strategy", help="'adaptive' or 'fixed:<method>'")
    sim.add_argument("--out", help="write the event log CSV here")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", parents=[common], help="run an alpha/beta/seed/strategy grid")
    sw.add_argument("--alphas", help="comma list or start:stop:step range")
    sw.add_argument("--betas", help="comma list or start:stop:step range")
    sw.add_argument("--seeds", help="comma list or a..b range")
    sw.add_argument("--kinds", help="comma list of strategies")
    sw.add_argument("--out", required=True, help="summary CSV path (means go to *_mean.csv)")
    sw.set_defaults(func=cmd_sweep)

    figs = sub.add_parser(
        "reproduce-figures",
        parents=[common],
        help="regenerate the four energy/satisfaction comparison tables",
    )
    figs.add_argument("--out", required=True, help="output directory for fig2..fig5 CSVs")
    figs.set_defaults(func=cmd_reproduce_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        for name in ("stdout", "stderr"):
            if getattr(sys, name) is None:  # its descriptor was closed at start-up
                raise OSError(f"{name} is closed")
        code = args.func(args)
        sys.stdout.flush()  # a stream that fails shows here, not in the flush at exit
        sys.stderr.flush()
        return code
    except (ConfigError, OSError) as exc:
        # The error goes to the first stream that takes it, stderr first. A stream
        # that fails is pointed at os.devnull, so the flush at exit cannot fail.
        message = f"error: {exc}\n"
        for stream in filter(None, (sys.stderr, sys.stdout)):
            try:
                stream.write(message)
                stream.flush()
                message = ""
            except OSError:
                with open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), stream.fileno())
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
