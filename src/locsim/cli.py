"""Command line front end.

Commands:
  simulate           one run; summary CSV line on stdout, optional event CSV
  sweep              alpha/beta/seed/kind grid; summary CSV plus *_mean.csv
  reproduce-figures  the four strategy-comparison tables (energy and
                     satisfaction vs beta at alpha 0.5 and 0.3, seeds 1-30)
                     as CSVs, plus a per-beta digest of them on stdout

Exit codes: 0 success, 2 configuration error, 1 runtime or I/O error.
The effective configuration is echoed to stderr before any work runs.
"""

from __future__ import annotations

import argparse
import functools
import math
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
    figure_series,
    run,
    summary_to_csv,
    sweep,
    sweep_means,
    write_events_csv,
    write_mean_csv,
    write_summary_csv,
)

__all__ = ["main", "build_parser", "write_figures"]

FIGURE_CSV_HEADER = "beta,gps_value,ours_value"
FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5")
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


def write_figures(tables: dict[str, list[tuple[float, float, float]]], out_dir) -> list[Path]:
    """Write the fig2..fig5 tables of :func:`figure_series` as CSVs in ``out_dir``.

    Creates ``out_dir`` if needed and returns the paths written, in order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in FIGURE_NAMES:
        path = out_dir / f"{name}.csv"
        lines = [FIGURE_CSV_HEADER]
        lines.extend(
            f"{beta:.6f},{gps_value:.6f},{ours_value:.6f}"
            for beta, gps_value, ours_value in tables[name]
        )
        path.write_text("\n".join(lines) + "\n", newline="")
        paths.append(path)
    return paths


def cmd_reproduce_figures(args: argparse.Namespace) -> int:
    values = _resolved(args)
    base = build_simulation_config(values)
    tables = figure_series(base)
    for path in write_figures(tables, args.out):
        sys.stderr.write(f"wrote {path}\n")
    lines = ["beta   energy ours/gps (a=.5, a=.3)   satisfaction ours-gps (a=.5, a=.3)"]
    for (beta, gps_e, ours_e), (_, g3, o3), (_, g4, o4), (_, g5, o5) in zip(
        tables["fig2"], tables["fig3"], tables["fig4"], tables["fig5"]
    ):
        lines.append(
            f"{beta:4.1f}   {ours_e / gps_e:11.3f} {o4 / g4:6.3f}   "
            f"{o3 - g3:+17.4f} {o5 - g5:+7.4f}"
        )
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
