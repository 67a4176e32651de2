"""Flat ``key = value`` run configuration with fully pinned defaults.

Every key is optional; omitted keys fall back to the default study setup
(3600 s horizon, acceleration period 3 s, velocities in [1, 10] m/s,
gps/wifi/gsm method set and the six-step accuracy requirement schedule).
Unknown keys are rejected so typos cannot silently change a run.
"""

from __future__ import annotations

from typing import Mapping

from .errors import ConfigError
from .mobility import MobilityParams
from .simulator import AccuracySchedule, SimulationConfig, parse_schedule
from .strategy import DEFAULT_METHODS_TEXT, StrategyConfig, parse_methods

__all__ = [
    "DEFAULT_SCHEDULE_TEXT",
    "DEFAULTS",
    "parse_config_text",
    "load_config_file",
    "resolve_config",
    "build_simulation_config",
    "format_config",
]

DEFAULT_SCHEDULE_TEXT = "0:500,600:300,1200:150,1800:120,2400:80,3000:50"

DEFAULTS: dict[str, object] = {
    "duration_s": 3600,
    "t1_s": 3,
    "v_min": 1.0,
    "v_max": 10.0,
    "v0": 1.0,
    "seed": 1,
    "alpha": 0.5,
    "beta": 1.0,
    "t_min_refix_s": 1.0,
    "strategy": "adaptive",
    "methods": DEFAULT_METHODS_TEXT,
    "schedule": DEFAULT_SCHEDULE_TEXT,
}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse config-file text; blank lines and ``#`` comments are skipped.

    Each value takes the type of its key's default in :data:`DEFAULTS`.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        kind = type(DEFAULTS[key])
        try:
            values[key] = kind(value)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {expected}, got {value!r}") from None
    return values


def load_config_file(path) -> dict[str, object]:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8: {exc}") from None


def resolve_config(
    file_values: Mapping[str, object] | None = None,
    flag_values: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Defaults, overridden by the config file, overridden by CLI flags."""
    values = dict(DEFAULTS)
    for source in (file_values, flag_values):
        if not source:
            continue
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None:
                values[key] = value
    return values


def build_simulation_config(values: Mapping[str, object]) -> SimulationConfig:
    """The run config of ``values``; the integer keys pass through as they
    are, so :class:`MobilityParams` refuses a non-integer instead of it being
    truncated."""
    mobility = MobilityParams(
        duration_s=values["duration_s"],
        t1_s=values["t1_s"],
        v_min=float(values["v_min"]),
        v_max=float(values["v_max"]),
        v0=float(values["v0"]),
        seed=values["seed"],
    )
    strategy_cfg = StrategyConfig(
        alpha=float(values["alpha"]),
        beta=float(values["beta"]),
        methods=parse_methods(str(values["methods"])),
        t_min_refix_s=float(values["t_min_refix_s"]),
    )
    schedule = parse_schedule(str(values["schedule"]))
    return SimulationConfig(
        mobility=mobility,
        strategy_cfg=strategy_cfg,
        schedule=schedule,
        strategy_kind=str(values["strategy"]),
    )


def format_config(values: Mapping[str, object]) -> str:
    """Render the effective configuration as config-file text."""
    lines = [f"{key} = {values[key]}" for key in DEFAULTS]
    return "\n".join(lines) + "\n"
