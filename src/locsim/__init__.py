"""locsim: energy-aware localization scheduling over synthetic mobility traces.

The package couples a bounded random-walk velocity model with an adaptive
scheduler that estimates velocity by EWMA, picks the cheapest localization
method per unit of usable time, and re-fixes exactly when the accumulated
movement estimate exhausts the accuracy budget. Runs report total fix
energy and the fraction of time the accuracy requirement was met.
"""

from .errors import ConfigError
from .mobility import (
    MobilityParams,
    MotionTrace,
    generate_trace,
)
from .simulator import (
    AccuracySchedule,
    Event,
    RunResult,
    SimulationConfig,
    SweepRow,
    figure_series,
    parse_schedule,
    run,
    sweep,
    sweep_means,
)
from .strategy import (
    DEFAULT_METHODS,
    Method,
    StrategyConfig,
    cost_rate,
    ewma_update,
    parse_methods,
    select_method,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "MobilityParams",
    "MotionTrace",
    "generate_trace",
    "Method",
    "StrategyConfig",
    "DEFAULT_METHODS",
    "parse_methods",
    "ewma_update",
    "cost_rate",
    "select_method",
    "AccuracySchedule",
    "parse_schedule",
    "SimulationConfig",
    "Event",
    "RunResult",
    "run",
    "SweepRow",
    "sweep",
    "sweep_means",
    "figure_series",
    "__version__",
]
