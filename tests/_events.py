"""Named fields for the plain rows of a run's event log."""

from typing import NamedTuple, Optional

from locsim.strategy import Method


class Event(NamedTuple):
    """One row of :attr:`locsim.simulator.RunResult.log`, field by field."""

    time_s: float
    kind: str
    method: Optional[Method]
    energy_mJ: Optional[float]
    position_m: float
    velocity_mps: float
    v_e_mps: float


def events(result) -> tuple[Event, ...]:
    """``result.log`` as :class:`Event` records."""
    return tuple(Event(*row) for row in result.log)
