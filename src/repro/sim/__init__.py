"""Discrete-event simulation kernel underpinning the reproduction.

The kernel provides: an :class:`Environment` (clock + event heap),
generator-based :class:`Process` objects with interrupt-at-checkpoint
semantics, composable events, deterministic RNG streams, and the metric
collectors the experiment harness consumes.
"""

from .environment import Environment
from .errors import EmptySchedule, Interrupt, SimulationError
from .events import AllOf, AnyOf, At, Condition, Event, Timeout
from .metrics import (
    MetricsCollector,
    RequestRecord,
    RequestStatus,
    SlidingWindow,
    Summary,
    percentile,
)
from .process import Process
from .rng import Rng

__all__ = [
    "AllOf",
    "AnyOf",
    "At",
    "Condition",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "MetricsCollector",
    "Process",
    "RequestRecord",
    "RequestStatus",
    "Rng",
    "SimulationError",
    "SlidingWindow",
    "Summary",
    "Timeout",
    "percentile",
]
