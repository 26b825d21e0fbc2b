"""Shared types for the overload-control framework.

These mirror the paper's abstractions: the :class:`ResourceType` enum of
Figure 6b (plus the two "system" resource categories of Table 2), the
cancellable-task kinds, and the signals exchanged between a controller and
the instrumented application.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class ResourceType(enum.Enum):
    """Categories of application resources (paper Figure 6b + Table 2).

    LOCK, MEMORY and QUEUE are the paper's three application-resource
    classes; CPU and IO are the "system" resources of cases c8/c12, which
    the paper traces through OS facilities (cgroups) but feeds into the
    same estimator.
    """

    LOCK = "lock"
    MEMORY = "memory"
    QUEUE = "queue"
    CPU = "cpu"
    IO = "io"


class TaskKind(enum.Enum):
    """What a cancellable task represents."""

    #: A user-issued request (has an SLO; re-executed after cancellation).
    REQUEST = "request"
    #: An internal background task (no SLO; bounded re-execution wait).
    BACKGROUND = "background"


@dataclass(frozen=True)
class ResourceHandle:
    """Identity of a registered application resource."""

    name: str
    rtype: ResourceType

    def __hash__(self) -> int:
        # Every traced event looks a handle up in a dict.  A controller
        # registers one handle per name, so the name alone spreads them,
        # and a str caches its hash; the generated hash would also run
        # the Python-level Enum.__hash__ of ``rtype`` each time.  Value-
        # based and never stored: handles are pickled to shard workers,
        # whose str hashes differ.
        return hash(self.name)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{self.rtype.value}]"


@dataclass
class CancelSignal:
    """Cause object delivered with the Interrupt when a task is cancelled.

    Attributes:
        reason: human-readable reason ("resource-overload", ...).
        resource: the dominant contended resource behind the decision.
        score: the policy's scalarized gain for the cancelled task.
        decided_at: simulated time of the decision.
    """

    reason: str = "resource-overload"
    resource: Optional[ResourceHandle] = None
    score: float = 0.0
    decided_at: float = 0.0
    details: Dict[str, Any] = field(default_factory=dict)


@dataclass
class DropSignal:
    """Interrupt cause used by controllers that drop *victim* requests
    mid-flight (Protego): the workload driver records the request as
    DROPPED without re-execution."""

    reason: str = "victim-drop"
    resource: Optional[ResourceHandle] = None
    decided_at: float = 0.0


class DropRequest(Exception):
    """Raised inside a request handler when the controller drops it.

    Used by admission-style controllers (Protego's victim dropping): the
    application checks ``controller.should_drop(task)`` at checkpoints and
    raises this to unwind; the workload driver records a DROPPED outcome.
    """

    def __init__(self, reason: str = "overload") -> None:
        super().__init__(reason)
        self.reason = reason
