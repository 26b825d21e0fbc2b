"""Workload generation and the request-lifecycle driver."""

from .dag import DagSpec, EdgeSpec, RequestClass, ServiceSpec, dag_storm
from .driver import Driver
from .spec import MixEntry, OpenLoopSource, PeriodicOp, ScheduledOp, Workload

__all__ = [
    "DagSpec",
    "Driver",
    "EdgeSpec",
    "MixEntry",
    "OpenLoopSource",
    "PeriodicOp",
    "RequestClass",
    "ScheduledOp",
    "ServiceSpec",
    "Workload",
    "dag_storm",
]
