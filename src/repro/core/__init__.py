"""ATROPOS core: targeted task cancellation for resource overload.

Public API (mirrors the paper's Figure 6 integration surface):

* task lifecycle -- ``controller.create_cancel`` / ``free_cancel`` /
  ``set_cancel_action``;
* resource tracing -- ``controller.get_resource`` / ``free_resource`` /
  ``slow_by_resource`` with a :class:`ResourceType`;
* the :class:`Atropos` controller itself, plus the policy ablations and
  the :class:`NullController` used as the uncontrolled baseline;
* the control-plane pipeline primitives -- :class:`ControlPipeline`
  composing :class:`SignalSource` / :class:`AdaptationPolicy` /
  :class:`ActionPolicy` stages -- that every controller's periodic loop
  is built from, and the health-driven
  :class:`AdaptiveThresholdPolicy` closing the loop on the detector's
  live thresholds.
"""

from .adaptive import AdaptiveThresholdPolicy, HealthSignalSource
from .atropos import Atropos, DetectorSignalSource
from .cancellation import CancellationEvent, CancellationManager
from .config import AtroposConfig
from .controller import BaseController, NullController
from .decision_log import DecisionEvent, DecisionKind, DecisionLog
from .detector import DetectionSample, LiveThresholds, OverloadDetector
from .estimator import (
    Estimator,
    OverloadAssessment,
    ResourceReport,
    TaskReport,
)
from .ledger import UsageLedger
from .levers import (
    LEVERS,
    CancelLever,
    CompositeLever,
    LockScheduleLever,
    MitigationLever,
    resolve_lever,
)
from .pipeline import (
    ActionPolicy,
    AdaptationPolicy,
    ControlPipeline,
    LatencyWindowSource,
    NoAdaptation,
    SignalSource,
)
from .policy import (
    CancellationPolicy,
    CurrentUsagePolicy,
    GreedyHeuristicPolicy,
    MultiObjectivePolicy,
    dominates,
    non_dominated_set,
)
from .progress import (
    CallbackProgress,
    GetNextProgress,
    ProgressModel,
    TimeBasedProgress,
    UnknownProgress,
    clamp_progress,
    future_gain_multiplier,
)
from .runtime import RuntimeManager
from .task import CancellableTask, TaskState, default_initiator
from .types import (
    CancelSignal,
    DropRequest,
    ResourceHandle,
    ResourceType,
    TaskKind,
)

__all__ = [
    "ActionPolicy",
    "AdaptationPolicy",
    "AdaptiveThresholdPolicy",
    "Atropos",
    "AtroposConfig",
    "BaseController",
    "CallbackProgress",
    "CancelSignal",
    "CancelLever",
    "CancellableTask",
    "CancellationEvent",
    "CancellationManager",
    "CancellationPolicy",
    "CompositeLever",
    "ControlPipeline",
    "CurrentUsagePolicy",
    "DecisionEvent",
    "DecisionKind",
    "DecisionLog",
    "DetectionSample",
    "DetectorSignalSource",
    "DropRequest",
    "Estimator",
    "GetNextProgress",
    "GreedyHeuristicPolicy",
    "HealthSignalSource",
    "LEVERS",
    "LatencyWindowSource",
    "LiveThresholds",
    "LockScheduleLever",
    "MitigationLever",
    "MultiObjectivePolicy",
    "NoAdaptation",
    "NullController",
    "OverloadAssessment",
    "OverloadDetector",
    "ProgressModel",
    "ResourceHandle",
    "ResourceReport",
    "ResourceType",
    "RuntimeManager",
    "SignalSource",
    "TaskKind",
    "TaskReport",
    "TaskState",
    "TimeBasedProgress",
    "UnknownProgress",
    "UsageLedger",
    "clamp_progress",
    "default_initiator",
    "dominates",
    "resolve_lever",
    "future_gain_multiplier",
    "non_dominated_set",
]
