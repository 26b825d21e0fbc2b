"""The controller interface shared by ATROPOS and all baseline systems.

Applications are instrumented once against this interface (task lifecycle
+ the three resource-tracing calls + a few checkpoint hooks); each
overload-control system implements the subset it needs.  This mirrors the
paper's methodology of integrating every compared system into the same
applications (§5.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .progress import ProgressModel
from .task import CancelInitiator, CancellableTask, default_initiator
from .types import ResourceHandle, ResourceType, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.metrics import RequestRecord


class BaseController:
    """No-op overload controller; baselines and ATROPOS override hooks.

    Running an application under :class:`BaseController` (alias
    :class:`NullController`) gives the uncontrolled "Overload" line of the
    paper's Figure 10.
    """

    name = "none"

    #: Whether this type records the resource-tracing calls of Figure 6b
    #: (``get_resource`` / ``free_resource`` / ``slow_by_resource``).  A
    #: fact about the class, not a setting: a controller that overrides
    #: one of the three says True.  Applications read it once and skip
    #: the round trip under a controller that would ignore it.
    traces_resources = False

    # What observers read (the harness extras, the telemetry scraper,
    # the fault injector, the CLI).  A controller that has one of these
    # sets it; the others keep the ``None`` declared here, so a reader
    # tests for ``None`` instead of probing for the attribute.
    #: The request latency SLO, seconds.
    slo_latency: Optional[float] = None
    #: The :class:`~repro.core.decision_log.DecisionLog` of detections,
    #: verdicts, cancels and faults.
    decision_log: Any = None
    #: The :class:`~repro.core.cancellation.CancellationManager`; its
    #: ``log`` holds the cancels that reached their task.
    cancellation: Any = None
    #: The :class:`~repro.core.detector.OverloadDetector` (``fault_tap``).
    detector: Any = None
    #: The :class:`~repro.core.estimator.Estimator` (``gain_tap``).
    estimator: Any = None
    #: The pipeline's :class:`~repro.core.pipeline.AdaptationPolicy`.
    adaptation: Any = None

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._task_seq = 1
        self.tasks: Dict[int, CancellableTask] = {}
        self.resources: Dict[str, ResourceHandle] = {}
        self._initiator: CancelInitiator = default_initiator
        #: Count of cancel decisions issued (for experiment reporting).
        self.cancels_issued = 0

    # ------------------------------------------------------------------
    # Resource registration (apps declare their application resources)
    # ------------------------------------------------------------------
    def register_resource(
        self, name: str, rtype: ResourceType
    ) -> ResourceHandle:
        """Declare an application resource; idempotent per name."""
        handle = self.resources.get(name)
        if handle is not None:
            if handle.rtype is not rtype:
                raise ValueError(
                    f"resource {name!r} re-registered with different type"
                )
            return handle
        handle = ResourceHandle(name=name, rtype=rtype)
        self.resources[name] = handle
        return handle

    # ------------------------------------------------------------------
    # Task lifecycle (paper Figure 6a)
    # ------------------------------------------------------------------
    def create_cancel(
        self,
        key: Any = None,
        kind=None,
        client_id: str = "anonymous",
        op_name: str = "op",
        progress: Optional[ProgressModel] = None,
        cancellable: bool = True,
    ) -> CancellableTask:
        """Register the current activity as a cancellable task.

        Every task gets the run's next ``seq``, which is also its key if
        ``key`` is omitted (paper §3.1: "a unique key is generated").  The
        active simulated process is captured as the cancellation target.
        """
        seq = self._task_seq
        self._task_seq = seq + 1
        task = CancellableTask(
            env=self.env,
            seq=seq,
            key=key,
            kind=kind or TaskKind.REQUEST,
            client_id=client_id,
            op_name=op_name,
            process=self.env.active_process,
            progress=progress,
            cancellable=cancellable,
        )
        self.tasks[seq] = task
        return task

    def free_cancel(self, task: CancellableTask) -> None:
        """Unregister a task when its scope ends (idempotent)."""
        task.finish()
        self.tasks.pop(task.seq, None)

    def set_cancel_action(self, initiator: CancelInitiator) -> None:
        """Register the application's cancellation initiator callback."""
        self._initiator = initiator

    def live_tasks(self) -> List[CancellableTask]:
        return [t for t in self.tasks.values() if t.alive]

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Scrape-friendly controller state; subclasses add detector /
        signal / blame sections (see :mod:`repro.telemetry.scrape`)."""
        return {"cancels_issued": self.cancels_issued}

    # ------------------------------------------------------------------
    # Resource tracing (paper Figure 6b); no-ops by default
    # ------------------------------------------------------------------
    def get_resource(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        """Record that ``task`` acquired ``amount`` of ``resource``."""

    def free_resource(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        """Record that ``task`` released ``amount`` of ``resource``."""

    def slow_by_resource(
        self,
        task: CancellableTask,
        resource: ResourceHandle,
        delay: float,
        events: float = 1.0,
    ) -> None:
        """Record that ``task`` was delayed ``delay`` seconds by ``resource``."""

    def begin_wait(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> None:
        """``task`` started queueing on ``resource`` (wait-event start)."""

    def end_wait(
        self, task: CancellableTask, resource: ResourceHandle
    ) -> float:
        """``task`` stopped queueing (granted or unwound); returns the
        measured wait duration (0 for controllers that do not track it)."""
        return 0.0

    # ------------------------------------------------------------------
    # Overload-control hooks exercised by the workload driver / app
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch any monitor processes.  Called once per run."""

    def bind(self, app) -> None:
        """Give the controller a chance to configure the application.

        Called once after the application is built (e.g. DARC reserves
        worker-pool slots for short request classes here)."""

    def admit(self, op_name: str, client_id: str) -> bool:
        """Admission-control hook; False rejects the incoming request."""
        return True

    def should_drop(self, task: CancellableTask) -> bool:
        """Mid-execution victim-drop hook (Protego); checked at checkpoints."""
        return False

    def throttle_delay(self, task: CancellableTask) -> float:
        """Penalty-delay hook (pBox); applied at checkpoints, seconds."""
        return 0.0

    def observe_completion(self, record: "RequestRecord") -> None:
        """Feedback: a request reached a terminal state."""

    def reexecution_gate(self, task: CancellableTask, arrival_time: float):
        """Generator deciding what happens to a cancelled request.

        Yields simulation events while waiting; returns ``"retry"`` or
        ``"drop"``.  The default (for controllers that never cancel)
        retries immediately.
        """
        return "retry"
        yield  # pragma: no cover - makes this a generator


class NullController(BaseController):
    """Explicit alias for the uncontrolled baseline."""

    name = "overload"
