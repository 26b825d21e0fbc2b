"""The cancellable-task abstraction (paper §3.1).

A :class:`CancellableTask` is a logical unit of work an application
registered through ``create_cancel``: a user request, a group of requests
from one connection, or a background task.  It is the unit of resource
attribution and the unit of cancellation.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

from .progress import ProgressModel, UnknownProgress
from .types import CancelSignal, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.process import Process

#: Shared stateless default progress model (one per process, not per task).
_UNKNOWN_PROGRESS = UnknownProgress()


class TaskState(enum.Enum):
    RUNNING = "running"
    #: A cancel decision was made; the initiator has been invoked but the
    #: task has not yet unwound (it observes the interrupt at its next
    #: checkpoint).
    CANCELLING = "cancelling"
    CANCELLED = "cancelled"
    FINISHED = "finished"


class CancellableTask:
    """One registered unit of cancellable work."""

    __slots__ = (
        "env", "seq", "key", "kind", "client_id", "op_name", "process",
        "progress_model", "created_at", "state", "cancel_count",
        "_cancellable", "cancel_signal", "trace_debt",
        "requires_thread_cancel",
    )

    def __init__(
        self,
        env: "Environment",
        seq: int,
        key: Any = None,
        kind: TaskKind = TaskKind.REQUEST,
        client_id: str = "anonymous",
        op_name: str = "op",
        process: Optional["Process"] = None,
        progress: Optional[ProgressModel] = None,
        cancellable: bool = True,
    ) -> None:
        self.env = env
        #: Creation number within the run, assigned once by
        #: ``BaseController.create_cancel``: the key of every
        #: controller-scoped table.
        self.seq = seq
        #: The application's name for the task; its ``seq`` by default.
        self.key = seq if key is None else key
        self.kind = kind
        self.client_id = client_id
        self.op_name = op_name
        #: The simulated process executing this task; the default
        #: cancellation initiator interrupts it.
        self.process = process
        self.progress_model: ProgressModel = progress or _UNKNOWN_PROGRESS
        self.created_at = env.now
        self.state = TaskState.RUNNING
        #: Times this task has been cancelled (the fairness rule allows
        #: at most one cancellation per task; re-executions are marked
        #: non-cancellable).
        self.cancel_count = 0
        self._cancellable = cancellable
        self.cancel_signal: Optional[CancelSignal] = None
        #: Simulated tracing overhead, seconds, charged by the runtime
        #: per traced event and paid as delay at the next checkpoint.
        self.trace_debt = 0.0
        #: The task has no application-level initiator: cancelling it
        #: needs the opt-in thread-level flag (§3.6).
        self.requires_thread_cancel = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def age(self) -> float:
        return self.env.now - self.created_at

    @property
    def alive(self) -> bool:
        return self.state in (TaskState.RUNNING, TaskState.CANCELLING)

    @property
    def cancellable(self) -> bool:
        """Eligible for a cancellation decision right now.

        Requires: registered as cancellable, still running (not already
        being cancelled), never cancelled before (fairness, §4), and an
        attached process to deliver the interrupt to.
        """
        return (
            self._cancellable
            and self.state is TaskState.RUNNING
            and self.cancel_count == 0
            and self.process is not None
            and self.process.is_alive
        )

    def mark_non_cancellable(self) -> None:
        """Exempt this task from future cancellations (re-executed tasks)."""
        self._cancellable = False

    def progress(self) -> float:
        """Current progress estimate in (0, 1]."""
        return self.progress_model.value(self.env.now)

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def begin_cancel(self, signal: CancelSignal) -> None:
        if not self.alive:
            raise RuntimeError(f"cannot cancel {self!r} in state {self.state}")
        self.state = TaskState.CANCELLING
        self.cancel_count += 1
        self.cancel_signal = signal

    def finish(self) -> None:
        """Terminal transition when the task unwinds (any reason)."""
        if self.state is TaskState.CANCELLING:
            self.state = TaskState.CANCELLED
        elif self.state is TaskState.RUNNING:
            self.state = TaskState.FINISHED
        # Re-finishing an already-terminal task is a no-op (idempotent
        # free_cancel calls from finally blocks).

    def __repr__(self) -> str:
        return (
            f"<CancellableTask key={self.key!r} op={self.op_name!r} "
            f"{self.state.value}>"
        )


#: Type of a cancellation initiator: the application function invoked to
#: cancel a task (the paper's setCancelAction callback, e.g. MySQL's
#: sql_kill).
CancelInitiator = Callable[[CancellableTask, CancelSignal], None]


def default_initiator(task: CancellableTask, signal: CancelSignal) -> None:
    """Default initiator: interrupt the task's simulated process.

    The interrupt surfaces at the task's next checkpoint (yield point),
    where the application's try/finally blocks release held resources --
    the safe-cancellation pattern of §2.4.
    """
    if task.process is None or not task.process.is_alive:
        return
    task.process.interrupt(signal)
