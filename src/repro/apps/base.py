"""Application model framework.

Each simulated application (MySQL, PostgreSQL, Apache, Elasticsearch,
Solr, etcd) subclasses :class:`Application`: it builds its internal
resources from the sim primitives, registers the corresponding
*application resources* with the overload controller (the paper's
integration step), and implements one generator handler per operation.

Handlers follow the safe-cancellation discipline: resource-holding
regions are wrapped in context managers / try-finally so an interrupt at
any checkpoint unwinds cleanly.
"""

from __future__ import annotations

from types import MethodType
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional

from ..core.controller import BaseController
from ..core.task import CancellableTask
from ..core.types import DropRequest, ResourceHandle, ResourceType, TaskKind
from ..obs.tracer import owner_label
from ..sim.resources import QueueFull

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment
    from ..sim.rng import Rng


class Operation:
    """One request to execute against an application."""

    def __init__(
        self,
        name: str,
        params: Optional[Dict[str, Any]] = None,
        kind: TaskKind = TaskKind.REQUEST,
        cancellable: bool = True,
    ) -> None:
        self.name = name
        self.params = params or {}
        self.kind = kind
        self.cancellable = cancellable

    def __repr__(self) -> str:
        return f"<Operation {self.name} {self.params}>"


#: Handler signature: ``handler(task, **params)`` returns the generator
#: executing the operation for a task.
Handler = Callable[..., Generator]


def _with_app(handler: Handler) -> Callable[..., Generator]:
    """A ``(app, task, **params)`` function calling ``handler(task,
    **params)``: the stored form of a handler that is not a method."""

    def call(app: "Application", task: CancellableTask, **params: Any):
        return handler(task, **params)

    return call


class Application:
    """Base class for simulated applications."""

    name = "app"

    def __init__(
        self, env: "Environment", controller: BaseController, rng: "Rng"
    ) -> None:
        self.env = env
        self.controller = controller
        self.rng = rng
        self._tracer = env.tracer
        #: Consolidated hook switch, mirrored from Environment (one bool
        #: per instant-emission site instead of a tracer lookup chain).
        self._hooked = env.hooks_enabled
        #: False under a controller that records no resource events: the
        #: three tracing helpers below then return at once.
        self._traces = controller.traces_resources
        #: op name -> ``function(app, task, **params)``.
        self._handlers: Dict[str, Callable[..., Generator]] = {}
        #: handle -> the sim objects behind it, in registration order.
        self._resources: Dict[ResourceHandle, tuple] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_handler(self, op_name: str, handler: Handler) -> None:
        """Run ``op_name`` as ``handler(task, **params)``.

        A method of this application is stored as its function, which
        :meth:`execute` calls with the application: a bound method holds
        the application, and the table holding it would make every
        application a reference cycle that outlives its run.
        """
        if isinstance(handler, MethodType) and handler.__self__ is self:
            self._handlers[op_name] = handler.__func__
        else:
            self._handlers[op_name] = _with_app(handler)

    def register_resource(
        self, name: str, rtype: ResourceType, *sims: Any
    ) -> ResourceHandle:
        """Declare an application resource and the sim objects behind it.

        This is the paper's integration step (§3.2): the controller gets
        its :class:`ResourceHandle`, and the app remembers which sim
        primitives the handle stands for, so telemetry, fault injection
        and the mitigation levers all read :meth:`resources` instead of
        guessing from attribute names.
        """
        if not sims:
            raise TypeError(
                f"{self.name}.{name}: register_resource needs the sim "
                "object(s) behind the handle"
            )
        handle = self.controller.register_resource(f"{self.name}.{name}", rtype)
        self._resources[handle] = sims
        return handle

    def resources(self, handle: Optional[ResourceHandle] = None) -> list:
        """Registered sim objects, in registration order.

        With ``handle``, only the objects behind that handle (empty for
        a handle this application did not register).
        """
        if handle is not None:
            return list(self._resources.get(handle, ()))
        return [sim for sims in self._resources.values() for sim in sims]

    def operations(self) -> list:
        return sorted(self._handlers.keys())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, task: CancellableTask, op: Operation) -> Generator:
        """The process generator running ``op`` on behalf of ``task``.

        This is the handler's own generator, not a delegating wrapper: a
        request is resumed once per event through every ``yield from``
        level above the wait, so a pass-through level is a frame per
        event.
        """
        handler = self._handlers.get(op.name)
        if handler is None:
            raise KeyError(f"{self.name} has no operation {op.name!r}")
        return handler(self, task, **op.params)

    # ------------------------------------------------------------------
    # Instrumentation helpers (the ATROPOS tracing call sites)
    # ------------------------------------------------------------------
    # A controller that models tracing overhead charges it to the task's
    # ``trace_debt`` inside these calls; the debt is paid (as simulated
    # delay) at the next checkpoint -- the amortized rdtsc /
    # sampled-timestamp cost of §3.2 without a yield per traced event.
    def trace_get(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        if self._traces:
            self.controller.get_resource(task, resource, amount)

    def trace_free(
        self, task: CancellableTask, resource: ResourceHandle, amount: float = 1.0
    ) -> None:
        if self._traces:
            self.controller.free_resource(task, resource, amount)

    def trace_slow_by(
        self,
        task: CancellableTask,
        resource: ResourceHandle,
        delay: float,
        events: float = 1.0,
    ) -> None:
        if self._traces:
            self.controller.slow_by_resource(task, resource, delay, events)

    # ------------------------------------------------------------------
    # Traced resource acquisition helpers
    # ------------------------------------------------------------------
    def acquire_lock(
        self,
        task: CancellableTask,
        lock,
        handle: ResourceHandle,
        exclusive: bool = True,
    ) -> Generator:
        """Acquire a :class:`SyncLock` with ATROPOS tracing.

        Usage (the grant must be released via :meth:`release_lock` in a
        ``finally`` block)::

            grant = yield from self.acquire_lock(task, lock, handle)
            try:
                ...
            finally:
                self.release_lock(task, grant, handle)

        An interrupt while queued removes the request from the lock queue
        before re-raising (safe cancellation at the wait checkpoint).
        """
        self.controller.begin_wait(task, handle)
        grant = lock.acquire(owner=task, exclusive=exclusive)
        try:
            yield grant
        except BaseException:
            grant.close()
            self.controller.end_wait(task, handle)
            raise
        self.controller.end_wait(task, handle)
        self.trace_get(task, handle)
        return grant

    def release_lock(
        self, task: CancellableTask, grant, handle: ResourceHandle
    ) -> None:
        """Release a grant obtained via :meth:`acquire_lock` (idempotent)."""
        if grant.closed:
            return
        if grant.granted:
            self.trace_free(task, handle)
        grant.close()

    def acquire_slot(
        self,
        task: CancellableTask,
        pool,
        handle: ResourceHandle,
        klass: str = "default",
    ) -> Generator:
        """Acquire a :class:`ThreadPool` slot with ATROPOS tracing.

        Same protocol as :meth:`acquire_lock`; release with
        :meth:`release_lock`.
        """
        self.controller.begin_wait(task, handle)
        try:
            grant = pool.submit(owner=task, klass=klass)
        except QueueFull as exc:
            # Admission queue overflow is an application-level rejection
            # (HTTP 503 / too-many-connections), not a simulation error.
            self.controller.end_wait(task, handle)
            if self._hooked:
                self._tracer.instant(
                    self.env.now,
                    "app",
                    f"queue-full {handle.name}",
                    f"app:{self.name}",
                    task=owner_label(task),
                )
            raise DropRequest(f"queue-full:{handle.name}") from exc
        except BaseException:
            self.controller.end_wait(task, handle)
            raise
        try:
            yield grant
        except BaseException:
            grant.close()
            self.controller.end_wait(task, handle)
            raise
        self.controller.end_wait(task, handle)
        self.trace_get(task, handle)
        return grant

    def checkpoint(self, task: CancellableTask) -> Generator:
        """Cancellation / control checkpoint inside a handler.

        Applies, in order: the controller's victim-drop decision
        (Protego), any penalty-throttle delay (pBox), and the accumulated
        tracing-overhead debt.  Handlers call this at natural safe points.
        """
        if self.controller.should_drop(task):
            if self._hooked:
                self._tracer.instant(
                    self.env.now,
                    "app",
                    "controller-drop",
                    f"app:{self.name}",
                    task=owner_label(task),
                )
            raise DropRequest("controller-drop")
        delay = self.controller.throttle_delay(task)
        debt = task.trace_debt
        task.trace_debt = 0.0
        total = delay + debt
        if total > 0.0:
            if self._hooked:
                self._tracer.instant(
                    self.env.now,
                    "app",
                    "checkpoint-delay",
                    f"app:{self.name}",
                    task=owner_label(task),
                    throttle=round(delay, 9),
                    trace_debt=round(debt, 9),
                )
            yield self.env.timeout(total)
