"""Workload driver: request lifecycle with cancellation and re-execution.

The driver plays the role of the benchmark clients (sysbench, Rally, ...)
plus the application's connection layer: it pumps each source's arrival
stream into the run (:meth:`Driver.run_arrivals`, one pending arrival
per stream), runs each request through the controller's admission hook,
registers a cancellable task, executes the application handler, and
handles the three unwind paths -- completion, controller drop, and
cancellation (with the controller's re-execution gate deciding retry vs
drop).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..core.controller import BaseController
from ..core.types import CancelSignal, DropRequest, DropSignal, TaskKind
from ..sim.errors import Interrupt
from ..sim.events import At
from ..sim.metrics import MetricsCollector, RequestRecord, RequestStatus
from .spec import Arrival, Workload

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.base import Application, Operation
    from ..sim.environment import Environment
    from ..sim.process import Process


class Driver:
    """Drives one application with one workload under one controller."""

    def __init__(
        self,
        env: "Environment",
        app: "Application",
        controller: BaseController,
        collector: Optional[MetricsCollector] = None,
    ) -> None:
        self.env = env
        self.app = app
        self.controller = controller
        self.collector = collector or MetricsCollector()
        self._req_seq = 1
        self._tracer = env.tracer
        #: Consolidated per-event hook switch, mirrored from the
        #: environment (see Environment.hooks_enabled): one cached bool
        #: instead of a tracer attribute chain per request.
        self._hooked = env.hooks_enabled
        #: Requests currently in flight (for diagnostics).
        self.inflight = 0
        #: The workload started via :meth:`run_workload` (exposed so
        #: :mod:`repro.faults` can reach its arrival sources mid-run).
        self.workload: Optional[Workload] = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, op: "Operation", client_id: str = "client") -> "Process":
        """Submit one request now; returns its process (an event that
        fires when the request reaches a terminal outcome)."""
        return self.env.process(self._request(op, client_id))

    def run_workload(self, workload: Workload) -> None:
        """Offer every source of a workload through :meth:`run_arrivals`."""
        self.workload = workload
        for source in workload.sources:
            self.run_arrivals(source.arrivals(self), source.client_id)

    def run_arrivals(
        self, arrivals: Iterable[Arrival], client_id: str = "client"
    ) -> None:
        """Offer an arrival stream: the one way load enters a run.

        ``arrivals`` is any iterable of ascending ``(absolute_time,
        operation_factory)`` pairs -- a source's lazy ``arrivals()``
        generator or a pre-built list (fleet, mesh).  The pump keeps
        exactly **one** pending :class:`~repro.sim.events.At` event per
        stream.  When it fires, the due operation is built, the next
        pair is pulled and scheduled, and then the request starts.
        Pulling at the previous arrival's time is what lets a generator
        follow a live rate (burst faults), and the heap never holds a
        stream's future.

        The request starts inline (``env.process_now``): the ``At`` is a
        NORMAL event with no other callback, and the pump schedules
        nothing at ``now`` after the start, so the ``Initialize`` event
        ``env.process`` would schedule is always the next one popped.
        The random draws keep their order: the factory's, then the next
        arrival's, then the request's own.

        A time earlier than the stream's previous one (or than
        ``env.now`` for the first) would rewind the clock: ``At``
        refuses it, and the ``ValueError`` names ``client_id`` too.
        """
        pump = self._pump(arrivals, client_id)
        next(pump)  # to its first yield, which receives ...
        pump.send(pump.send)  # ... the callback that resumes it
        self.env.own(pump)

    def _pump(self, arrivals: Iterable[Arrival], client_id: str):
        """One stream's pump: a generator that each of its ``At`` events
        resumes (``resume`` is its own ``send``, the event's callback).

        Its frame is the stream's state (the iterator, the operation due
        next), so an arrival costs one resume.  A live pump refers to
        itself through ``resume`` and is referred to by its pending
        ``At``, so :meth:`run_arrivals` hands it to the environment
        (``Environment.own``): ``Environment.close`` closes it with the
        run's processes, and the stream does not outlive the run.  A
        pump that runs out lets go of ``resume`` and is freed at once.
        """
        env, request = self.env, self._request
        start = env.process_now
        resume = yield
        op = None  # the operation due at the last ``At``, not yet started
        for at, factory in arrivals:
            try:
                due = At(env, at)
            except ValueError as exc:
                raise ValueError(
                    f"arrival stream {client_id!r}: {exc}"
                ) from exc
            due.callbacks.append(resume)
            if op is not None:
                start(request(op, client_id))
            yield  # until the arrival is due
            op = factory()
        if op is not None:
            start(request(op, client_id))
        del resume  # its reference to itself
        yield  # exhausted; returning would raise StopIteration in the run loop

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _record(
        self,
        request_id: int,
        op: "Operation",
        client_id: str,
        arrival: float,
        status: RequestStatus,
        retries: int,
        req_aid: Optional[int] = None,
    ) -> None:
        record = RequestRecord(
            request_id=request_id,
            op_name=op.name,
            client_id=client_id,
            arrival_time=arrival,
            finish_time=self.env.now,
            status=status,
            retries=retries,
        )
        if req_aid is not None:
            self._tracer.async_end(
                self.env.now,
                "request",
                f"{op.name}#{request_id}",
                f"req:{op.name}",
                req_aid,
                status=status.value,
                retries=retries,
            )
        self.collector.record(record)
        self.controller.observe_completion(record)

    def _request(self, op: "Operation", client_id: str):
        env = self.env
        controller = self.controller
        request_id = self._req_seq
        self._req_seq = request_id + 1
        arrival = env.now
        self.collector.note_offered(op_name=op.name)
        self.inflight += 1
        retries = 0
        req_aid = None
        if self._hooked:
            req_aid = self._tracer.async_begin(
                arrival,
                "request",
                f"{op.name}#{request_id}",
                f"req:{op.name}",
                client=client_id,
            )
        try:
            while True:
                if not controller.admit(op.name, client_id):
                    self._record(
                        request_id, op, client_id, arrival,
                        RequestStatus.DROPPED, retries, req_aid,
                    )
                    return
                task = controller.create_cancel(
                    kind=op.kind,
                    client_id=client_id,
                    op_name=op.name,
                    cancellable=op.cancellable,
                )
                if retries > 0:
                    # Fairness (§4): a re-executed task is exempt from
                    # further cancellations.
                    task.mark_non_cancellable()
                try:
                    yield from self.app.execute(task, op)
                except DropRequest:
                    controller.free_cancel(task)
                    self._record(
                        request_id, op, client_id, arrival,
                        RequestStatus.DROPPED, retries, req_aid,
                    )
                    return
                except Interrupt as exc:
                    controller.free_cancel(task)
                    if isinstance(exc.cause, DropSignal):
                        # Victim drop (Protego-style): terminal, no retry.
                        self._record(
                            request_id, op, client_id, arrival,
                            RequestStatus.DROPPED, retries, req_aid,
                        )
                        return
                    if not isinstance(exc.cause, CancelSignal):
                        # Unknown interrupt cause: a bug in the model, not
                        # an overload-control action.  Escalate loudly
                        # (bare Interrupts are auto-defused by the kernel).
                        raise RuntimeError(
                            "request interrupted with unknown cause "
                            f"{exc.cause!r}"
                        ) from exc
                    retries += 1
                    decision = yield from controller.reexecution_gate(
                        task, arrival
                    )
                    if decision == "drop":
                        self._record(
                            request_id, op, client_id, arrival,
                            RequestStatus.CANCELLED, retries, req_aid,
                        )
                        return
                    continue  # re-execute
                else:
                    controller.free_cancel(task)
                    self._record(
                        request_id, op, client_id, arrival,
                        RequestStatus.COMPLETED, retries, req_aid,
                    )
                    return
        finally:
            self.inflight -= 1
