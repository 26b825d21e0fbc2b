"""Multi-core CPU with sliced round-robin sharing.

Service is approximated by chopping each task's CPU demand into short
slices and queueing the slices FCFS on a fixed number of cores.  Long
CPU-bound tasks therefore inflate everyone's latency through queueing --
the behaviour behind the paper's case 12 (Elasticsearch long-running
queries hogging CPU) -- while short tasks still interleave, like an OS
scheduler would let them.

The slice loop of one :meth:`CPU.execute` call is driven by callbacks
(:class:`_SliceLoop`): the owning process waits on one event for the
whole call, each slice's grant event starts the slice's timer, and each
timer ends the slice and queues the next one.  Between two slices of one
call the core is handed on through :meth:`ThreadPool.handoff`, without a
grant event whenever that event would have been popped next.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List

from ...obs.tracer import owner_label
from ..events import Event, Timeout
from .threadpool import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment
    from .threadpool import SlotGrant


class CPU:
    """``cores`` cores shared via time slicing.

    Traced events: one async span per :meth:`execute` call (slice-level
    queueing is internal machinery and stays untraced) plus a run-queue
    depth counter sampled at execute boundaries.

    Fault-injection hooks: :meth:`degrade` offlines cores mid-run
    (slices already running finish; at least one core survives);
    :meth:`restore` brings them back.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        cores: int,
        slice_time: float = 0.002,
    ) -> None:
        self.env = env
        self.name = name
        self.cores = cores
        #: Nominal core count; :meth:`degrade`/:meth:`restore` move
        #: :attr:`cores` relative to this.
        self.nominal_cores = cores
        self.slice_time = slice_time
        self._pool = ThreadPool(env, f"{name}.cores", cores, traced=False)
        self._tracer = env.tracer
        #: CPU seconds charged so far, summed in charge order.  Per-task
        #: seconds belong to the caller's ledger (``trace_get``): the CPU
        #: names an owner only while its slice runs or waits.
        self.cpu_seconds = 0.0

    @property
    def run_queue_length(self) -> int:
        """Slices waiting for a core right now."""
        return self._pool.queue_length

    @property
    def busy_cores(self) -> int:
        return self._pool.active

    def owners(self) -> List[Any]:
        """Owners of the slices on a core or in the run queue."""
        return self._pool.owners()

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        return {
            "utilization": self.busy_cores / self.cores
            if self.cores else 0.0,
            "queue_depth": float(self.run_queue_length),
            "cores": float(self.cores),
            "cpu_seconds_total": self.cpu_seconds,
        }

    # ------------------------------------------------------------------
    # Fault injection (core loss)
    # ------------------------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Fault-injection hook: offline cores down to ``factor`` of
        nominal (at least one survives).  Slices already on a core run
        to completion; queued slices wait for the surviving cores."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.cores = max(1, int(round(self.nominal_cores * factor)))
        self._pool.resize(self.cores)

    def restore(self) -> None:
        """Bring offlined cores back; queued slices dispatch immediately."""
        self.cores = self.nominal_cores
        self._pool.resize(self.cores)

    def execute(self, owner: Any, cpu_time: float) -> Generator[Event, Any, float]:
        """Process generator: burn ``cpu_time`` seconds of CPU, time-sliced;
        returns the seconds charged.

        Usage is charged slice by slice so an interrupt mid-way leaves the
        accounting consistent (the task pays for what it actually ran).
        """
        if cpu_time < 0:
            raise ValueError("cpu_time must be non-negative")
        tracer = self._tracer
        aid = None
        if tracer.enabled:
            track = f"cpu:{self.name}"
            aid = tracer.async_begin(
                self.env.now,
                "cpu",
                f"execute {owner_label(owner)}",
                track,
                cpu_time=cpu_time,
            )
            tracer.counter(
                self.env.now,
                self.name,
                track,
                run_queue=self.run_queue_length,
                busy=self.busy_cores,
            )
        loop = None
        try:
            if cpu_time > 1e-12:
                loop = _SliceLoop(self, owner, cpu_time)
                yield loop.finished
                return loop.done
            return 0.0
        finally:
            if loop is not None:
                loop.close()
            if aid is not None:
                tracer.async_end(
                    self.env.now,
                    "cpu",
                    f"execute {owner_label(owner)}",
                    f"cpu:{self.name}",
                    aid,
                    consumed=round(loop.done if loop else 0.0, 9),
                )


class _SliceLoop:
    """The slices of one :meth:`CPU.execute` call.

    Each slice submits one grant to the core pool; the grant's event
    starts the slice's timer (:meth:`_start`), and the timer charges the
    slice and queues the next one (:meth:`_end`).  The last slice's end
    releases its core, then resumes the owner inline through
    :attr:`finished` -- the order in which a process resumed by that
    timer would have done the same.  After an interrupt the owner has
    closed :attr:`grant`, and a later pop of that grant or its timer does
    nothing.
    """

    __slots__ = ("cpu", "owner", "remaining", "chunk", "done", "grant",
                 "finished")

    def __init__(self, cpu: CPU, owner: Any, cpu_time: float) -> None:
        self.cpu = cpu
        self.owner = owner
        self.remaining = cpu_time
        self.done = 0.0
        #: The one event the owner waits on; never scheduled.
        self.finished = Event(cpu.env)
        self.chunk = min(cpu.slice_time, cpu_time)
        self._submit()

    def close(self) -> None:
        """Release the current slice's grant, which an interrupt leaves
        queued or running (a no-op after the last slice), and drop the
        grant's callback to this loop: the two would otherwise hold each
        other, and through :attr:`owner` the task and its run."""
        grant = self.grant
        grant.close()
        if grant.callbacks:
            grant.callbacks.clear()

    def _submit(self) -> None:
        grant = self.grant = self.cpu._pool.submit(self.owner)
        grant.callbacks.append(self._start)

    def _start(self, grant: "SlotGrant") -> None:
        if not grant.closed:
            Timeout(self.cpu.env, self.chunk).callbacks.append(self._end)

    def _end(self, timer: Event) -> None:
        grant = self.grant
        if grant.closed:
            return
        cpu = self.cpu
        chunk = self.chunk
        cpu.cpu_seconds += chunk
        self.done += chunk
        remaining = self.remaining = self.remaining - chunk
        if remaining > 1e-12:
            self.chunk = min(cpu.slice_time, remaining)
            handed = cpu._pool.handoff(grant, self._start)
            if handed is None:
                grant.close()
                self._submit()
            else:
                self.grant = handed
            return
        # The last slice never hands its core on inline: the owner's
        # process continues right here, and what it schedules must keep
        # its place ahead of the next slice's timer, which starts only
        # when the grant event this close dispatches is popped.
        grant.close()
        finished = self.finished
        finished._value = None
        callbacks, finished.callbacks = finished.callbacks, None
        for callback in callbacks:
            callback(finished)
