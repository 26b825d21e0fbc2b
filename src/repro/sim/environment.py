"""The simulation environment: clock, event heap, and run loop.

Ordering contract (see also docs/ARCHITECTURE.md "Simulation kernel"):
events are processed in ascending ``(time, priority, sequence)`` order.
Time is the simulated timestamp, priority is URGENT (0) before NORMAL
(1), and the sequence number -- assigned in scheduling order -- makes
the order total and FIFO among same-time, same-priority events.

Heap entries are packed 3-tuples ``(time, key, event)`` with
``key = (priority << SEQ_BITS) | seq``: sequence numbers are global and
far below ``2**SEQ_BITS``, so integer key order is exactly lexicographic
(priority, sequence) order, with one comparison and one tuple slot fewer
per entry than the naive 4-tuple.  Everything that schedules an event --
:meth:`Environment.schedule` and the inlined fast paths in
:mod:`repro.sim.events` (relative :class:`Timeout`, absolute
:class:`At`) and :mod:`repro.sim.process` -- builds entries in this one
format.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Dict, Generator, List, Optional, Tuple, Union

from ..obs.tracer import NULL_TRACER
from .errors import EmptySchedule, StopSimulation
from .events import NORMAL, SEQ_BITS, AllOf, AnyOf, Event, Timeout
from .process import STARTED, Initialize, Process, ProcessGenerator

#: Heap entries: (time, (priority << SEQ_BITS) | sequence, event).
QueueEntry = Tuple[float, int, Event]


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in *seconds* of simulated time.  All model components
    (resources, applications, ATROPOS itself) share one environment.

    The environment also carries the run's :mod:`repro.obs` tracer; model
    components read ``env.tracer`` at construction time, so the tracer
    must be passed here (before resources are built) to take effect.

    :attr:`hooks_enabled` is the consolidated fast-path switch: it is
    computed *once*, here, and components cache it at construction
    instead of re-testing ``tracer.enabled`` per event.  When False, the
    kernel and every layer above it skip span/instant bookkeeping
    entirely; the simulated schedule is identical either way (hooks
    observe, they never steer).
    """

    def __init__(self, initial_time: float = 0.0, tracer=None) -> None:
        #: Current simulated time.  A plain attribute: only the run loop
        #: (:meth:`step` / :meth:`run`) writes it; everything else reads.
        self.now = float(initial_time)
        self._queue: List[QueueEntry] = []
        #: Next event sequence number == events scheduled so far.
        self._eid = 0
        #: The process currently being resumed, if any.  Like ``now`` a
        #: plain attribute with one writer (``Process._resume``).
        self.active_process: Optional[Process] = None
        #: Structured tracer (NULL_TRACER = tracing disabled, the default).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: One consolidated flag for "any per-event hook is live".
        self.hooks_enabled = bool(self.tracer.enabled)
        #: Unfinished processes in start order, a dict used as an ordered
        #: set (one insert and one pop per process): :meth:`close`
        #: finalizes them.
        self._processes: Dict[Process, None] = {}
        #: Generators that event callbacks resume outside any process
        #: (the driver's arrival pumps), in the order they were handed
        #: over; held weakly, so one that has run out is freed at once.
        self._owned: "weakref.WeakKeyDictionary[Generator, None]" = (
            weakref.WeakKeyDictionary()
        )
        self._closed = False

    @property
    def alive_processes(self) -> int:
        """Number of started-but-unfinished processes (telemetry gauge)."""
        return len(self._processes)

    @property
    def queue_depth(self) -> int:
        """Number of scheduled-but-unprocessed events (telemetry gauge)."""
        return len(self._queue)

    @property
    def events_scheduled(self) -> int:
        """Total events pushed on the heap so far (``perf/`` reads it as
        ``sim.events``).

        Not counted, because each is handled on the spot instead of
        reaching the heap, so it consumes no sequence number:

        * the completion of a process nobody joined: a process that
          finishes with an empty callback list and nothing to raise is
          marked processed at once (see
          :meth:`repro.sim.process.Process._finish`);
        * the ``Initialize`` of a process started by
          :meth:`process_now` (every pumped request);
        * the grant event of a CPU slice whose core is handed on inline
          (:meth:`repro.sim.resources.threadpool.ThreadPool.handoff`),
          which the run loop would have popped next.
        """
        return self._eid

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process running ``generator``: an URGENT
        :class:`~repro.sim.process.Initialize` event at ``now`` runs it
        to its first yield, so the caller keeps running first."""
        process = Process(self, generator)
        Initialize(self, process)
        return process

    def process_now(self, generator: ProcessGenerator) -> Process:
        """Start a new process running ``generator`` inline: run it to
        its first yield before returning, with no ``Initialize`` event.

        Same schedule as :meth:`process` -- every later sequence number
        is one lower, which keeps their order -- only where that
        ``Initialize`` would be the very next event popped:

        * the caller is a callback of a NORMAL event being processed at
          ``now``, and not a process (URGENT events at ``now`` all pop
          before a NORMAL one, so none is pending, and
          :attr:`active_process` is free);
        * that event has no callback after the caller's, and the caller
          schedules and changes nothing after this call.

        The arrival pump (``Driver.run_arrivals``) is the one caller.
        """
        process = Process(self, generator)
        process._resume(STARTED)
        return process

    def own(self, generator: Generator) -> None:
        """Have :meth:`close` close ``generator`` if it is still alive
        then: one that event callbacks resume outside any process (an
        arrival pump, ``Driver.run_arrivals``).  The environment does not
        keep it alive."""
        self._owned[generator] = None

    def all_of(self, events: List[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay``."""
        heapq.heappush(
            self._queue,
            (self.now + delay, (priority << SEQ_BITS) | self._eid, event),
        )
        self._eid += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` when no events remain, and re-raises
        the exception of a failed event that nobody handled (not defused).
        """
        if self._closed:
            raise RuntimeError("the environment is closed")
        try:
            self.now, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no more events scheduled") from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            # Event was already processed (can happen if it was scheduled
            # twice through trigger chaining); nothing to do.
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not event.defused:
            # Nobody handled the failure: crash loudly rather than losing it.
            exc = event._value
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` runs until no events remain; a number runs until
                that simulated time; an :class:`Event` runs until that event
                is processed and returns its value.

        Raises ``RuntimeError`` on a closed environment (:meth:`close`).
        """
        if self._closed:
            raise RuntimeError("the environment is closed")
        if until is None:
            stop_at = float("inf")
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_event = until
            stop_at = float("inf")
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(_stop_simulation)
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self.now:
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self.now})"
                )

        # The run loop is `step()` inlined: one heappop and one callback
        # sweep per event, no per-event method-call or peek() overhead.
        # Semantics are identical to `while queue: self.step()`.
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue and queue[0][0] <= stop_at:
                self.now, _, event = heappop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    continue
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError(
                "simulation ran out of events before the until-event triggered"
            )
        if stop_at != float("inf"):
            self.now = stop_at
        return None

    def close(self) -> None:
        """End the simulation: finalize the work still in flight, once.

        Each unfinished process, in start order, is detached from the
        event it waits on and its generator is closed, which runs its
        ``finally`` blocks (``GeneratorExit`` at its yield) -- the
        cleanup an interrupt would run, at a known point.  Then every
        owned generator (:meth:`own`) is closed and the pending events
        are dropped.  Cleanup may start processes and schedule events,
        so this repeats until nothing is left.

        Afterwards no pending event or suspended frame of the run is
        left: a run without static reference cycles is freed by
        reference counting as soon as nothing outside holds it
        (``run_simulation`` closes its environment when the result is
        dropped).  A second call does nothing; :meth:`run` and
        :meth:`step` raise.
        """
        self._closed = True
        while self._processes or self._owned or self._queue:
            processes, self._processes = self._processes, {}
            for process in processes:
                process._close()
            for generator in list(self._owned):
                generator.close()
            self._owned.clear()
            self._queue.clear()


def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    # Failed until-event: propagate through normal failure handling.
    event.defused = False
