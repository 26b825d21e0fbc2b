"""Generator-based simulated processes with interrupt support.

A :class:`Process` wraps a Python generator that yields :class:`Event`
objects to wait on them.  Processes can be interrupted, which throws
:class:`~repro.sim.errors.Interrupt` into the generator at its current
yield point -- this models cancellation checkpoints: the simulated
application only observes a cancellation where it chose to wait, and can
run ``try/finally`` cleanup, just like a real cancellation initiator.

``Process._resume`` is the kernel's hottest function: every event
delivery runs it once.  It uses the consolidated
``Environment.hooks_enabled`` flag (checked once at construction, cached
in ``_span``: None means "no tracing") and schedules its completion by
pushing the packed heap entry directly, like the fast paths in
:mod:`repro.sim.events`.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import Interrupt
from .events import PENDING, SEQ_BITS, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

ProcessGenerator = Generator[Event, Any, Any]

_URGENT_KEY = URGENT << SEQ_BITS
_NORMAL_KEY = 1 << SEQ_BITS


class Initialize(Event):
    """Internal event that starts a process on the next kernel step
    (:meth:`~repro.sim.environment.Environment.process` schedules one)."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self._ok = True
        self._value = None
        self.defused = False
        self.callbacks = [process._resume]
        heappush(env._queue, (env.now, _URGENT_KEY | env._eid, self))
        env._eid += 1


class _Started:
    """What an :class:`Initialize` event hands the process it starts
    (success, value ``None``), without being an event: the argument of
    the first ``_resume`` of a process started inline by
    :meth:`~repro.sim.environment.Environment.process_now`."""

    __slots__ = ()
    _ok = True
    _value = None


STARTED = _Started()


class Interruption(Event):
    """Internal event that delivers an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self._ok = False
        self._value = Interrupt(cause)
        # The interrupt is expected to be handled (or to kill the process);
        # it must never crash the whole simulation on its own.
        self.defused = True
        self.process = process
        self.callbacks = [self._interrupt]
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            # The process finished before the interrupt was delivered.
            return
        # Detach the process from whatever it was waiting on so that the
        # original event does not also resume it later.
        process._detach()
        process._resume(self)


class Process(Event):
    """A running simulated activity.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes (or fails with the exception that
    escaped it), so other processes can ``yield proc`` to join it.

    Construction does not start the generator: build processes through
    :meth:`Environment.process <repro.sim.environment.Environment.process>`
    (started by an :class:`Initialize` event) or
    :meth:`~repro.sim.environment.Environment.process_now` (started
    inline).
    """

    __slots__ = ("_generator", "_target", "name", "_span")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value: Any = PENDING
        self._ok = True
        self.defused = False
        self._generator = generator
        #: The event this process is currently waiting on (None while active).
        self._target: Optional[Event] = None
        self.name = getattr(generator, "__name__", "process")
        #: Lifetime span (None when tracing is disabled -- the fast path).
        if env.hooks_enabled:
            tracer = env.tracer
            self._span = tracer.begin(
                env.now, "process", self.name, f"proc:{self.name}"
            )
        else:
            self._span = None
        env._processes[self] = None

    @property
    def is_alive(self) -> bool:
        """True while the process has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is waiting for, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a finished process raises ``RuntimeError``; a process
        cannot interrupt itself (cancel decisions always come from outside
        the task being cancelled).
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        if self.env.active_process is self:
            raise RuntimeError("a process is not allowed to interrupt itself")
        if self.env.hooks_enabled:
            tracer = self.env.tracer
            tracer.instant(
                self.env.now,
                "interrupt",
                f"interrupt {self.name}",
                f"proc:{self.name}",
                cause=str(cause) if cause is not None else None,
            )
        Interruption(self, cause)

    def _finish(self, env: "Environment", ok: bool, value: Any, outcome: str) -> None:
        """Trigger the process event with the generator's outcome.

        Completion rule: a process somebody joined (a non-empty callback
        list) schedules its completion through the heap, so joiners
        resume in (time, priority, sequence) order like after any other
        event.  A process nobody joined, with nothing to raise (it
        succeeded, or it was unwound by a defused ``Interrupt``), is
        marked processed on the spot: a later ``yield proc`` reads its
        value at once.  An unjoined *undefused* failure still goes
        through the heap, where the run loop re-raises it.
        """
        self._ok = ok
        self._value = value
        if self._span is not None:
            self._span.end(env.now, outcome=outcome)
            self._span = None
        del env._processes[self]
        if not self.callbacks and (ok or self.defused):
            self.callbacks = None
            return
        heappush(env._queue, (env.now, _NORMAL_KEY | env._eid, self))
        env._eid += 1

    def _close(self) -> None:
        """Finalize this unfinished process for
        :meth:`Environment.close <repro.sim.environment.Environment.close>`:
        detach it from the event it waits on, then close its generator,
        which runs the generator's ``finally`` blocks.  The process
        stays untriggered; its environment has ended."""
        self._detach()
        self._generator.close()

    def _detach(self) -> None:
        """Take this process off the callbacks of the event it waits on."""
        target = self._target
        self._target = None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env.active_process = self
        self._target = None
        # ``send`` is bound once per resume, ``throw`` only on the path
        # that needs it.  (Binding both once per *process* and storing
        # them was measured: two GC-tracked objects per live process,
        # +4 % peak RSS and ~190 more gen-0 collections a pass.)
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The waited-on event failed; the exception is about to
                    # be delivered, so it is handled as far as the kernel is
                    # concerned.
                    event.defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._finish(env, True, exc.value, "finished")
                break
            except BaseException as exc:
                if isinstance(exc, Interrupt):
                    # A cancellation that unwinds the whole task is an
                    # expected outcome, not a simulation bug: do not crash
                    # the run if nobody joins this process.
                    self.defused = True
                self._finish(env, False, exc, type(exc).__name__)
                break

            if not isinstance(next_event, Event):
                self._finish(
                    env,
                    False,
                    RuntimeError(
                        f"process {self.name!r} yielded {next_event!r}, "
                        "which is not an Event"
                    ),
                    "error",
                )
                break

            if next_event.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # The event was already processed; feed its value immediately.
            event = next_event

        env.active_process = None

    def __repr__(self) -> str:
        status = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {status} at {id(self):#x}>"
