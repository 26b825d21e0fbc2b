"""Core event types for the discrete-event simulation kernel.

The kernel is a compact, dependency-free engine in the style of SimPy:
an :class:`Event` is a one-shot occurrence with callbacks; generator-based
processes (see :mod:`repro.sim.process`) yield events to wait on them.

Hot-path notes (see docs/PERFORMANCE.md for the full tour): event types
declare ``__slots__`` and the constructors of the high-volume types
(:class:`Event`, :class:`Timeout`, :class:`At`) write fields and push
heap entries directly rather than delegating through
``Environment.schedule`` -- both paths produce *identical* heap entries
``(time, key, event)`` with ``key = (priority << SEQ_BITS) | seq``, so
event ordering is exactly the (time, priority, sequence) contract
documented in :mod:`repro.sim.environment` no matter which path
scheduled the event.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .environment import Environment

# Sentinel for "event has not been triggered yet".
PENDING = object()

# Scheduling priorities: urgent events (interrupts, resource handoffs) run
# before normal events scheduled for the same simulated time.
URGENT = 0
NORMAL = 1

#: Heap keys pack (priority, sequence) into one int:
#: ``key = (priority << SEQ_BITS) | seq``.  Sequence numbers are global
#: across priorities and far below 2**SEQ_BITS, so key order equals
#: lexicographic (priority, sequence) order.
SEQ_BITS = 50
_URGENT_KEY = URGENT << SEQ_BITS
_NORMAL_KEY = NORMAL << SEQ_BITS


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (just created),
    *triggered* (a value or exception has been set and it is scheduled),
    and *processed* (its callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked with this event when it is processed.  Set to
        #: ``None`` once the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: A failed event whose exception was handled (e.g. re-raised inside
        #: a process) is "defused" and will not crash the simulation.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env.now, _NORMAL_KEY | env._eid, self))
        env._eid += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have ``exception`` thrown into them.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env.now, _NORMAL_KEY | env._eid, self))
        env._eid += 1
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._value is PENDING:
            raise RuntimeError(
                f"cannot trigger {self!r} from {event!r}: the source "
                "event has not been triggered yet"
            )
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the kernel's highest-volume event: write the base
        # fields and the heap entry directly (same entry Environment
        # .schedule would build).
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self._delay = delay
        heappush(env._queue, (env.now + delay, _NORMAL_KEY | env._eid, self))
        env._eid += 1

    @property
    def delay(self) -> float:
        return self._delay


class At(Event):
    """An event that triggers at a fixed absolute simulated time.

    Built like :class:`Timeout`, but the heap entry carries ``at``
    itself -- never ``now + (at - now)``, which need not round-trip in
    floating point -- so a pre-computed arrival time is the time the
    event is processed at, bit for bit.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", at: float, value: Any = None) -> None:
        if at < env.now:
            raise ValueError(f"time {at} is before now ({env.now})")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        heappush(env._queue, (at, _NORMAL_KEY | env._eid, self))
        env._eid += 1


class Condition(Event):
    """Composite event that triggers when ``evaluate`` says it should.

    Used through the :class:`AllOf` / :class:`AnyOf` helpers.  The value of
    a condition is a dict mapping each *triggered* child event to its value.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: List[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> Dict[Event, Any]:
        # Only *processed* events count: a Timeout is "triggered" the moment
        # it is created (its value is pre-set), but it has not occurred yet.
        return {
            e: e._value for e in self._events if e.callbacks is None and e._ok
        }

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            # Already decided; late child failures must not crash the sim.
            if not event._ok:
                event.defused = True
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Triggers once all of ``events`` have triggered successfully."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers once any of ``events`` has triggered successfully."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: List[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
