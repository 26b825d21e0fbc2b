"""Shared plumbing for simulated resource primitives.

Every primitive hands out *grant events*: a process yields the grant to
wait for the resource.  Grants are context managers so that cancellation
(an :class:`~repro.sim.errors.Interrupt` raised at the yield point) always
leaves the resource in a consistent state::

    with lock.acquire(owner=task) as grant:
        yield grant            # may raise Interrupt; __exit__ cleans up
        ... use the resource ...

This mirrors the safe-cancellation discipline the paper observes in real
applications: resource acquire/release sites are exactly the cancellation
checkpoints, and cleanup runs before the task unwinds.

Fault injection: primitives that model capacity expose a
``degrade(factor)`` / ``restore()`` pair (see :meth:`Resource.degrade`)
through which :mod:`repro.faults` shrinks them mid-run -- worker loss,
buffer-pool shrinkage, disk slowdowns.  Primitives without a meaningful
capacity notion (e.g. :class:`~repro.sim.resources.lock.SyncLock`) leave
the default implementation, which raises ``NotImplementedError``; the
injector records such faults as not-applied instead of crashing the run.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Optional

from ...obs.tracer import NULL_TRACER, owner_label
from ..events import NORMAL, PENDING, SEQ_BITS, Event

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment

_NORMAL_KEY = NORMAL << SEQ_BITS


class Grant(Event):
    """Base class for resource grant events.

    A grant is *pending* while queued, *granted* once the resource is
    assigned, and *closed* after release or cancellation.
    """

    #: ``_wait_aid`` / ``_hold_aid`` are the async-span ids the tracing
    #: helpers below hang on the grant; ``_closed_hold`` freezes the hold
    #: time at close.  All three are slots (set lazily, read defensively).
    __slots__ = (
        "resource",
        "owner",
        "request_time",
        "grant_time",
        "closed",
        "_closed_hold",
        "_wait_aid",
        "_hold_aid",
    )

    def __init__(self, env: "Environment", resource: Any, owner: Any) -> None:
        # Grants are the second highest-volume event after Timeout: write
        # the Event fields here instead of going through Event.__init__.
        # Subclasses add one slot and no constructor; the resource sets
        # that slot right after building the grant.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.defused = False
        self.resource = resource
        self.owner = owner
        self.request_time = env.now
        self.grant_time: Optional[float] = None
        self.closed = False

    @property
    def granted(self) -> bool:
        return self.grant_time is not None

    @property
    def wait_time(self) -> float:
        """Queueing delay between request and grant (so far, if pending)."""
        if self.grant_time is None:
            return self.env.now - self.request_time
        return self.grant_time - self.request_time

    @property
    def hold_time(self) -> float:
        """Time the resource has been held (0 if never granted)."""
        if self.grant_time is None:
            return 0.0
        if self.closed:
            return self._closed_hold
        return self.env.now - self.grant_time

    def _mark_granted(self) -> None:
        """Stamp the grant time and trigger the event (``succeed()``
        with the heap entry pushed directly).

        The value is ``None``, not the grant: a grant whose value is
        itself is a reference cycle, and through :attr:`owner` it would
        keep its request's task, process and generator alive until the
        cyclic collector runs.  Nothing reads a grant's value; the
        acquirer already holds the grant.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        env = self.env
        now = env.now
        self.grant_time = now
        self._value = None
        heappush(env._queue, (now, _NORMAL_KEY | env._eid, self))
        env._eid += 1

    def _grant_inline(self) -> None:
        """Grant and process at once: stamp the grant time and run the
        callbacks here, as the run loop would on popping the event
        :meth:`_mark_granted` pushes.  The same schedule only where that
        event would be the very next one popped (see
        :meth:`repro.sim.resources.threadpool.ThreadPool.handoff`)."""
        self.grant_time = self.env.now
        self._value = None
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def close(self) -> None:
        """Release the resource if granted, or leave the queue if pending.

        Idempotent; safe to call from ``finally`` blocks and ``__exit__``.
        """
        if self.closed:
            return
        granted_at = self.grant_time
        self._closed_hold = (
            0.0 if granted_at is None else self.env.now - granted_at
        )
        self.closed = True
        self.resource._close(self)

    # -- context manager protocol -------------------------------------
    def __enter__(self) -> "Grant":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class Resource:
    """Base class for primitives; subclasses implement ``_close``.

    Tracing: resources cache ``env.tracer`` at construction (the tracer
    is installed when the environment is built, before any resource).
    The shared helpers below emit the wait/hold span pair every queued
    primitive produces -- an async *wait* span from request to grant (or
    abandonment) and an async *hold* span from grant to release -- plus
    queue-depth counters.  Subclasses gate every helper call on the
    cached ``self._traced`` bool (resolved once here, from the
    consolidated ``Environment.hooks_enabled`` switch), so the untraced
    fast path costs one attribute load and one branch per transition.
    """

    #: Trace category; also prefixes the per-resource track name.
    trace_cat = "resource"

    def __init__(self, env: "Environment", name: str, traced: bool = True) -> None:
        self.env = env
        self.name = name
        self._tracer = env.tracer if traced else NULL_TRACER
        #: Fast-path switch: True only when a live tracer will record us.
        self._traced = bool(traced and env.hooks_enabled)

    def _close(self, grant: Grant) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- fault-injection hooks ----------------------------------------
    def degrade(self, factor: float) -> None:
        """Shrink this resource to ``factor`` of its nominal capacity.

        Fault-injection hook (see :mod:`repro.faults`): subclasses that
        model capacity (workers, pages, cores, bandwidth) override this
        to apply a mid-run degradation.  Calling ``degrade`` again
        re-degrades *from nominal* (factors do not stack);
        :meth:`restore` returns to nominal.  The base implementation
        raises ``NotImplementedError`` -- not every primitive has a
        meaningful capacity to lose.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support degrade()"
        )

    def restore(self) -> None:
        """Undo :meth:`degrade`, returning to nominal capacity."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support restore()"
        )

    # -- tracing helpers ----------------------------------------------
    @property
    def _track(self) -> str:
        return f"{self.trace_cat}:{self.name}"

    def _trace_wait_begin(self, grant: Grant, **args: Any) -> None:
        tracer = self._tracer
        if tracer.enabled:
            grant._wait_aid = tracer.async_begin(
                self.env.now,
                self.trace_cat,
                f"wait {owner_label(grant.owner)}",
                self._track,
                **args,
            )

    def _trace_granted(self, grant: Grant, **args: Any) -> None:
        tracer = self._tracer
        if tracer.enabled:
            now = self.env.now
            aid = getattr(grant, "_wait_aid", None)
            if aid is not None:
                tracer.async_end(
                    now,
                    self.trace_cat,
                    f"wait {owner_label(grant.owner)}",
                    self._track,
                    aid,
                )
                grant._wait_aid = None
            grant._hold_aid = tracer.async_begin(
                now,
                self.trace_cat,
                f"hold {owner_label(grant.owner)}",
                self._track,
                **args,
            )

    def _trace_released(self, grant: Grant, **args: Any) -> None:
        tracer = self._tracer
        if tracer.enabled:
            aid = getattr(grant, "_hold_aid", None)
            if aid is not None:
                tracer.async_end(
                    self.env.now,
                    self.trace_cat,
                    f"hold {owner_label(grant.owner)}",
                    self._track,
                    aid,
                    **args,
                )
                grant._hold_aid = None

    def _trace_abandoned(self, grant: Grant) -> None:
        tracer = self._tracer
        if tracer.enabled:
            aid = getattr(grant, "_wait_aid", None)
            if aid is not None:
                tracer.async_end(
                    self.env.now,
                    self.trace_cat,
                    f"wait {owner_label(grant.owner)}",
                    self._track,
                    aid,
                    abandoned=True,
                )
                grant._wait_aid = None

    def _trace_depths(self, **values: float) -> None:
        tracer = self._tracer
        if tracer.enabled:
            tracer.counter(self.env.now, self.name, self._track, **values)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
