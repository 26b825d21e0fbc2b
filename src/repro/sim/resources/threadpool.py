"""Bounded worker pool with an admission queue.

Models application thread-pool resources: the InnoDB concurrency-control
admission queue, Apache's worker MPM (``MaxClients``), Solr's searcher
executor, ...  Workers are anonymous; a task submits, waits in FIFO order
for a free worker, runs, then releases the slot.

Optionally a pool can *reserve* workers per request class (used by the
DARC baseline, which dedicates cores/workers to short request classes).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional

from .base import Grant, Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment


class SlotGrant(Grant):
    """Grant event for a worker slot."""

    #: ``klass`` is set by :meth:`ThreadPool.submit`, the only builder.
    __slots__ = ("klass",)


class QueueFull(Exception):
    """Raised by :meth:`ThreadPool.submit` when the admission queue is full."""


class ThreadPool(Resource):
    """Fixed worker pool with FIFO admission queue and class reservations.

    Fault-injection hooks: :meth:`resize` / :meth:`degrade` /
    :meth:`restore` shrink or regrow the live worker count mid-run
    (running grants are never preempted).
    """

    trace_cat = "tpool"

    def __init__(
        self,
        env: "Environment",
        name: str,
        workers: int,
        queue_capacity: Optional[int] = None,
        traced: bool = True,
    ) -> None:
        """
        Args:
            workers: number of concurrent slots.
            queue_capacity: maximum queued submissions; ``None`` = unbounded.
                A full queue makes :meth:`submit` raise :class:`QueueFull`
                (the application decides whether that means HTTP 503, a
                client error, etc.).
            traced: set False for pools used as internal machinery of a
                coarser-grained resource (CPU time slices, disk op queues)
                so they do not flood the trace; the owning resource emits
                its own spans instead.
        """
        super().__init__(env, name, traced=traced)
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        #: Nominal worker count; :meth:`degrade`/:meth:`restore` move
        #: :attr:`workers` relative to this.
        self.nominal_workers = workers
        self.queue_capacity = queue_capacity
        self._running: List[SlotGrant] = []
        self._waiters: Deque[SlotGrant] = deque()
        #: class-group (tuple of class names) -> reserved worker count
        #: (only those classes may use the reserved workers).
        self._reservations: Dict[tuple, int] = {}
        self.total_wait_time = 0.0
        self.total_busy_time = 0.0

    # ------------------------------------------------------------------
    # Class reservations (DARC-style)
    # ------------------------------------------------------------------
    def reserve(self, klass, workers: int) -> None:
        """Dedicate ``workers`` slots to a request class (or class group).

        ``klass`` may be a single class name or an iterable of names that
        share one reservation.
        """
        if workers < 0:
            raise ValueError("reserved workers must be non-negative")
        group = (klass,) if isinstance(klass, str) else tuple(klass)
        total = sum(self._reservations.values()) - self._reservations.get(
            group, 0
        )
        if total + workers > self.workers:
            raise ValueError("cannot reserve more workers than exist")
        if workers == 0:
            self._reservations.pop(group, None)
        else:
            self._reservations[group] = workers
        # Loosening a reservation can make queued grants eligible.
        self._dispatch()

    def clear_reservations(self) -> None:
        self._reservations.clear()
        self._dispatch()

    # ------------------------------------------------------------------
    # Fault injection (worker loss)
    # ------------------------------------------------------------------
    def resize(self, workers: int) -> None:
        """Set the live worker count (fault injection / elasticity).

        Shrinking never preempts: grants already running keep their
        slots until release, and no new grant starts while the active
        count is at or above the new size.  Growing dispatches queued
        grants immediately.  Reservations are left untouched; a shrink
        below the reserved total just means reservations cannot all be
        honored until the pool is restored.
        """
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._dispatch()

    def degrade(self, factor: float) -> None:
        """Fault-injection hook: lose workers down to ``factor`` of
        nominal (at least one survives); see :meth:`resize`."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.resize(max(1, int(round(self.nominal_workers * factor))))

    def restore(self) -> None:
        """Return to the nominal worker count, dispatching any backlog."""
        self.resize(self.nominal_workers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> List[SlotGrant]:
        return list(self._running)

    @property
    def active(self) -> int:
        return len(self._running)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def idle_workers(self) -> int:
        return self.workers - len(self._running)

    def owners(self) -> List[Any]:
        """Everyone this pool knows: running, then queued."""
        return [g.owner for g in (*self._running, *self._waiters)]

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        return {
            "utilization": len(self._running) / self.workers
            if self.workers else 0.0,
            "queue_depth": float(len(self._waiters)),
            "workers": float(self.workers),
            "wait_seconds_total": self.total_wait_time,
            "busy_seconds_total": self.total_busy_time,
        }

    def _reserved_headroom(self, klass: str) -> int:
        """Workers that must stay free for *other* classes' reservations."""
        headroom = 0
        for group, reserved in self._reservations.items():
            if klass in group:
                continue
            in_use = 0
            for grant in self._running:
                if grant.klass in group:
                    in_use += 1
            headroom += max(0, reserved - in_use)
        return headroom

    # ------------------------------------------------------------------
    # Submit / release
    # ------------------------------------------------------------------
    def submit(self, owner: Any = None, klass: str = "default") -> SlotGrant:
        """Request a worker slot; returns a grant event to yield on.

        Raises :class:`QueueFull` if the admission queue is at capacity.
        """
        if (
            self.queue_capacity is not None
            and len(self._waiters) >= self.queue_capacity
        ):
            raise QueueFull(
                f"{self.name}: admission queue full "
                f"({len(self._waiters)}/{self.queue_capacity})"
            )
        grant = SlotGrant(self.env, self, owner)
        grant.klass = klass
        waiters = self._waiters
        if not (waiters or self._reservations or self._traced):
            # Nobody is ahead of this grant and nothing reshapes the
            # order: take a free slot now (zero wait, nothing to add to
            # total_wait_time) or become the queue's head -- what
            # append + _dispatch would do, without the loop.
            if len(self._running) < self.workers:
                self._running.append(grant)
                grant._mark_granted()
            else:
                waiters.append(grant)
            return grant
        waiters.append(grant)
        if self._traced:
            self._trace_wait_begin(grant, klass=klass)
            self._trace_depths(
                queued=len(self._waiters), active=len(self._running)
            )
        self._dispatch()
        return grant

    def handoff(
        self, grant: SlotGrant, callback: Callable[[Grant], None]
    ) -> Optional[SlotGrant]:
        """``grant.close()`` then a new grant for the same owner and
        class with ``callback`` on it, as ``submit`` would make -- but
        the one grant this starts is processed inline (its callbacks run
        here) instead of through a grant event.  That grant is the FIFO
        head, which takes the freed worker while the owner queues behind
        the rest; with nobody waiting, it is the new grant, and the owner
        keeps its worker.  Returns the new grant.

        It is for the CPU's private core pool, which is untraced, never
        reserved and unbounded, so it skips what ``submit`` and
        ``_dispatch`` do for those.  The bookkeeping is close + submit's:
        ``_running`` order, busy and wait totals, request and grant
        times.  The schedule is the same when the grant event would be
        the very next one popped, so the caller must be a callback doing
        nothing after this call, and the pool checks the rest: nothing
        is due at or before ``now`` (slices started at one instant end
        at one float time, and a grant popped later than that tie would
        order the next timers differently), and not over-committed after
        a shrink (with ``running <= workers``, a non-empty queue means
        every worker is busy, so exactly one is freed).  Otherwise it
        changes nothing and returns ``None``: close and submit as usual.
        """
        env = self.env
        now = env.now
        queue = env._queue
        running = self._running
        if (queue and queue[0][0] <= now) or len(running) > self.workers:
            return None
        hold = grant._closed_hold = now - grant.grant_time
        grant.closed = True
        running.remove(grant)
        self.total_busy_time += hold
        new = SlotGrant(env, self, grant.owner)
        new.klass = grant.klass
        new.callbacks.append(callback)
        waiters = self._waiters
        if waiters:
            start = waiters.popleft()
            running.append(start)
            self.total_wait_time += now - start.request_time
            waiters.append(new)
        else:
            running.append(new)
            start = new
        start._grant_inline()
        return new

    def _dispatch(self) -> None:
        """Start queued grants; FIFO, but reservations may let later grants
        of a reserved class jump over blocked unreserved ones."""
        if not self._reservations:
            # Pure FIFO fast path (the overwhelmingly common case): no
            # headroom math, no deque copy -- pop heads while slots and
            # waiters remain.  Grant order is identical to the general
            # loop below.
            waiters = self._waiters
            running = self._running
            now = self.env.now
            while waiters and len(running) < self.workers:
                grant = waiters.popleft()
                running.append(grant)
                self.total_wait_time += now - grant.request_time
                if self._traced:
                    self._trace_granted(grant, klass=grant.klass)
                    self._trace_depths(
                        queued=len(waiters), active=len(running)
                    )
                grant._mark_granted()
            return
        # Grant the first waiter that may run, then look again from the
        # head: each grant changes the headroom.  Whether a waiter may
        # run depends only on its class and the pool, so one look judges
        # each class once; with no idle worker nobody may run.
        waiters = self._waiters
        running = self._running
        while waiters and len(running) < self.workers:
            idle = self.workers - len(running)
            verdicts: Dict[str, bool] = {}
            for grant in waiters:
                runs = verdicts.get(grant.klass)
                if runs is None:
                    runs = verdicts[grant.klass] = (
                        idle > self._reserved_headroom(grant.klass)
                    )
                if runs:
                    break
            else:
                return
            waiters.remove(grant)
            running.append(grant)
            self.total_wait_time += self.env.now - grant.request_time
            if self._traced:
                self._trace_granted(grant, klass=grant.klass)
                self._trace_depths(queued=len(waiters), active=len(running))
            grant._mark_granted()

    def _close(self, grant: Grant) -> None:
        if grant.grant_time is not None:
            # Granted means running: a grant leaves ``_running`` only here.
            self._running.remove(grant)
            self.total_busy_time += grant._closed_hold
            if self._traced:
                self._trace_released(grant)
                self._trace_depths(
                    queued=len(self._waiters), active=len(self._running)
                )
            if self._waiters:
                self._dispatch()
            return
        try:
            self._waiters.remove(grant)  # type: ignore[arg-type]
        except ValueError:
            pass
        else:
            if self._traced:
                self._trace_abandoned(grant)
                self._trace_depths(
                    queued=len(self._waiters), active=len(self._running)
                )
