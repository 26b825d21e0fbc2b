"""Shared/exclusive lock with FIFO queueing and wait-time accounting.

Models application synchronization resources: table locks, metadata locks,
undo-log latches, WAL insert locks, document locks, index locks, ...

Fault injection: a lock has no capacity to shrink, so it implements no
``degrade()`` hook (the base :class:`~repro.sim.resources.base.Resource`
default raises, and :mod:`repro.faults` records a ``degrade`` fault
targeting a lock as not-applied).  Lock *contention* faults are modelled
upstream instead -- workload bursts and resource degradation elsewhere
lengthen hold times and form convoys here.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from .base import Grant, Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment


class LockGrant(Grant):
    """Grant event for a :class:`SyncLock` acquisition."""

    #: ``exclusive`` is set by :meth:`SyncLock.acquire`, the only builder.
    __slots__ = ("exclusive",)


class SyncLock(Resource):
    """A reader/writer lock with strict FIFO ordering.

    Traced events (when the environment has a live tracer): a *wait*
    span per queued acquisition, a *hold* span per granted one, and a
    queue-depth/holders counter sampled at every state transition.

    FIFO ordering means a queued writer blocks readers that arrive after
    it -- this is what turns one long lock holder into a convoy, the exact
    dynamic behind the paper's case 1 (backup query) and case 4 (SELECT
    FOR UPDATE).

    Holders and waiters are :class:`LockGrant` events; release via
    ``grant.close()`` (or the context-manager protocol).

    **Passivation (Malthusian scheduling).**  A mitigation lever may park
    queued waiters off the dispatch path with :meth:`reshape_queue` --
    the Malthusian Locks idea (arXiv 1511.06035) of culling excess
    waiters so the survivors stop convoying -- and readmit them with
    :meth:`reactivate`.  Passivated grants keep their relative FIFO
    order among themselves, active waiters keep theirs, and a fully idle
    lock auto-readmits its parked grants -- one at a time, the next only
    once the previously promoted owner has finished, so a parked storm
    drains serially instead of re-forming its convoy -- and progress
    never depends on the lever calling back.  No work is lost: a parked
    grant is still a live acquisition, merely deprioritized.
    """

    trace_cat = "lock"

    def __init__(self, env: "Environment", name: str) -> None:
        super().__init__(env, name)
        self._holders: List[LockGrant] = []
        self._waiters: Deque[LockGrant] = deque()
        #: Waiters parked off the dispatch path by :meth:`reshape_queue`
        #: (FIFO among themselves; invisible to :meth:`_dispatch`).
        self._passivated: List[LockGrant] = []
        #: Cumulative wait time accounted on grants (for diagnostics).
        self.total_wait_time = 0.0
        self.total_hold_time = 0.0
        #: Lifetime count of waiters moved to the passive set.
        self.waiters_culled_total = 0
        #: Lifetime count of parked waiters readmitted to the queue.
        self.waiters_reactivated_total = 0
        #: Owner of the last idle-promoted grant; the next passive
        #: promotion waits until this owner is no longer ``alive``.
        self._promoted_owner: Any = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def holders(self) -> List[LockGrant]:
        return list(self._holders)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def passivated_count(self) -> int:
        return len(self._passivated)

    @property
    def passivated(self) -> List[LockGrant]:
        return list(self._passivated)

    @property
    def held_exclusive(self) -> bool:
        return any(g.exclusive for g in self._holders)

    def holder_owners(self) -> List[Any]:
        return [g.owner for g in self._holders]

    def owners(self) -> List[Any]:
        """Everyone this lock knows: holders, then waiters, then parked."""
        return [
            g.owner
            for g in (*self._holders, *self._waiters, *self._passivated)
        ]

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        return {
            "utilization": 1.0 if self._holders else 0.0,
            "queue_depth": float(len(self._waiters)),
            "holders": float(len(self._holders)),
            "wait_seconds_total": self.total_wait_time,
            "hold_seconds_total": self.total_hold_time,
            "waiters_parked": float(len(self._passivated)),
            "waiters_culled_total": float(self.waiters_culled_total),
            "waiters_reactivated_total": float(
                self.waiters_reactivated_total
            ),
        }

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def acquire(self, owner: Any = None, exclusive: bool = True) -> LockGrant:
        """Request the lock; returns a grant event to yield on."""
        grant = LockGrant(self.env, self, owner)
        grant.exclusive = exclusive
        self._waiters.append(grant)
        if self._traced:
            self._trace_wait_begin(grant, exclusive=exclusive)
            self._trace_depths(
                queued=len(self._waiters), holders=len(self._holders)
            )
        self._dispatch()
        return grant

    def _dispatch(self) -> None:
        """Grant as many head-of-queue waiters as compatibility allows."""
        waiters = self._waiters
        holders = self._holders
        while waiters:
            head = waiters[0]
            # A writer needs the lock free; a reader only needs no writer
            # holding it -- and a writer never shares, so if one holds
            # the lock it is holders[0].
            if holders and (head.exclusive or holders[0].exclusive):
                break
            waiters.popleft()
            holders.append(head)
            self.total_wait_time += self.env.now - head.request_time
            if self._traced:
                self._trace_granted(head, exclusive=head.exclusive)
                self._trace_depths(
                    queued=len(waiters), holders=len(holders)
                )
            head._mark_granted()
        # Progress guarantee: a fully idle lock readmits parked waiters
        # even if no lever ever calls reactivate() -- but one at a time
        # (the Malthusian "promote one passive waiter" rule), and only
        # after the previously promoted owner finished.  A chunk-wise
        # culprit briefly idles the lock between chunks; gating on the
        # owner's lifetime keeps the drain serial instead of letting a
        # new storm member through at every chunk boundary.  Owners
        # without an ``alive`` flag (non-task owners) never gate.
        if not self._holders and not self._waiters and self._passivated:
            if not getattr(self._promoted_owner, "alive", False):
                self._promoted_owner = self._passivated[0].owner
                self.reactivate(limit=1)

    # ------------------------------------------------------------------
    # Malthusian passivation (queue reshaping)
    # ------------------------------------------------------------------
    def reshape_queue(
        self, should_park: Callable[[LockGrant], bool]
    ) -> int:
        """Park queued waiters matching ``should_park`` off the hot path.

        Parked grants stop participating in FIFO dispatch until
        :meth:`reactivate` (or the idle auto-readmit) re-queues them.
        Active waiters keep their relative order, so fairness among the
        survivors is untouched.  Returns the number of waiters parked.
        """
        if not self._waiters:
            return 0
        survivors: Deque[LockGrant] = deque()
        parked = 0
        for grant in self._waiters:
            if should_park(grant):
                self._passivated.append(grant)
                parked += 1
            else:
                survivors.append(grant)
        if not parked:
            return 0
        self._waiters = survivors
        self.waiters_culled_total += parked
        if self._traced:
            self._trace_depths(
                queued=len(self._waiters), holders=len(self._holders)
            )
        # Parking a queued writer can unblock readers behind it.
        self._dispatch()
        return parked

    def reactivate(self, limit: Optional[int] = None) -> int:
        """Readmit parked grants at the tail of the active queue.

        Readmits up to ``limit`` grants (default: all) and returns the
        number readmitted.  Relative FIFO order within the passive set
        is preserved; readmitted grants queue behind every currently
        active waiter (they were culled for a reason -- they do not get
        their old positions back).
        """
        if not self._passivated:
            return 0
        readmitted = len(self._passivated)
        if limit is not None:
            readmitted = min(max(0, limit), readmitted)
            if readmitted == 0:
                return 0
        self._waiters.extend(self._passivated[:readmitted])
        del self._passivated[:readmitted]
        self.waiters_reactivated_total += readmitted
        if self._traced:
            self._trace_depths(
                queued=len(self._waiters), holders=len(self._holders)
            )
        self._dispatch()
        return readmitted

    def _close(self, grant: Grant) -> None:
        if grant.grant_time is not None:
            # Granted means holding: a grant leaves ``_holders`` only here.
            self._holders.remove(grant)
            self.total_hold_time += grant._closed_hold
            if self._traced:
                self._trace_released(grant)
                self._trace_depths(
                    queued=len(self._waiters), holders=len(self._holders)
                )
            self._dispatch()
            return
        # Pending waiter abandoning the queue (cancelled while waiting).
        try:
            self._waiters.remove(grant)  # type: ignore[arg-type]
        except ValueError:
            pass
        else:
            if self._traced:
                self._trace_abandoned(grant)
                self._trace_depths(
                    queued=len(self._waiters), holders=len(self._holders)
                )
            # Removing a queued writer can unblock readers behind it.
            self._dispatch()
            return
        # Parked waiter abandoning the passive set (cancelled while
        # passivated): drop it without perturbing the active queue.
        try:
            self._passivated.remove(grant)  # type: ignore[arg-type]
        except ValueError:
            pass
        else:
            if self._traced:
                self._trace_abandoned(grant)
