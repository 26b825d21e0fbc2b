"""Paged memory pool with LRU eviction.

Models application memory resources: the InnoDB buffer pool, Elasticsearch's
query cache and heap, Solr caches, ...  The model is aggregate: the pool
tracks how many pages each *owner* (a task, or a named shared working set)
has resident, and evicts from the least-recently-touched owners when a new
acquisition does not fit.

Contention shows up in two ways, matching the paper's case study:

* acquisitions that must evict are charged an eviction delay (the caller
  reports it via ``slow_by_resource``), and
* victims whose pages were evicted re-fault them later (lower hit ratio),
  inflating their service time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ...obs.tracer import owner_label
from .base import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment


@dataclass
class EvictionOutcome:
    """Result of a page acquisition."""

    #: Pages actually assigned to the requester (== requested).
    acquired: int
    #: Pages evicted from other owners to make room.
    evicted: int
    #: Pages taken from the free list (no eviction needed).
    from_free: int
    #: Owners whose pages were evicted, with counts.
    victims: Dict[Any, int]

    @property
    def eviction_ratio(self) -> float:
        return self.evicted / self.acquired if self.acquired else 0.0


class MemoryPool(Resource):
    """A fixed-capacity paged pool with per-owner LRU eviction.

    Traced events: an instant per acquisition that forced evictions
    (with the victim breakdown) and an occupancy/free-pages counter at
    every acquire/release.

    Fault-injection hooks: :meth:`degrade` shrinks
    :attr:`capacity_pages` mid-run (evicting overflow immediately, per
    the active eviction strategy); :meth:`restore` returns to nominal.
    """

    trace_cat = "mem"

    def __init__(
        self,
        env: "Environment",
        name: str,
        capacity_pages: int,
        evict_page_cost: float = 0.0001,
        eviction: str = "lru",
    ) -> None:
        """
        Args:
            capacity_pages: total pool size in pages.
            evict_page_cost: simulated seconds to evict one page (writeback
                plus replacement bookkeeping); callers multiply by the number
                of evictions to charge the acquiring task.
            eviction: victim selection among owners.  ``"lru"`` drains the
                least-recently-touched owner first; ``"proportional"``
                spreads evictions across owners by their resident share,
                approximating page-level LRU where a streaming scan evicts
                everyone's pages (buffer-pool thrashing).
        """
        super().__init__(env, name)
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        if eviction not in ("lru", "proportional"):
            raise ValueError(f"unknown eviction strategy {eviction!r}")
        self.capacity_pages = capacity_pages
        #: Nominal capacity; :meth:`degrade`/:meth:`restore` move
        #: :attr:`capacity_pages` relative to this.
        self.nominal_capacity_pages = capacity_pages
        self.evict_page_cost = evict_page_cost
        self.eviction = eviction
        #: owner -> resident page count, in LRU order (oldest first).
        self._resident: "OrderedDict[Any, int]" = OrderedDict()
        #: Running ``sum(self._resident.values())``, kept by ``acquire``,
        #: ``_take_from`` and ``release`` so occupancy reads do not grow
        #: with the number of owners.
        self._used = 0
        #: Cumulative counters for contention-level computation.
        self.total_acquired = 0
        self.total_evicted = 0
        self.total_released = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_pages(self) -> int:
        return self._used

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self._used

    def resident_pages(self, owner: Any) -> int:
        return self._resident.get(owner, 0)

    def owners(self) -> List[Any]:
        return list(self._resident.keys())

    def occupancy(self) -> float:
        return self._used / self.capacity_pages

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        return {
            "utilization": self.occupancy(),
            "capacity_pages": float(self.capacity_pages),
            "free_pages": float(self.free_pages),
            "acquired_pages_total": float(self.total_acquired),
            "evicted_pages_total": float(self.total_evicted),
            "released_pages_total": float(self.total_released),
        }

    # ------------------------------------------------------------------
    # Fault injection (capacity loss)
    # ------------------------------------------------------------------
    def set_capacity(self, capacity_pages: int) -> int:
        """Resize the pool (fault injection / elasticity); returns the
        number of pages evicted to fit the new capacity.

        Shrinking below current occupancy evicts the overflow
        immediately using the pool's eviction strategy (no owner is
        protected -- a hardware-level capacity loss does not honor
        pinning).
        """
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.capacity_pages = capacity_pages
        overflow = self._used - capacity_pages
        evicted = 0
        if overflow > 0:
            evicted = self._evict(overflow, requester=None, protected=())
            if self._traced:
                self._trace_depths(used=self.used_pages, free=self.free_pages)
        return evicted

    def degrade(self, factor: float) -> None:
        """Fault-injection hook: shrink to ``factor`` of nominal
        capacity (at least one page survives); see :meth:`set_capacity`."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.set_capacity(max(1, int(round(self.nominal_capacity_pages * factor))))

    def restore(self) -> None:
        """Return to nominal capacity (evicted pages re-fault lazily)."""
        self.set_capacity(self.nominal_capacity_pages)

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------
    def touch(self, owner: Any) -> None:
        """Refresh an owner's recency without changing its page count."""
        if owner in self._resident:
            self._resident.move_to_end(owner)

    def acquire(
        self, owner: Any, pages: int, protected: Tuple[Any, ...] = ()
    ) -> EvictionOutcome:
        """Assign ``pages`` pages to ``owner``, evicting LRU victims if needed.

        A single owner may acquire at most the pool capacity; a request
        larger than the pool is clamped (the overflow continuously churns,
        which callers model by acquiring in chunks).

        Args:
            protected: owners that must not be evicted (e.g. the requester's
                own pages, pinned system pages).
        """
        if pages < 0:
            raise ValueError("pages must be non-negative")
        pages = min(pages, self.capacity_pages)
        from_free = min(pages, self.capacity_pages - self._used)
        need_evict = pages - from_free

        victims: Dict[Any, int] = {}
        evicted = 0
        if need_evict > 0:
            evicted = self._evict(need_evict, requester=owner, protected=protected)
            # _evict records per-victim counts into its return; recompute here
            victims = self._last_victims
            # If the pool is too pinned to evict enough, clamp the grant.
            pages = from_free + evicted

        if pages > 0:
            self._resident[owner] = self._resident.get(owner, 0) + pages
            self._resident.move_to_end(owner)
            self._used += pages
        self.total_acquired += pages
        if self._traced:
            if evicted > 0:
                self._tracer.instant(
                    self.env.now,
                    "mem",
                    f"evict for {owner_label(owner)}",
                    self._track,
                    pages=pages,
                    evicted=evicted,
                    victims={
                        owner_label(victim): count
                        for victim, count in victims.items()
                    },
                )
            self._trace_depths(
                used=self.used_pages, free=self.free_pages
            )
        return EvictionOutcome(
            acquired=pages, evicted=evicted, from_free=from_free, victims=victims
        )

    def _evict(
        self, pages: int, requester: Any, protected: Tuple[Any, ...]
    ) -> int:
        """Evict up to ``pages`` pages per the strategy; returns count."""
        self._last_victims = {}
        blocked = set(protected)
        blocked.add(requester)
        if self.eviction == "proportional":
            evicted = self._evict_proportional(pages, blocked)
        else:
            evicted = self._evict_lru(pages, blocked)
        self.total_evicted += evicted
        return evicted

    def _take_from(self, victim: Any, take: int) -> None:
        have = self._resident[victim]
        if take >= have:
            del self._resident[victim]
        else:
            self._resident[victim] = have - take
        self._used -= take
        self._last_victims[victim] = self._last_victims.get(victim, 0) + take

    def _evict_lru(self, pages: int, blocked: set) -> int:
        evicted = 0
        # Iterate owners oldest-first; snapshot because we mutate.
        for victim in list(self._resident.keys()):
            if evicted >= pages:
                break
            if victim in blocked:
                continue
            take = min(self._resident[victim], pages - evicted)
            if take <= 0:
                continue
            self._take_from(victim, take)
            evicted += take
        return evicted

    def _evict_proportional(self, pages: int, blocked: set) -> int:
        """Spread evictions across victims by resident share."""
        evicted = 0
        while evicted < pages:
            victims = [
                (owner, have)
                for owner, have in self._resident.items()
                if owner not in blocked and have > 0
            ]
            if not victims:
                break
            pool = sum(have for _, have in victims)
            need = pages - evicted
            round_total = 0
            for owner, have in victims:
                share = max(1, int(round(need * have / pool)))
                take = min(have, share, pages - evicted - round_total)
                if take <= 0:
                    continue
                self._take_from(owner, take)
                round_total += take
            if round_total == 0:
                break
            evicted += round_total
        return evicted

    def release(self, owner: Any, pages: Optional[int] = None) -> int:
        """Release ``pages`` (default: all) of an owner's resident pages."""
        have = self._resident.get(owner, 0)
        if have == 0:
            return 0
        take = have if pages is None else min(pages, have)
        if take == have:
            del self._resident[owner]
        else:
            self._resident[owner] = have - take
        self._used -= take
        self.total_released += take
        if self._traced:
            self._trace_depths(used=self.used_pages, free=self.free_pages)
        return take

    def _close(self, grant: Any) -> None:  # pragma: no cover - unused
        raise NotImplementedError("MemoryPool uses acquire/release directly")
