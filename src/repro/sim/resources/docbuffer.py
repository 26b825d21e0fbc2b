"""Page-packed document LRU whose entries are runs of consecutive ids.

Models a document store's cache (MongoDB's buffer) at *document*
granularity, the design the mongodb-d4 workload analyzer arrived at:
tracking one document per page is simple but wildly inaccurate for small
documents, while true document granularity means the buffer holds "way
too many documents", which slows down look-up and eviction.  This
primitive keeps the simulated effects of document granularity without
paying for them on the host:

* **page packing** -- each collection declares its document size;
  ``docs_per_page = max(1, page_size // doc_bytes)`` documents share a
  page, and occupancy is accounted in pages
  (``ceil(resident / docs_per_page)`` per collection);
* **runs** -- an LRU entry is a *run*: consecutive integer ids of one
  collection and one owner, adjacent in LRU order.  A ``range`` access
  of absent ids appends one run at the MRU end (or extends the one
  there), so a flood of N documents costs per run, not per document.
  Eviction takes documents off the front run by arithmetic; when a
  flood evicts its own collection -- each insert opens a page, evicts
  one document and frees that page -- a whole stretch of inserts is one
  step.  A hit inside a run splits it, and releasing an owner frees
  whole runs;
* **singletons** -- documents faulted in one at a time (any iterable of
  ids other than a step-1 ``range``) are one entry each, found by one
  dict lookup, so random point traffic costs what it would with one
  node per document; and
* **small documents make eviction slow anyway** -- freeing one page of
  a small-document collection evicts ``docs_per_page`` documents, so the
  per-*page* reclaim cost scales with packing density.  Callers charge
  ``evicted_docs * evict_doc_cost`` to the faulting accessor, which is
  exactly the overload of the bulk-insert case: a flood of tiny
  documents turns every victim re-fault into a long walk.

Every outcome, the LRU order and the page accounting are those of a
buffer with one entry per document; the runs are invisible from outside
(``lru_entries`` counts them).

Ownership is tracked per entry for blame attribution: communal working
sets use a shared owner token, culprits insert under their own task so
cancellation can release everything they drove in.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from ...obs.tracer import owner_label
from .base import Resource

#: Sort key of a collection's run index.
_LO = attrgetter("lo")


class _Collection:
    """One collection's packing density, population and entry indexes."""

    __slots__ = ("name", "dpp", "resident", "singles", "runs")

    def __init__(self, name: str, dpp: int) -> None:
        self.name = name
        #: Documents packed per page.
        self.dpp = dpp
        #: Resident documents, singletons and runs together.
        self.resident = 0
        #: doc_id -> singleton entry.
        self.singles: Dict[Hashable, "_Doc"] = {}
        #: Runs sorted by first id (they never overlap).
        self.runs: List["_Run"] = []


class _Doc:
    """A singleton LRU entry: one document faulted in on its own."""

    __slots__ = ("doc_id", "coll", "owner", "prev", "next")

    is_run = False

    def __init__(self, doc_id: Hashable, coll: Any, owner: Any) -> None:
        self.doc_id = doc_id
        self.coll = coll
        self.owner = owner
        self.prev: Any = None
        self.next: Any = None


class _Run:
    """A run LRU entry: documents ``lo .. hi - 1``, oldest first."""

    __slots__ = ("lo", "hi", "coll", "owner", "prev", "next")

    is_run = True

    def __init__(self, lo: int, hi: int, coll: _Collection, owner: Any) -> None:
        self.lo = lo
        self.hi = hi
        self.coll = coll
        self.owner = owner
        self.prev: Any = None
        self.next: Any = None


@dataclass
class DocAccessOutcome:
    """Result of one :meth:`DocumentBuffer.access` call."""

    hits: int = 0
    misses: int = 0
    #: Documents evicted to make room (callers charge
    #: ``evicted_docs * evict_doc_cost`` as the reclaim stall).
    evicted_docs: int = 0
    #: Pages actually freed by those evictions.
    evicted_pages: int = 0
    #: Documents taken off the LRU list while evicting: exactly one per
    #: evicted document, however many entries held them.
    unlink_ops: int = 0
    #: owner -> number of its documents evicted.
    victims: Dict[Any, int] = field(default_factory=dict)


class DocumentBuffer(Resource):
    """A fixed-capacity page-packed document cache with global LRU.

    Collections must be declared up front (:meth:`register_collection`)
    so the buffer knows each one's packing density.  :meth:`access`
    touches documents by ``(collection, doc_id)``: hits refresh recency,
    misses insert at the MRU end under the accessing owner and evict
    globally-LRU documents until occupancy fits.  A step-1 ``range`` of
    ids takes the run path (one entry per stretch of absent ids); any
    other iterable takes the singleton path (one entry per miss).  Both
    give the outcome, order and occupancy of a per-document LRU.

    Fault-injection hooks: :meth:`degrade` shrinks
    :attr:`capacity_pages` mid-run (evicting overflow immediately);
    :meth:`restore` returns to nominal.
    """

    trace_cat = "mem"

    def __init__(
        self,
        env,
        name: str,
        capacity_pages: int,
        page_size_bytes: int = 4096,
        evict_doc_cost: float = 0.0002,
    ) -> None:
        super().__init__(env, name)
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        if page_size_bytes <= 0:
            raise ValueError("page_size_bytes must be positive")
        self.capacity_pages = capacity_pages
        #: Nominal capacity; :meth:`degrade`/:meth:`restore` move
        #: :attr:`capacity_pages` relative to this.
        self.nominal_capacity_pages = capacity_pages
        self.page_size_bytes = page_size_bytes
        #: Simulated seconds to unlink one document during eviction;
        #: callers multiply by ``evicted_docs`` (NOT pages -- that is
        #: the small-document slowdown).
        self.evict_doc_cost = evict_doc_cost

        self._collections: Dict[str, _Collection] = {}
        #: owner -> {entry: None} (insertion-ordered; deterministic).
        self._owner_entries: Dict[Any, Dict[Any, None]] = {}
        #: Incrementally-maintained sum of per-collection page ceilings.
        self._pages_used = 0
        # LRU list sentinels: head.next is the eviction candidate.
        self._head = _Doc(None, None, None)
        self._tail = _Doc(None, None, None)
        self._head.next = self._tail
        self._tail.prev = self._head

        # Lifetime counters (telemetry).
        self.total_hits = 0
        self.total_misses = 0
        self.total_evicted_docs = 0
        self.total_evicted_pages = 0
        self.total_released_docs = 0

    # ------------------------------------------------------------------
    # Collections
    # ------------------------------------------------------------------
    def register_collection(self, collection: str, doc_bytes: int) -> int:
        """Declare a collection's document size; returns docs-per-page."""
        if doc_bytes <= 0:
            raise ValueError("doc_bytes must be positive")
        if collection in self._collections:
            raise ValueError(f"collection {collection!r} already registered")
        dpp = max(1, self.page_size_bytes // doc_bytes)
        self._collections[collection] = _Collection(collection, dpp)
        return dpp

    def docs_per_page(self, collection: str) -> int:
        return self._collections[collection].dpp

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pages_used(self) -> int:
        return self._pages_used

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self._pages_used

    def resident_docs(self, collection: Optional[str] = None) -> int:
        if collection is not None:
            coll = self._collections.get(collection)
            return coll.resident if coll is not None else 0
        return sum(coll.resident for coll in self._collections.values())

    def owner_docs(self, owner: Any) -> int:
        return sum(
            entry.hi - entry.lo if entry.is_run else 1
            for entry in self._owner_entries.get(owner, ())
        )

    def owners(self) -> List[Any]:
        """Everyone with at least one resident document."""
        return list(self._owner_entries)

    def contains(self, collection: str, doc_id: Hashable) -> bool:
        coll = self._collections.get(collection)
        if coll is None:
            return False
        if doc_id in coll.singles:
            return True
        runs = coll.runs
        if not runs or type(doc_id) is not int:
            return False
        i = bisect_right(runs, doc_id, key=_LO)
        return i > 0 and doc_id < runs[i - 1].hi

    def occupancy(self) -> float:
        return self._pages_used / self.capacity_pages

    def lru_keys(self) -> List[Tuple[str, Hashable]]:
        """Resident keys in eviction order (oldest first); O(n), tests."""
        keys = []
        entry = self._head.next
        while entry is not self._tail:
            name = entry.coll.name
            if entry.is_run:
                keys.extend((name, i) for i in range(entry.lo, entry.hi))
            else:
                keys.append((name, entry.doc_id))
            entry = entry.next
        return keys

    def lru_entries(self) -> int:
        """LRU list entries (runs and singletons); O(entries), tests."""
        count = 0
        entry = self._head.next
        while entry is not self._tail:
            count += 1
            entry = entry.next
        return count

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        return {
            "utilization": self.occupancy(),
            "capacity_pages": float(self.capacity_pages),
            "free_pages": float(self.free_pages),
            "resident_docs": float(self.resident_docs()),
            "hits_total": float(self.total_hits),
            "misses_total": float(self.total_misses),
            "evicted_docs_total": float(self.total_evicted_docs),
            "evicted_pages_total": float(self.total_evicted_pages),
            "released_docs_total": float(self.total_released_docs),
        }

    # ------------------------------------------------------------------
    # Access / release
    # ------------------------------------------------------------------
    def access(
        self, owner: Any, collection: str, doc_ids: Iterable[Hashable]
    ) -> DocAccessOutcome:
        """Touch documents; misses fault in under ``owner`` and may evict.

        Hits move the document to the MRU end without changing its
        owner (a communal document stays communal).  Misses insert at
        the MRU end, then evict globally-LRU documents until the page
        budget fits again.
        """
        coll = self._collections.get(collection)
        if coll is None:
            raise KeyError(f"unregistered collection {collection!r}")
        outcome = DocAccessOutcome()
        if type(doc_ids) is range and doc_ids.step == 1:
            hits, misses = self._access_range(
                owner, coll, doc_ids.start, doc_ids.stop, outcome
            )
        else:
            hits, misses = self._access_each(owner, coll, doc_ids, outcome)
        outcome.hits = hits
        outcome.misses = misses
        self.total_hits += hits
        self.total_misses += misses
        if self._traced and outcome.evicted_docs:
            self._tracer.instant(
                self.env.now,
                "mem",
                f"evict for {owner_label(owner)}",
                self._track,
                evicted_docs=outcome.evicted_docs,
                evicted_pages=outcome.evicted_pages,
                victims={
                    owner_label(victim): count
                    for victim, count in outcome.victims.items()
                },
            )
        if self._traced and (misses or outcome.evicted_docs):
            self._trace_depths(
                used=self._pages_used, free=self.free_pages
            )
        return outcome

    def release_owner(self, owner: Any) -> int:
        """Drop every document ``owner`` faulted in; returns the count.

        Work is proportional to the owner's entries: a run goes in one
        step however many documents it holds.
        """
        entries = self._owner_entries.pop(owner, None)
        if not entries:
            return 0
        pages = self._pages_used
        released = 0
        for entry in entries:
            before = entry.prev
            after = entry.next
            before.next = after
            after.prev = before
            entry.prev = entry.next = None
            coll = entry.coll
            if entry.is_run:
                size = entry.hi - entry.lo
                runs = coll.runs
                del runs[bisect_left(runs, entry.lo, key=_LO)]
            else:
                size = 1
                del coll.singles[entry.doc_id]
            count = coll.resident
            left = count - size
            coll.resident = left
            dpp = coll.dpp
            pages -= (count + dpp - 1) // dpp - (left + dpp - 1) // dpp
            released += size
        self._pages_used = pages
        self.total_released_docs += released
        if self._traced:
            self._trace_depths(used=self._pages_used, free=self.free_pages)
        return released

    # ------------------------------------------------------------------
    # Fault injection (capacity loss)
    # ------------------------------------------------------------------
    def set_capacity(self, capacity_pages: int) -> int:
        """Resize the buffer; evicts overflow, returns docs evicted."""
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.capacity_pages = capacity_pages
        outcome = DocAccessOutcome()
        self._evict_to_fit(outcome)
        if self._traced and outcome.evicted_docs:
            self._trace_depths(used=self._pages_used, free=self.free_pages)
        return outcome.evicted_docs

    def degrade(self, factor: float) -> None:
        """Fault-injection hook: shrink to ``factor`` of nominal capacity."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.set_capacity(
            max(1, int(round(self.nominal_capacity_pages * factor)))
        )

    def restore(self) -> None:
        """Return to nominal capacity (evicted documents re-fault lazily)."""
        self.set_capacity(self.nominal_capacity_pages)

    # ------------------------------------------------------------------
    # Internals: the two access paths
    # ------------------------------------------------------------------
    def _access_each(
        self,
        owner: Any,
        coll: _Collection,
        doc_ids: Iterable[Hashable],
        outcome: DocAccessOutcome,
    ) -> Tuple[int, int]:
        """The singleton path: one lookup per id, one entry per miss.

        One loop, list surgery and page accounting inline: point reads
        touch hundreds of thousands of documents a run, and a helper
        call per step is most of what each one costs the host.
        """
        singles = coll.singles
        runs = coll.runs
        dpp = coll.dpp
        tail = self._tail
        owned = None
        hits = misses = 0
        for doc_id in doc_ids:
            node = singles.get(doc_id)
            if node is not None:
                hits += 1
                after = node.next
                if after is not tail:
                    # Unlink, then relink at the MRU end.
                    before = node.prev
                    before.next = after
                    after.prev = before
                    last = tail.prev
                    last.next = node
                    node.prev = last
                    node.next = tail
                    tail.prev = node
                continue
            if runs and type(doc_id) is int:
                i = bisect_right(runs, doc_id, key=_LO) - 1
                if i >= 0 and doc_id < runs[i].hi:
                    hits += 1
                    self._carve(runs[i], i, doc_id, doc_id + 1)
                    continue
            misses += 1
            node = _Doc(doc_id, coll, owner)
            singles[doc_id] = node
            last = tail.prev
            last.next = node
            node.prev = last
            node.next = tail
            tail.prev = node
            if owned is None:
                # Looked up once per call.  Eviction drops the tables it
                # empties, but never this one under us: it holds the
                # entry just inserted, which sits at the MRU end and is
                # never its own access's victim (one document fits in
                # any capacity >= 1 once everything older is gone).
                owned = self._owner_entries.get(owner)
                if owned is None:
                    owned = self._owner_entries[owner] = {}
            owned[node] = None
            # A new document opens a page exactly when the previous
            # count filled its pages to the brim.
            count = coll.resident
            coll.resident = count + 1
            if count % dpp == 0:
                self._pages_used += 1
                if self._pages_used > self.capacity_pages:
                    self._evict_to_fit(outcome)
        return hits, misses

    def _access_range(
        self,
        owner: Any,
        coll: _Collection,
        doc_id: int,
        stop: int,
        outcome: DocAccessOutcome,
    ) -> Tuple[int, int]:
        """The run path: ids ``doc_id .. stop - 1`` a stretch at a time.

        Each step takes the longest stretch from ``doc_id`` that is all
        in one run (hits: the stretch moves to the MRU end as one run),
        one resident singleton (a hit), or all absent (misses: appended
        as one run by :meth:`_append`).  Residency is looked up afresh
        at each stretch, since the evictions of the last one may have
        taken documents further along the range.
        """
        singles = coll.singles
        runs = coll.runs
        hits = misses = 0
        while doc_id < stop:
            end = stop
            if runs:
                i = bisect_right(runs, doc_id, key=_LO)
                if i and doc_id < runs[i - 1].hi:
                    run = runs[i - 1]
                    end = min(run.hi, stop)
                    hits += end - doc_id
                    self._carve(run, i - 1, doc_id, end)
                    doc_id = end
                    continue
                if i < len(runs) and runs[i].lo < end:
                    end = runs[i].lo
            if singles:
                node = singles.get(doc_id)
                if node is not None:
                    hits += 1
                    if node.next is not self._tail:
                        self._to_mru(node)
                    doc_id += 1
                    continue
                absent = doc_id + 1
                while absent < end and absent not in singles:
                    absent += 1
                end = absent
            misses += end - doc_id
            self._append(owner, coll, doc_id, end, outcome)
            doc_id = end
        return hits, misses

    def _append(
        self,
        owner: Any,
        coll: _Collection,
        doc_id: int,
        stop: int,
        outcome: DocAccessOutcome,
    ) -> None:
        """Fault in the absent ids ``doc_id .. stop - 1`` as one run.

        Evicts exactly where inserting them one at a time would: the
        documents that fit in the open page and the free pages go in at
        once; then each insert opens a page past capacity.  If the LRU
        front is a run of this collection, the next insert evicts its
        first document and frees the page it opened -- the steady state
        of a flood, done for a whole stretch of inserts in one step.  Any
        other front is evicted by :meth:`_evict_to_fit` after one insert.
        """
        run = self._tail.prev
        if not (
            run.is_run
            and run.hi == doc_id
            and run.coll is coll
            and run.owner == owner
        ):
            run = _Run(doc_id, doc_id, coll, owner)
            self._link_mru(run)
            runs = coll.runs
            runs.insert(bisect_left(runs, doc_id, key=_LO), run)
            self._owner_entries.setdefault(owner, {})[run] = None
        head = self._head
        dpp = coll.dpp
        left = stop - doc_id
        while left:
            count = coll.resident
            pages = self._pages_used
            room = -count % dpp + (self.capacity_pages - pages) * dpp
            if room > 0:
                n = min(left, room)
                run.hi += n
                coll.resident = count + n
                self._pages_used = (
                    pages + (count + n + dpp - 1) // dpp - (count + dpp - 1) // dpp
                )
                left -= n
                continue
            front = head.next
            if front.is_run and front.coll is coll and (
                front is run or front.hi - front.lo > 1
            ):
                # Another run keeps its last document for the general
                # path below, which takes the emptied entry off the list.
                n = left if front is run else min(left, front.hi - front.lo - 1)
                run.hi += n
                front.lo += n
                left -= n
                victims = outcome.victims
                victims[front.owner] = victims.get(front.owner, 0) + n
                outcome.evicted_docs += n
                outcome.unlink_ops += n
                outcome.evicted_pages += n
                self.total_evicted_docs += n
                self.total_evicted_pages += n
                continue
            run.hi += 1
            coll.resident = count + 1
            self._pages_used = pages + 1
            left -= 1
            self._evict_to_fit(outcome)

    # ------------------------------------------------------------------
    # Internals: entry surgery
    # ------------------------------------------------------------------
    def _carve(self, run: _Run, i: int, doc_id: int, end: int) -> None:
        """Hits on ``doc_id .. end - 1``, all inside ``run``
        (``coll.runs[i]``): they move to the MRU end together, in order,
        under the run's owner -- one document as a singleton, more as a
        run."""
        if end == run.hi and run.next is self._tail:
            return  # already the MRU documents
        if doc_id == run.lo and end == run.hi:
            self._to_mru(run)
            return
        self._cut(run, i, doc_id, end)
        coll = run.coll
        if end - doc_id == 1:
            piece = coll.singles[doc_id] = _Doc(doc_id, coll, run.owner)
        else:
            piece = _Run(doc_id, end, coll, run.owner)
            coll.runs.insert(bisect_left(coll.runs, doc_id, key=_LO), piece)
        self._owner_entries[run.owner][piece] = None
        self._link_mru(piece)

    def _cut(self, run: _Run, i: int, doc_id: int, end: int) -> None:
        """Take ``doc_id .. end - 1`` out of ``run`` (``coll.runs[i]``),
        a strict part of it; what is left keeps the run's LRU place, as
        one run or two."""
        hi = run.hi
        if doc_id == run.lo:
            run.lo = end
        elif end == hi:
            run.hi = doc_id
        else:
            run.hi = doc_id
            rest = _Run(end, hi, run.coll, run.owner)
            after = run.next
            run.next = rest
            rest.prev = run
            rest.next = after
            after.prev = rest
            run.coll.runs.insert(i + 1, rest)
            self._owner_entries[run.owner][rest] = None

    def _to_mru(self, entry: Any) -> None:
        before = entry.prev
        after = entry.next
        before.next = after
        after.prev = before
        self._link_mru(entry)

    def _link_mru(self, entry: Any) -> None:
        tail = self._tail
        last = tail.prev
        last.next = entry
        entry.prev = last
        entry.next = tail
        tail.prev = entry

    def _evict_to_fit(self, outcome: DocAccessOutcome) -> None:
        """Evict globally-LRU documents until the page budget fits.

        One walk from the LRU end.  A singleton goes whole; a run gives
        up the fewest documents off its front that free the pages still
        owed (by arithmetic on its collection's page ceiling), or goes
        whole if that is not enough.  The head sentinel is re-linked
        once, to the first survivor, at the end.
        """
        capacity = self.capacity_pages
        pages = self._pages_used
        head = self._head
        tail = self._tail
        owner_entries = self._owner_entries
        victims = outcome.victims
        docs = freed = 0
        victim = head.next
        while pages > capacity and victim is not tail:
            owner = victim.owner
            coll = victim.coll
            count = coll.resident
            dpp = coll.dpp
            if victim.is_run:
                size = victim.hi - victim.lo
                full = (count + dpp - 1) // dpp
                take = min(size, count - dpp * (full - (pages - capacity)))
                left = count - take
                gone = full - (left + dpp - 1) // dpp
                coll.resident = left
                pages -= gone
                freed += gone
                victims[owner] = victims.get(owner, 0) + take
                docs += take
                if take < size:
                    victim.lo += take
                    break
                runs = coll.runs
                del runs[bisect_left(runs, victim.lo, key=_LO)]
            else:
                del coll.singles[victim.doc_id]
                count -= 1
                coll.resident = count
                if count % dpp == 0:
                    pages -= 1
                    freed += 1
                victims[owner] = victims.get(owner, 0) + 1
                docs += 1
            owned = owner_entries[owner]
            del owned[victim]
            if not owned:
                del owner_entries[owner]
            survivor = victim.next
            victim.prev = victim.next = None
            victim = survivor
        head.next = victim
        victim.prev = head
        self._pages_used = pages
        outcome.evicted_docs += docs
        outcome.unlink_ops += docs
        outcome.evicted_pages += freed
        self.total_evicted_docs += docs
        self.total_evicted_pages += freed

    def _close(self, grant: Any) -> None:  # pragma: no cover - unused
        raise NotImplementedError("DocumentBuffer uses access/release_owner")
