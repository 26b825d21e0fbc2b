"""Document-granularity LRU buffer with page packing.

Models a document store's cache (MongoDB's buffer) at *document*
granularity, the design the mongodb-d4 workload analyzer arrived at:
tracking one document per page is simple but wildly inaccurate for small
documents, while true document granularity means the buffer holds "way
too many documents", which slows down look-up and eviction.  This
primitive keeps both effects honest:

* **page packing** -- each collection declares its document size;
  ``docs_per_page = max(1, page_size // doc_bytes)`` documents share a
  page, and occupancy is accounted in pages
  (``ceil(resident / docs_per_page)`` per collection);
* **O(1) eviction** -- documents live on one intrusive doubly-linked
  LRU list (dict lookup + unlink), so touch, insert, and per-document
  evict are constant-time regardless of how many documents are
  resident; and
* **small documents make eviction slow anyway** -- freeing one page of
  a small-document collection requires unlinking ``docs_per_page``
  documents, so the per-*page* reclaim cost scales with packing density.
  Callers charge ``evicted_docs * evict_doc_cost`` to the faulting
  accessor, which is exactly the overload of the bulk-insert case: a
  flood of tiny documents turns every victim re-fault into a long walk.

Ownership is tracked per document for blame attribution: communal
working sets use a shared owner token, culprits insert under their own
task so cancellation can release everything they drove in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from ...obs.tracer import owner_label
from .base import Resource


class _DocNode:
    """Intrusive LRU-list node for one resident document."""

    __slots__ = ("key", "collection", "owner", "prev", "next")

    def __init__(
        self, key: Tuple[str, Hashable], collection: str, owner: Any
    ) -> None:
        self.key = key
        self.collection = collection
        self.owner = owner
        self.prev: Optional["_DocNode"] = None
        self.next: Optional["_DocNode"] = None


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
    #: Linked-list unlinks performed while evicting: exactly one per
    #: evicted document (the O(1)-per-doc eviction guarantee).
    unlink_ops: int = 0
    #: owner -> number of its documents evicted.
    victims: Dict[Any, int] = field(default_factory=dict)


class DocumentBuffer(Resource):
    """A fixed-capacity page-packed document cache with global LRU.

    Collections must be declared up front (:meth:`register_collection`)
    so the buffer knows each one's packing density.  :meth:`access`
    touches documents by ``(collection, doc_id)``: hits refresh recency,
    misses insert at the MRU end under the accessing owner and evict
    globally-LRU documents until occupancy fits.

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

        #: collection -> documents packed per page.
        self._docs_per_page: Dict[str, int] = {}
        #: collection -> resident document count.
        self._resident: Dict[str, int] = {}
        #: (collection, doc_id) -> node, for O(1) presence/touch.
        self._nodes: Dict[Tuple[str, Hashable], _DocNode] = {}
        #: owner -> {key: None} (insertion-ordered; deterministic).
        self._owner_docs: Dict[Any, Dict[Tuple[str, Hashable], None]] = {}
        #: Incrementally-maintained sum of per-collection page ceilings.
        self._pages_used = 0
        # LRU list sentinels: head.next is the eviction candidate.
        self._head = _DocNode(("", None), "", None)
        self._tail = _DocNode(("", None), "", None)
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
        if collection in self._docs_per_page:
            raise ValueError(f"collection {collection!r} already registered")
        dpp = max(1, self.page_size_bytes // doc_bytes)
        self._docs_per_page[collection] = dpp
        self._resident[collection] = 0
        return dpp

    def docs_per_page(self, collection: str) -> int:
        return self._docs_per_page[collection]

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
            return self._resident.get(collection, 0)
        return len(self._nodes)

    def owner_docs(self, owner: Any) -> int:
        return len(self._owner_docs.get(owner, ()))

    def owners(self) -> List[Any]:
        """Everyone with at least one resident document."""
        return list(self._owner_docs)

    def contains(self, collection: str, doc_id: Hashable) -> bool:
        return (collection, doc_id) in self._nodes

    def occupancy(self) -> float:
        return self._pages_used / self.capacity_pages

    def lru_keys(self) -> List[Tuple[str, Hashable]]:
        """Resident keys in eviction order (oldest first); O(n), tests."""
        keys = []
        node = self._head.next
        while node is not self._tail:
            keys.append(node.key)
            node = node.next
        return keys

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        return {
            "utilization": self.occupancy(),
            "capacity_pages": float(self.capacity_pages),
            "free_pages": float(self.free_pages),
            "resident_docs": float(len(self._nodes)),
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
        dpp = self._docs_per_page.get(collection)
        if dpp is None:
            raise KeyError(f"unregistered collection {collection!r}")
        outcome = DocAccessOutcome()
        # One loop, list surgery and page accounting inline: a flood
        # touches hundreds of thousands of documents a run, and a helper
        # call per step is most of what each one costs the host.
        nodes = self._nodes
        tail = self._tail
        resident = self._resident
        owner_docs = self._owner_docs
        owned = None
        hits = misses = 0
        for doc_id in doc_ids:
            key = (collection, doc_id)
            node = nodes.get(key)
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
            misses += 1
            node = _DocNode(key, collection, owner)
            nodes[key] = node
            last = tail.prev
            last.next = node
            node.prev = last
            node.next = tail
            tail.prev = node
            if owned is None:
                # Looked up once per call.  Eviction drops the tables it
                # empties, but never this one under us: it holds the key
                # just inserted, which sits at the MRU end and is never
                # its own access's victim (one document fits in any
                # capacity >= 1 once everything older is gone).
                owned = owner_docs.get(owner)
                if owned is None:
                    owned = owner_docs[owner] = {}
            owned[key] = None
            # A new document opens a page exactly when the previous
            # count filled its pages to the brim.
            count = resident[collection]
            resident[collection] = count + 1
            if count % dpp == 0:
                self._pages_used += 1
                if self._pages_used > self.capacity_pages:
                    self._evict_to_fit(outcome)
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
        if self._traced and (outcome.misses or outcome.evicted_docs):
            self._trace_depths(
                used=self._pages_used, free=self.free_pages
            )
        return outcome

    def release_owner(self, owner: Any) -> int:
        """Drop every document ``owner`` faulted in; returns the count.

        Work is proportional to the owner's resident documents (each is
        one dict delete plus one list unlink).
        """
        docs = self._owner_docs.pop(owner, None)
        if not docs:
            return 0
        nodes = self._nodes
        resident = self._resident
        docs_per_page = self._docs_per_page
        for key in docs:
            node = nodes.pop(key)
            before = node.prev
            after = node.next
            before.next = after
            after.prev = before
            node.prev = node.next = None
            collection = node.collection
            count = resident[collection] - 1
            resident[collection] = count
            if count % docs_per_page[collection] == 0:
                self._pages_used -= 1
        released = len(docs)
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
    # Internals
    # ------------------------------------------------------------------
    def _evict_to_fit(self, outcome: DocAccessOutcome) -> None:
        """Evict globally-LRU documents until the page budget fits.

        One walk from the LRU end: each victim is unlinked (its own
        pointers cleared -- one ``unlink_op`` per document) and the head
        sentinel is re-linked once, to the first survivor, at the end.
        """
        capacity = self.capacity_pages
        pages = self._pages_used
        head = self._head
        tail = self._tail
        nodes = self._nodes
        owner_docs = self._owner_docs
        resident = self._resident
        docs_per_page = self._docs_per_page
        victims = outcome.victims
        docs = freed = 0
        victim = head.next
        while pages > capacity and victim is not tail:
            survivor = victim.next
            key = victim.key
            del nodes[key]
            owner = victim.owner
            owned = owner_docs.get(owner)
            if owned is not None:
                owned.pop(key, None)
                if not owned:
                    del owner_docs[owner]
            collection = victim.collection
            count = resident[collection] - 1
            resident[collection] = count
            if count % docs_per_page[collection] == 0:
                pages -= 1
                freed += 1
            victims[owner] = victims.get(owner, 0) + 1
            docs += 1
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
