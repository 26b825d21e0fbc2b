"""Simulated MongoDB application model.

Models the application resources behind the two MongoDB extension cases
(c17/c18, post-paper additions to the Table 2 registry):

* **document cache** (MEMORY, case c18): a document-granularity LRU
  buffer with page packing
  (:class:`~repro.sim.resources.docbuffer.DocumentBuffer`).  A bulk
  insert of tiny documents floods the cache; because a page of a
  small-document collection packs dozens of documents, every page a
  victim re-faults must evict dozens of documents -- small documents
  make eviction slow, the failure mode the mongodb-d4 buffer analyzer
  documents.
* **collection locks** (LOCK, case c17): FIFO reader/writer locks, one
  per collection.  A *collection scan storm* takes the lock exclusively
  chunk by chunk -- release and re-acquire at every cursor batch -- so
  point reads convoy behind the storm's queued re-acquisitions.  The
  chunk-wise re-acquire is exactly the habitat where the
  lock-reshape lever (:mod:`repro.core.levers`) shines: parking the
  storm's queued grants lets readers overtake at chunk boundaries
  without losing the scans' work.
* **index latch** (LOCK): a shared latch writers briefly append under.

Handlers are instrumented with the ATROPOS tracing APIs at the same
sites as the other backends: document faults, eviction stalls, and
releases for the cache; grant/wait/release for the locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..core.progress import GetNextProgress
from ..core.task import CancellableTask
from ..core.types import ResourceType
from ..sim.resources import DocumentBuffer, SyncLock
from .base import Application, Operation

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController
    from ..sim.environment import Environment
    from ..sim.rng import Rng

#: Buffer owner token for the communal hot documents of point reads.
HOT_SET = "hot-set"

#: Collection holding the tiny documents the bulk-insert flood writes.
METRICS = "metrics"


@dataclass
class MongoDBConfig:
    """Sizing and service-time parameters (simulated seconds)."""

    collections: int = 4
    #: Cache page size; documents are packed into pages by size.
    page_size_bytes: int = 4096
    #: Document cache capacity in pages.
    buffer_pages: int = 1024
    #: User-collection document size (4 documents per 4 KiB page).
    doc_bytes: int = 1024
    #: Metrics-collection document size (64 documents per page): the
    #: small documents whose eviction is slow.
    small_doc_bytes: int = 64
    #: Hot documents per user collection point reads cycle over.
    hot_docs_per_collection: int = 800
    #: Documents one point read touches.
    docs_per_read: int = 3

    find_service: float = 0.004
    update_service: float = 0.005
    index_append_service: float = 0.0002
    #: Extra delay per document-cache miss (disk read), seconds.
    miss_penalty: float = 0.0015
    #: Delay per document unlinked during eviction (the packing-density
    #: cost: one page of metrics documents = 64 unlinks).
    evict_doc_cost: float = 0.0008
    #: Start with the hot documents resident (a warmed server).
    prewarm_hot_set: bool = True

    #: Documents a collection scan covers per second of lock hold.
    scan_rate_docs: float = 150_000.0
    #: Documents per scan cursor batch (lock released between batches).
    scan_chunk_docs: float = 600.0

    #: Documents a bulk insert writes per second.
    insert_rate_docs: float = 60_000.0
    #: Documents per bulk-insert batch (one checkpoint per batch).
    insert_batch_docs: float = 2_000.0


class MongoDB(Application):
    """The simulated MongoDB server."""

    name = "mongodb"

    def __init__(
        self,
        env: "Environment",
        controller: "BaseController",
        rng: "Rng",
        config: Optional[MongoDBConfig] = None,
    ) -> None:
        super().__init__(env, controller, rng)
        self.config = config or MongoDBConfig()
        cfg = self.config

        # --- internal resources (sim primitives) ---
        self.doc_cache = DocumentBuffer(
            env,
            "mongodb.doc_cache",
            capacity_pages=cfg.buffer_pages,
            page_size_bytes=cfg.page_size_bytes,
            evict_doc_cost=cfg.evict_doc_cost,
        )
        for i in range(cfg.collections):
            self.doc_cache.register_collection(
                self._collection(i), cfg.doc_bytes
            )
        self.doc_cache.register_collection(METRICS, cfg.small_doc_bytes)
        self.collection_locks: List[SyncLock] = [
            SyncLock(env, f"mongodb.collection_lock.{i}")
            for i in range(cfg.collections)
        ]
        self.index_latch = SyncLock(env, "mongodb.index_latch")

        # --- application resources registered with the controller ---
        self.r_doc_cache = self.register_resource(
            "doc_cache", ResourceType.MEMORY, self.doc_cache
        )
        self.r_collection_lock = self.register_resource(
            "collection_lock", ResourceType.LOCK, *self.collection_locks
        )
        self.r_index_lock = self.register_resource(
            "index_lock", ResourceType.LOCK, self.index_latch
        )

        #: Monotonic id source for flood-inserted metrics documents
        #: (unique keys: a flood never re-touches what it wrote).
        self._metrics_seq = 0

        if cfg.prewarm_hot_set:
            for i in range(cfg.collections):
                self.doc_cache.access(
                    HOT_SET,
                    self._collection(i),
                    range(cfg.hot_docs_per_collection),
                )

        # --- handler registration ---
        self.register_handler("find_one", self.find_one)
        self.register_handler("update_one", self.update_one)
        self.register_handler("collection_scan", self.collection_scan)
        self.register_handler("bulk_insert", self.bulk_insert)

    @staticmethod
    def _collection(i: int) -> str:
        return f"users.{i}"

    # ------------------------------------------------------------------
    # Document cache access for point operations
    # ------------------------------------------------------------------
    def _touch_hot_docs(self, task: CancellableTask, coll: int) -> float:
        """Read hot documents; returns the extra delay from misses.

        Misses re-fault documents into the communal hot set (evicting
        LRU documents -- under a flood, the flood's tiny documents, paid
        for at packing density).  Mirrors the instrumentation of the
        other backends: get on fault-in, slow-by on the eviction path.
        """
        cfg = self.config
        ids = [
            self.rng.randint(0, cfg.hot_docs_per_collection - 1)
            for _ in range(cfg.docs_per_read)
        ]
        outcome = self.doc_cache.access(HOT_SET, self._collection(coll), ids)
        if outcome.misses == 0:
            return 0.0
        self.trace_get(task, self.r_doc_cache, outcome.misses)
        # The hot set is communal: the read does not keep documents, so
        # the attribution nets out immediately.
        self.trace_free(task, self.r_doc_cache, outcome.misses)
        evict_delay = outcome.evicted_docs * cfg.evict_doc_cost
        delay = outcome.misses * cfg.miss_penalty + evict_delay
        # Re-fault delay is contention-induced: with a warm cache,
        # misses only happen because something evicted the hot set.
        if outcome.evicted_docs:
            self.trace_slow_by(
                task, self.r_doc_cache, delay, outcome.evicted_docs
            )
        return delay

    # ------------------------------------------------------------------
    # Lightweight operations
    # ------------------------------------------------------------------
    def find_one(self, task: CancellableTask, collection: int = 0):
        """Point read: shared collection lock + hot-document lookups."""
        cfg = self.config
        coll = collection % cfg.collections
        lock = self.collection_locks[coll]
        grant = yield from self.acquire_lock(
            task, lock, self.r_collection_lock, exclusive=False
        )
        try:
            delay = self._touch_hot_docs(task, coll)
            yield self.env.timeout(cfg.find_service + delay)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_collection_lock)

    def update_one(self, task: CancellableTask, collection: int = 0):
        """Point update: shared collection lock + index append."""
        cfg = self.config
        coll = collection % cfg.collections
        lock = self.collection_locks[coll]
        grant = yield from self.acquire_lock(
            task, lock, self.r_collection_lock, exclusive=False
        )
        try:
            delay = self._touch_hot_docs(task, coll)
            latch = yield from self.acquire_lock(
                task, self.index_latch, self.r_index_lock, exclusive=False
            )
            try:
                yield self.env.timeout(cfg.index_append_service)
            finally:
                self.release_lock(task, latch, self.r_index_lock)
            yield self.env.timeout(cfg.update_service + delay)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_collection_lock)

    # ------------------------------------------------------------------
    # Heavyweight operations (the culprits)
    # ------------------------------------------------------------------
    def collection_scan(
        self, task: CancellableTask, collection: int = 0, docs: float = 6e4
    ):
        """Aggregation scan (case c17): exclusive lock, chunk by chunk.

        Takes the collection lock exclusively for each cursor batch and
        *releases it between batches* -- so under a storm the lock queue
        fills with scan re-acquisitions that FIFO-convoy point reads.
        The chunk-wise re-acquire is what makes the storm parkable by
        the lock-reshape lever: a parked scan simply waits longer for
        its next batch, no work is lost.
        """
        cfg = self.config
        progress = GetNextProgress(total_rows=docs)
        task.progress_model = progress
        coll = collection % cfg.collections
        lock = self.collection_locks[coll]
        remaining = docs
        while remaining > 0:
            chunk = min(cfg.scan_chunk_docs, remaining)
            grant = yield from self.acquire_lock(
                task, lock, self.r_collection_lock, exclusive=True
            )
            try:
                yield self.env.timeout(chunk / cfg.scan_rate_docs)
            finally:
                self.release_lock(task, grant, self.r_collection_lock)
            progress.advance(chunk)
            remaining -= chunk
            yield from self.checkpoint(task)

    def bulk_insert(self, task: CancellableTask, docs: float = 3e5):
        """Bulk insert of tiny metrics documents (case c18).

        Streams small documents into the cache under the task's own
        owner key (cancelling the task frees them).  The flood evicts
        the hot set, and -- because evicting one page of metrics
        documents means evicting ``page_size // small_doc_bytes``
        documents -- every victim re-fault afterwards pays the
        small-document eviction walk.
        """
        cfg = self.config
        progress = GetNextProgress(total_rows=docs)
        task.progress_model = progress
        remaining = docs
        try:
            while remaining > 0:
                # At least one document a batch: a fractional tail (or
                # batch size) would otherwise insert none, and the loop
                # would spin at one simulated instant.
                batch = max(1, int(min(cfg.insert_batch_docs, remaining)))
                latch = yield from self.acquire_lock(
                    task, self.index_latch, self.r_index_lock, exclusive=False
                )
                try:
                    start = self._metrics_seq
                    self._metrics_seq += batch
                    outcome = self.doc_cache.access(
                        task, METRICS, range(start, start + batch)
                    )
                    self.trace_get(task, self.r_doc_cache, outcome.misses)
                    stall = outcome.evicted_docs * cfg.evict_doc_cost
                    if outcome.evicted_docs:
                        self.trace_slow_by(
                            task,
                            self.r_doc_cache,
                            stall,
                            outcome.evicted_docs,
                        )
                    yield self.env.timeout(
                        batch / cfg.insert_rate_docs + stall
                    )
                finally:
                    self.release_lock(task, latch, self.r_index_lock)
                progress.advance(batch)
                remaining -= batch
                yield from self.checkpoint(task)
        finally:
            released = self.doc_cache.release_owner(task)
            if released:
                self.trace_free(task, self.r_doc_cache, released)


def doc_mix(rng: "Rng", collections: int = 4, read_weight: float = 0.7):
    """YCSB-style point mix: find_one reads + update_one writes."""
    from ..workloads.spec import MixEntry

    def make_find():
        return Operation(
            "find_one", {"collection": rng.randint(0, collections - 1)}
        )

    def make_update():
        return Operation(
            "update_one", {"collection": rng.randint(0, collections - 1)}
        )

    return [
        MixEntry(factory=make_find, weight=read_weight),
        MixEntry(factory=make_update, weight=1.0 - read_weight),
    ]
