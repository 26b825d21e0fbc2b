"""Simulated Elasticsearch application model.

Models the application resources behind cases c10-c13:

* **query cache** (MEMORY, c10): filter results are cached; a large
  search floods the cache, evicting the hot entries every other search
  relies on.
* **heap** (MEMORY, c11): a nested aggregation allocates a huge fraction
  of the JVM heap; high occupancy triggers stop-the-world GC pauses that
  stall every in-flight request.
* **CPU** (CPU, c12): long-running analytical queries monopolize cores,
  queueing short searches behind their slices.
* **document lock** (LOCK, c13): a large update-by-query holds a shard's
  document lock, blocking reads and writes to the shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.progress import GetNextProgress
from ..core.task import CancellableTask
from ..core.types import ResourceType
from ..sim.resources import CPU, MemoryPool, SyncLock
from .base import Application

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController
    from ..sim.environment import Environment
    from ..sim.rng import Rng

#: Cache owner token for the hot filter entries of routine searches.
HOT_CACHE = "hot-filters"


@dataclass
class ElasticsearchConfig:
    """Sizing and service-time parameters (simulated seconds)."""

    cores: int = 8
    cpu_slice: float = 0.002
    #: CPU seconds for a routine search.
    search_cpu: float = 0.004
    #: Extra latency when the query cache misses.
    cache_miss_penalty: float = 0.012
    #: Query cache size in entries.
    query_cache_entries: int = 1024
    #: Entries the routine searches need resident for ~100% hits.
    hot_cache_entries: int = 900
    #: Entries a routine search touches.
    entries_per_search: int = 2

    #: Heap size in "blocks".
    heap_blocks: int = 2048
    #: Steady-state heap occupancy of routine traffic.
    baseline_heap_blocks: int = 600
    #: Heap occupancy fraction that triggers GC.
    gc_threshold: float = 0.85
    #: GC pause per occupied heap block, seconds.
    gc_pause_per_block: float = 0.0004
    #: GC check period, seconds.
    gc_period: float = 0.2

    #: Duration granularity for long-running queries.
    long_query_step: float = 0.05


class Elasticsearch(Application):
    """The simulated Elasticsearch node."""

    name = "elasticsearch"

    def __init__(
        self,
        env: "Environment",
        controller: "BaseController",
        rng: "Rng",
        config: Optional[ElasticsearchConfig] = None,
    ) -> None:
        super().__init__(env, controller, rng)
        self.config = config or ElasticsearchConfig()
        cfg = self.config

        self.cpu = CPU(env, "es.cpu", cores=cfg.cores, slice_time=cfg.cpu_slice)
        self.query_cache = MemoryPool(
            env,
            "es.query_cache",
            capacity_pages=cfg.query_cache_entries,
            eviction="proportional",
        )
        self.heap = MemoryPool(
            env,
            "es.heap",
            capacity_pages=cfg.heap_blocks,
            eviction="lru",
        )
        self.doc_lock = SyncLock(env, "es.doc_lock")

        self.r_query_cache = self.register_resource(
            "query_cache", ResourceType.MEMORY, self.query_cache
        )
        self.r_heap = self.register_resource(
            "heap", ResourceType.MEMORY, self.heap
        )
        self.r_cpu = self.register_resource("cpu", ResourceType.CPU, self.cpu)
        self.r_doc_lock = self.register_resource(
            "document_lock", ResourceType.LOCK, self.doc_lock
        )

        # Warm state: hot filters cached, baseline heap allocated.
        self.query_cache.acquire(HOT_CACHE, cfg.hot_cache_entries)
        self.heap.acquire("baseline", cfg.baseline_heap_blocks)

        #: Set while a stop-the-world GC pause is in progress.
        self._gc_until = 0.0
        self.gc_pauses = 0
        env.process(self._gc_loop())

        self.register_handler("search", self.search)
        self.register_handler("large_search", self.large_search)
        self.register_handler("nested_aggregation", self.nested_aggregation)
        self.register_handler("long_query", self.long_query)
        self.register_handler("update_by_query", self.update_by_query)
        self.register_handler("indexing", self.indexing)

    # ------------------------------------------------------------------
    # GC model (case c11)
    # ------------------------------------------------------------------
    def _gc_loop(self):
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.gc_period)
            if self.heap.occupancy() < cfg.gc_threshold:
                continue
            self.gc_pauses += 1
            # The pause is proportional to the heap in use, but proceeds
            # in slices: if the live set shrinks mid-collection (e.g. the
            # culprit aggregation was cancelled and freed its blocks), the
            # collection completes early.
            remaining = self.heap.used_pages * cfg.gc_pause_per_block
            while remaining > 1e-9:
                gc_slice = min(0.025, remaining)
                self._gc_until = self.env.now + gc_slice
                yield self.env.timeout(gc_slice)
                remaining -= gc_slice
                if self.heap.occupancy() < cfg.gc_threshold:
                    break
            self._gc_until = self.env.now

    def _gc_stall(self, task: CancellableTask):
        """Stop-the-world: requests stall until the current pause ends."""
        while self.env.now < self._gc_until:
            wait = self._gc_until - self.env.now
            # Trace before sleeping: the estimator must see the stall
            # while the pause is in progress, not after it resolves.
            self.trace_slow_by(task, self.r_heap, wait)
            yield self.env.timeout(wait)

    # ------------------------------------------------------------------
    # CPU helper (case c12)
    # ------------------------------------------------------------------
    def _burn_cpu(self, task: CancellableTask, cpu_time: float):
        """Execute on the shared CPU; trace usage and run-queue delay."""
        start = self.env.now
        yield from self.cpu.execute(task, cpu_time)
        elapsed = self.env.now - start
        self.trace_get(task, self.r_cpu, cpu_time)
        queue_wait = max(0.0, elapsed - cpu_time)
        if queue_wait > 1e-9:
            self.trace_slow_by(task, self.r_cpu, queue_wait)

    # ------------------------------------------------------------------
    # Query cache helper (case c10)
    # ------------------------------------------------------------------
    def _cache_access(self, task: CancellableTask) -> float:
        cfg = self.config
        resident = self.query_cache.resident_pages(HOT_CACHE)
        p_hit = min(1.0, resident / cfg.hot_cache_entries)
        misses = sum(
            1
            for _ in range(cfg.entries_per_search)
            if not self.rng.chance(p_hit)
        )
        self.query_cache.touch(HOT_CACHE)
        if misses == 0:
            return 0.0
        outcome = self.query_cache.acquire(HOT_CACHE, misses)
        self.trace_get(task, self.r_query_cache, misses)
        self.trace_free(task, self.r_query_cache, misses)
        delay = misses * cfg.cache_miss_penalty
        if outcome.evicted:
            self.trace_slow_by(task, self.r_query_cache, delay, outcome.evicted)
        return delay

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def search(self, task: CancellableTask):
        """Routine search: cache lookup + a little CPU."""
        yield from self._gc_stall(task)
        delay = self._cache_access(task)
        if delay > 0:
            yield self.env.timeout(delay)
        yield from self._burn_cpu(task, self.config.search_cpu)
        yield from self.checkpoint(task)

    def indexing(self, task: CancellableTask):
        """Document indexing: brief shared doc lock + CPU."""
        yield from self._gc_stall(task)
        grant = yield from self.acquire_lock(
            task, self.doc_lock, self.r_doc_lock, exclusive=False
        )
        try:
            yield from self._burn_cpu(task, self.config.search_cpu)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_doc_lock)

    def large_search(
        self,
        task: CancellableTask,
        entries: Optional[int] = None,
        chunk_service: float = 0.045,
    ):
        """Huge filter query flooding the query cache (case c10).

        Streams ~3x the cache capacity through it while scanning segments
        (``chunk_service`` seconds per chunk), keeping its entries pinned
        until the search completes -- the long-lived pollution behind the
        real incident.
        """
        cfg = self.config
        total = entries if entries is not None else cfg.query_cache_entries * 3
        progress = GetNextProgress(total_rows=total)
        task.progress_model = progress
        chunk = max(32, total // 100)
        filled = 0
        try:
            while filled < total:
                step = min(chunk, total - filled)
                outcome = self.query_cache.acquire(task, step)
                self.trace_get(task, self.r_query_cache, step)
                stall = 0.0
                if outcome.evicted:
                    stall = outcome.evicted * 0.0001
                    self.trace_slow_by(
                        task, self.r_query_cache, stall, outcome.evicted
                    )
                yield from self._burn_cpu(task, step * 0.0001)
                yield self.env.timeout(chunk_service + stall)
                filled += step
                progress.advance(step)
                yield from self.checkpoint(task)
        finally:
            released = self.query_cache.release(task)
            if released:
                self.trace_free(task, self.r_query_cache, released)

    def nested_aggregation(
        self,
        task: CancellableTask,
        blocks: Optional[int] = None,
        aggregate_time: float = 8.0,
    ):
        """Nested aggregation exhausting the heap (case c11).

        Two phases: allocate ``blocks`` heap blocks (driving occupancy over
        the GC threshold), then hold them for ``aggregate_time`` seconds of
        bucket merging.  Progress spans both phases so the future-gain
        estimate stays meaningful while the heap is held.
        """
        cfg = self.config
        total = blocks if blocks is not None else int(cfg.heap_blocks * 0.5)
        # Progress units: one per block plus one per merge step.
        merge_step = 0.05
        merge_steps = max(1, int(aggregate_time / merge_step))
        progress = GetNextProgress(total_rows=total + merge_steps)
        task.progress_model = progress
        chunk = max(16, total // 80)
        held = 0
        try:
            while held < total:
                yield from self._gc_stall(task)
                step = min(chunk, total - held)
                outcome = self.heap.acquire(
                    task, step, protected=("baseline",)
                )
                self.trace_get(task, self.r_heap, outcome.acquired)
                held += outcome.acquired
                if outcome.acquired < step:
                    # Allocation pressure: wait for GC to reclaim space.
                    yield self.env.timeout(cfg.gc_period)
                yield from self._burn_cpu(task, 0.002)
                progress.advance(step)
                yield from self.checkpoint(task)
            # Hold the allocation while merging buckets.
            for _ in range(merge_steps):
                yield self.env.timeout(merge_step)
                progress.advance(1)
                yield from self.checkpoint(task)
        finally:
            released = self.heap.release(task)
            if released:
                self.trace_free(task, self.r_heap, released)

    def long_query(self, task: CancellableTask, cpu_seconds: float = 3.0):
        """CPU-bound analytical query (case c12)."""
        cfg = self.config
        progress = GetNextProgress(total_rows=max(1.0, cpu_seconds * 100))
        task.progress_model = progress
        burned = 0.0
        while burned < cpu_seconds:
            step = min(cfg.long_query_step, cpu_seconds - burned)
            yield from self._burn_cpu(task, step)
            burned += step
            progress.advance(step * 100)
            yield from self.checkpoint(task)

    def update_by_query(
        self, task: CancellableTask, duration: float = 4.0
    ):
        """Large update holding the shard's document lock (case c13)."""
        progress = GetNextProgress(total_rows=max(1.0, duration * 100))
        task.progress_model = progress
        grant = yield from self.acquire_lock(
            task, self.doc_lock, self.r_doc_lock, exclusive=True
        )
        try:
            elapsed = 0.0
            step = 0.05
            while elapsed < duration:
                chunk = min(step, duration - elapsed)
                yield self.env.timeout(chunk)
                elapsed += chunk
                progress.advance(chunk * 100)
                yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_doc_lock)
