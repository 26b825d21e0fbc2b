"""Simulated MySQL/InnoDB application model.

Models the application resources behind the paper's MySQL cases:

* **buffer pool** (MEMORY, case c5 / Fig 2): a paged LRU cache shared by a
  hot working set and streaming scans/dumps; thrashing appears as eviction
  churn and hit-ratio collapse for lightweight queries.
* **table locks** (LOCK, cases c1/c4 / Fig 3): FIFO reader-writer locks;
  a backup query acquires write locks on *all* tables and then waits for
  in-flight scans to drain while holding them -- the "waiting for table
  flush" convoy of case c1.
* **undo log** (LOCK, case c3): a latch with shared appends; a queued
  exclusive purge behind a long transaction convoys all writers.
* **InnoDB admission queue** (QUEUE, case c2): the
  ``innodb_thread_concurrency`` limit; slow queries monopolize slots.

Handlers are instrumented with the ATROPOS tracing APIs exactly where the
paper instruments MySQL (Figure 8): page acquisition, eviction stalls,
and releases for the pool; grant/wait/release for locks and queue slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.progress import GetNextProgress
from ..core.task import CancellableTask
from ..core.types import ResourceType, TaskKind
from ..sim.resources import MemoryPool, SyncLock, ThreadPool
from .base import Application, Operation

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController
    from ..sim.environment import Environment
    from ..sim.rng import Rng

#: Pool owner token for the shared hot working set of lightweight queries.
HOT_SET = "hot-set"


@dataclass
class MySQLConfig:
    """Sizing and service-time parameters (simulated seconds)."""

    tables: int = 5
    #: Buffer pool capacity in pages ("512 MB" scaled down for simulation).
    buffer_pool_pages: int = 2048
    #: Total data size in pages ("2 GB": 4x the pool).
    data_pages: int = 8192
    #: Pages the lightweight working set needs resident for ~100% hits.
    hot_set_pages: int = 1800
    #: InnoDB concurrency limit (innodb_thread_concurrency).
    innodb_concurrency: int = 8
    #: Admission queue bound; None = unbounded.
    innodb_queue_capacity: Optional[int] = None

    point_select_service: float = 0.004
    row_update_service: float = 0.005
    #: Hot pages touched by one lightweight query.
    pages_per_light_op: int = 3
    #: Extra delay per buffer-pool miss (disk read), seconds.
    miss_penalty: float = 0.006
    #: Start with the hot working set resident (a warmed server).
    prewarm_hot_set: bool = True
    #: Delay per page evicted during an acquisition.
    evict_page_cost: float = 0.0002

    #: Rows a scan/dump processes per second.
    scan_rate_rows: float = 200_000.0
    #: Rows per scan chunk (one checkpoint per chunk).
    scan_chunk_rows: float = 20_000.0
    #: Rows per data page (maps rows scanned to pages acquired).
    rows_per_page: float = 120.0

    #: Undo-log latch hold per write, seconds.
    undo_append_service: float = 0.0002
    #: Purge latch hold, seconds.
    purge_service: float = 0.02

    #: Backup metadata work after locks are acquired, seconds.
    backup_metadata_service: float = 0.05


class MySQL(Application):
    """The simulated MySQL server."""

    name = "mysql"

    def __init__(
        self,
        env: "Environment",
        controller: "BaseController",
        rng: "Rng",
        config: Optional[MySQLConfig] = None,
    ) -> None:
        super().__init__(env, controller, rng)
        self.config = config or MySQLConfig()
        cfg = self.config

        # --- internal resources (sim primitives) ---
        self.buffer_pool = MemoryPool(
            env,
            "mysql.buffer_pool",
            capacity_pages=cfg.buffer_pool_pages,
            evict_page_cost=cfg.evict_page_cost,
            eviction="proportional",
        )
        self.table_locks: List[SyncLock] = [
            SyncLock(env, f"mysql.table_lock.{i}") for i in range(cfg.tables)
        ]
        self.undo_latch = SyncLock(env, "mysql.undo_latch")
        self.innodb_queue = ThreadPool(
            env,
            "mysql.innodb_queue",
            workers=cfg.innodb_concurrency,
            queue_capacity=cfg.innodb_queue_capacity,
        )

        # --- application resources registered with the controller ---
        self.r_buffer_pool = self.register_resource(
            "buffer_pool", ResourceType.MEMORY, self.buffer_pool
        )
        self.r_table_lock = self.register_resource(
            "table_lock", ResourceType.LOCK, *self.table_locks
        )
        self.r_undo_log = self.register_resource(
            "undo_log", ResourceType.LOCK, self.undo_latch
        )
        self.r_innodb_queue = self.register_resource(
            "innodb_queue", ResourceType.QUEUE, self.innodb_queue
        )

        #: Scan/dump processes currently in flight; the backup handler
        #: waits for these to drain while holding all table locks (c1).
        #: Insertion-ordered dict, not a set: events hash by identity, so
        #: set iteration order (the order backup waits on scans) would
        #: vary across interpreter processes and break run determinism.
        self._running_scans: Dict = {}

        if cfg.prewarm_hot_set:
            self.buffer_pool.acquire(HOT_SET, cfg.hot_set_pages)

        # --- handler registration ---
        self.register_handler("point_select", self.point_select)
        self.register_handler("row_update", self.row_update)
        self.register_handler("insert", self.insert)
        self.register_handler("scan", self.scan)
        self.register_handler("dump", self.dump)
        self.register_handler("backup", self.backup)
        self.register_handler("select_for_update", self.select_for_update)
        self.register_handler("long_transaction", self.long_transaction)
        self.register_handler("purge", self.purge)
        self.register_handler("slow_query", self.slow_query)
        self.register_handler("report_query", self.report_query)

    # ------------------------------------------------------------------
    # Buffer pool access for lightweight queries
    # ------------------------------------------------------------------
    def _hit_probability(self) -> float:
        resident = self.buffer_pool.resident_pages(HOT_SET)
        return min(1.0, resident / self.config.hot_set_pages)

    def _light_buffer_access(self, task: CancellableTask) -> float:
        """Touch hot pages; returns the extra delay from misses/evictions.

        Misses re-fault pages into the shared hot set (possibly evicting a
        scan's pages); each miss pays the disk penalty.  Mirrors the
        instrumentation of Figure 8: get on acquisition, slow-by on the
        eviction path.
        """
        cfg = self.config
        p_hit = self._hit_probability()
        misses = sum(
            1
            for _ in range(cfg.pages_per_light_op)
            if not self.rng.chance(p_hit)
        )
        self.buffer_pool.touch(HOT_SET)
        if misses == 0:
            return 0.0
        outcome = self.buffer_pool.acquire(HOT_SET, misses)
        self.trace_get(task, self.r_buffer_pool, misses)
        # The hot set is communal: the query does not keep pages, so the
        # attribution nets out immediately.
        self.trace_free(task, self.r_buffer_pool, misses)
        evict_delay = outcome.evicted * cfg.evict_page_cost
        delay = misses * cfg.miss_penalty + evict_delay
        # The whole refault delay (disk reads + eviction) is contention-
        # induced: with a warm pool, misses only happen because something
        # evicted the hot set.  This is the slow-by path of Figure 8.
        # Only refaults that themselves had to evict count as eviction
        # events (a miss served from the free list is not contention).
        if outcome.evicted:
            self.trace_slow_by(task, self.r_buffer_pool, delay, outcome.evicted)
        return delay

    # ------------------------------------------------------------------
    # Lightweight operations
    # ------------------------------------------------------------------
    def point_select(self, task: CancellableTask, table: int = 0):
        """Point SELECT: queue slot + hot-page reads."""
        slot = yield from self.acquire_slot(
            task, self.innodb_queue, self.r_innodb_queue, klass="light"
        )
        try:
            delay = self._light_buffer_access(task)
            yield self.env.timeout(self.config.point_select_service + delay)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, slot, self.r_innodb_queue)

    def row_update(self, task: CancellableTask, table: int = 0):
        """Row UPDATE: queue slot + shared table lock + undo append."""
        slot = yield from self.acquire_slot(
            task, self.innodb_queue, self.r_innodb_queue, klass="light"
        )
        try:
            lock = self.table_locks[table % self.config.tables]
            grant = yield from self.acquire_lock(
                task, lock, self.r_table_lock, exclusive=False
            )
            try:
                delay = self._light_buffer_access(task)
                yield from self._undo_append(task)
                yield self.env.timeout(self.config.row_update_service + delay)
                yield from self.checkpoint(task)
            finally:
                self.release_lock(task, grant, self.r_table_lock)
        finally:
            self.release_lock(task, slot, self.r_innodb_queue)

    def insert(self, task: CancellableTask, table: int = 0):
        """INSERT: same resource footprint as a row update."""
        yield from self.row_update(task, table=table)

    def _undo_append(self, task: CancellableTask):
        """Append to the undo log (shared latch, brief hold)."""
        grant = yield from self.acquire_lock(
            task, self.undo_latch, self.r_undo_log, exclusive=False
        )
        try:
            yield self.env.timeout(self.config.undo_append_service)
        finally:
            self.release_lock(task, grant, self.r_undo_log)

    # ------------------------------------------------------------------
    # Heavyweight operations (the culprits)
    # ------------------------------------------------------------------
    def _stream_pages(
        self,
        task: CancellableTask,
        rows: float,
        progress: GetNextProgress,
        hold_pages: bool = True,
    ):
        """Stream ``rows`` rows through the buffer pool in chunks.

        Acquires the pages backing each chunk under the task's own owner
        key (so cancelling the task frees them), pays eviction stalls,
        and advances the GetNext progress counter.
        """
        cfg = self.config
        remaining = rows
        while remaining > 0:
            chunk_rows = min(cfg.scan_chunk_rows, remaining)
            chunk_pages = max(1, int(chunk_rows / cfg.rows_per_page))
            outcome = self.buffer_pool.acquire(task, chunk_pages)
            self.trace_get(task, self.r_buffer_pool, chunk_pages)
            stall = 0.0
            if outcome.evicted:
                stall = outcome.evicted * cfg.evict_page_cost
                self.trace_slow_by(
                    task, self.r_buffer_pool, stall, outcome.evicted
                )
            yield self.env.timeout(chunk_rows / cfg.scan_rate_rows + stall)
            progress.advance(chunk_rows)
            remaining -= chunk_rows
            if not hold_pages:
                released = self.buffer_pool.release(task)
                if released:
                    self.trace_free(task, self.r_buffer_pool, released)
            yield from self.checkpoint(task)

    def _release_streamed_pages(self, task: CancellableTask) -> None:
        released = self.buffer_pool.release(task)
        if released:
            self.trace_free(task, self.r_buffer_pool, released)

    def scan(self, task: CancellableTask, table: int = 0, rows: float = 1e6):
        """Long table scan: heavy buffer streaming.

        Scans take no table lock (InnoDB reads are MVCC), but they hold the
        server's "old query" barrier: a concurrent FLUSH/backup must wait
        for them to drain (see :meth:`backup`).
        """
        progress = GetNextProgress(total_rows=rows)
        task.progress_model = progress
        done = self.env.event()
        self._running_scans[done] = None
        try:
            slot = yield from self.acquire_slot(
                task, self.innodb_queue, self.r_innodb_queue, klass="heavy"
            )
            try:
                yield from self._stream_pages(task, rows, progress)
            finally:
                self._release_streamed_pages(task)
                self.release_lock(task, slot, self.r_innodb_queue)
        finally:
            self._running_scans.pop(done, None)
            if not done.triggered:
                done.succeed()

    def dump(self, task: CancellableTask, rows: Optional[float] = None):
        """mysqldump-style query reading the entire dataset (case c5)."""
        cfg = self.config
        total_rows = rows if rows is not None else cfg.data_pages * cfg.rows_per_page
        progress = GetNextProgress(total_rows=total_rows)
        task.progress_model = progress
        slot = yield from self.acquire_slot(
            task, self.innodb_queue, self.r_innodb_queue, klass="heavy"
        )
        try:
            yield from self._stream_pages(task, total_rows, progress)
        finally:
            self._release_streamed_pages(task)
            self.release_lock(task, slot, self.r_innodb_queue)

    def backup(self, task: CancellableTask):
        """Backup query (case c1): write-lock all tables, wait for scans.

        The subtle interaction: FLUSH TABLES WITH READ LOCK acquires write
        locks table by table, then must wait for in-flight long scans to
        finish before the metadata snapshot -- holding every lock the whole
        time, which blocks all subsequent writers.
        """
        grants = []
        try:
            for lock in self.table_locks:
                grant = yield from self.acquire_lock(
                    task, lock, self.r_table_lock, exclusive=True
                )
                grants.append(grant)
            # Wait for running scans to drain while holding all locks.
            while self._running_scans:
                pending = next(iter(self._running_scans))
                yield pending
                yield from self.checkpoint(task)
            yield self.env.timeout(self.config.backup_metadata_service)
        finally:
            for grant in grants:
                self.release_lock(task, grant, self.r_table_lock)

    def select_for_update(
        self, task: CancellableTask, table: int = 0, rows: float = 2e5
    ):
        """SELECT ... FOR UPDATE (case c4): exclusive table lock held long."""
        progress = GetNextProgress(total_rows=rows)
        task.progress_model = progress
        lock = self.table_locks[table % self.config.tables]
        slot = yield from self.acquire_slot(
            task, self.innodb_queue, self.r_innodb_queue, klass="heavy"
        )
        try:
            grant = yield from self.acquire_lock(
                task, lock, self.r_table_lock, exclusive=True
            )
            try:
                yield from self._stream_pages(
                    task, rows, progress, hold_pages=False
                )
            finally:
                self.release_lock(task, grant, self.r_table_lock)
        finally:
            # hold_pages=False releases per chunk, but a cancellation
            # mid-chunk leaves the current chunk's pages behind.
            self._release_streamed_pages(task)
            self.release_lock(task, slot, self.r_innodb_queue)

    def long_transaction(self, task: CancellableTask, duration: float = 10.0):
        """Long open transaction pinning undo history (case c3).

        Holds the undo latch shared for its whole lifetime; a queued
        exclusive purge behind it convoys every undo append.
        """
        progress = GetNextProgress(total_rows=max(1.0, duration * 100))
        task.progress_model = progress
        grant = yield from self.acquire_lock(
            task, self.undo_latch, self.r_undo_log, exclusive=False
        )
        try:
            step = max(duration / 50.0, 0.01)
            elapsed = 0.0
            while elapsed < duration:
                yield self.env.timeout(step)
                elapsed += step
                progress.advance(step * 100)
                yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_undo_log)

    def purge(self, task: CancellableTask):
        """Background purge (case c3): exclusive undo latch, brief work."""
        grant = yield from self.acquire_lock(
            task, self.undo_latch, self.r_undo_log, exclusive=True
        )
        try:
            yield self.env.timeout(self.config.purge_service)
        finally:
            self.release_lock(task, grant, self.r_undo_log)

    def report_query(
        self,
        task: CancellableTask,
        pages: int = 800,
        duration: float = 5.0,
    ):
        """Reporting query pinning a working set for its whole runtime.

        Unlike a scan, it acquires its pages once up-front and then only
        computes -- so it coexists peacefully when the pool has headroom,
        but is a large *current* holder.  Used by the Fig 13 late-culprit
        scenario to separate current usage from future demand.
        """
        progress = GetNextProgress(total_rows=max(1.0, duration * 100))
        task.progress_model = progress
        outcome = self.buffer_pool.acquire(task, pages)
        self.trace_get(task, self.r_buffer_pool, outcome.acquired)
        try:
            if outcome.evicted:
                stall = outcome.evicted * self.config.evict_page_cost
                self.trace_slow_by(
                    task, self.r_buffer_pool, stall, outcome.evicted
                )
                yield self.env.timeout(stall)
            step = max(duration / 100.0, 0.01)
            elapsed = 0.0
            while elapsed < duration:
                yield self.env.timeout(step)
                elapsed += step
                progress.advance(step * 100)
                yield from self.checkpoint(task)
        finally:
            self._release_streamed_pages(task)

    def slow_query(self, task: CancellableTask, duration: float = 2.0):
        """Slow analytic query (case c2): holds an InnoDB slot for long."""
        progress = GetNextProgress(total_rows=max(1.0, duration * 100))
        task.progress_model = progress
        slot = yield from self.acquire_slot(
            task, self.innodb_queue, self.r_innodb_queue, klass="heavy"
        )
        try:
            step = max(duration / 40.0, 0.01)
            elapsed = 0.0
            while elapsed < duration:
                yield self.env.timeout(step)
                elapsed += step
                progress.advance(step * 100)
                yield from self.checkpoint(task)
        finally:
            self.release_lock(task, slot, self.r_innodb_queue)


def light_mix(rng: "Rng", tables: int = 5, select_weight: float = 0.7):
    """Sysbench-style lightweight mix: point selects + row updates."""
    from ..workloads.spec import MixEntry

    def make_select():
        return Operation("point_select", {"table": rng.randint(0, tables - 1)})

    def make_update():
        return Operation("row_update", {"table": rng.randint(0, tables - 1)})

    return [
        MixEntry(factory=make_select, weight=select_weight),
        MixEntry(factory=make_update, weight=1.0 - select_weight),
    ]
