"""Simulated PostgreSQL application model.

Models the application resources behind cases c6-c8:

* **MVCC table access** (LOCK, c6): a large write transaction accumulates
  dead tuples; concurrent readers pay a version-chain penalty that grows
  with the bloat.  Cancelling the writer stops the growth and rolls the
  bloat back.
* **WAL insert lock** (LOCK, c7): a background checkpoint/flush task holds
  the WAL lock for a duration proportional to the pending WAL backlog
  (group insertion); foreground commits convoy behind it.
* **system I/O** (IO, c8): a vacuum process issues bulk I/O that queues
  ahead of small foreground reads on a bounded-depth disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..core.progress import GetNextProgress
from ..core.task import CancellableTask
from ..core.types import ResourceType
from ..sim.resources import DiskIO, SyncLock
from .base import Application

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController
    from ..sim.environment import Environment
    from ..sim.rng import Rng


@dataclass
class PostgresConfig:
    """Sizing and service-time parameters (simulated seconds)."""

    tables: int = 4
    select_service: float = 0.004
    update_service: float = 0.005

    #: Penalty per dead tuple a reader must skip, seconds.
    dead_tuple_penalty: float = 5e-8
    #: Cap on the MVCC penalty per query, seconds.
    mvcc_penalty_cap: float = 0.08
    #: Rows a bulk writer processes per second.
    bulk_write_rate: float = 150_000.0
    #: Rows per bulk-write chunk.
    bulk_chunk_rows: float = 10_000.0

    #: WAL bytes per lightweight write.
    wal_bytes_per_write: float = 4e3
    #: WAL bytes per bulk-written row.
    wal_bytes_per_bulk_row: float = 400.0
    #: WAL flush bandwidth, bytes/second.
    wal_flush_bandwidth: float = 40e6
    #: Base WAL flush duration, seconds.
    wal_flush_base: float = 0.01
    #: WAL append latch hold, seconds.
    wal_append_service: float = 0.0002

    #: Disk parameters (case c8).
    disk_bandwidth: float = 100e6
    disk_op_latency: float = 0.0002
    disk_queue_depth: int = 4
    #: Bytes read by a small foreground query that goes to disk.
    read_io_bytes: float = 16e3
    #: Fraction of selects that need disk I/O.
    read_io_fraction: float = 0.3
    #: Bytes the vacuum reads+writes per chunk.
    vacuum_chunk_bytes: float = 4e6
    #: Total bytes a vacuum pass processes.
    vacuum_total_bytes: float = 200e6


class PostgreSQL(Application):
    """The simulated PostgreSQL server."""

    name = "postgres"

    def __init__(
        self,
        env: "Environment",
        controller: "BaseController",
        rng: "Rng",
        config: Optional[PostgresConfig] = None,
    ) -> None:
        super().__init__(env, controller, rng)
        self.config = config or PostgresConfig()
        cfg = self.config

        self.table_locks = [
            SyncLock(env, f"postgres.table_lock.{i}") for i in range(cfg.tables)
        ]
        self.wal_lock = SyncLock(env, "postgres.wal_lock")
        self.disk = DiskIO(
            env,
            "postgres.disk",
            bandwidth_bytes_per_sec=cfg.disk_bandwidth,
            op_latency=cfg.disk_op_latency,
            queue_depth=cfg.disk_queue_depth,
        )

        self.r_table_lock = self.register_resource(
            "table_lock", ResourceType.LOCK, *self.table_locks
        )
        self.r_wal = self.register_resource(
            "wal", ResourceType.LOCK, self.wal_lock
        )
        self.r_io = self.register_resource(
            "system_io", ResourceType.IO, self.disk
        )

        #: Dead tuples per table (MVCC bloat, case c6).
        self.dead_tuples: Dict[int, float] = {i: 0.0 for i in range(cfg.tables)}
        #: Pending (unflushed) WAL bytes (case c7).
        self.wal_pending = 0.0

        self.register_handler("select", self.select)
        self.register_handler("update", self.update)
        self.register_handler("bulk_update", self.bulk_update)
        self.register_handler("wal_flush", self.wal_flush)
        self.register_handler("vacuum", self.vacuum)

    # ------------------------------------------------------------------
    # MVCC helpers
    # ------------------------------------------------------------------
    def _mvcc_penalty(self, table: int) -> float:
        penalty = self.dead_tuples[table] * self.config.dead_tuple_penalty
        return min(penalty, self.config.mvcc_penalty_cap)

    # ------------------------------------------------------------------
    # Foreground operations
    # ------------------------------------------------------------------
    def select(self, task: CancellableTask, table: int = 0):
        """Read query: version-chain penalty + occasional disk read."""
        cfg = self.config
        table = table % cfg.tables
        penalty = self._mvcc_penalty(table)
        if penalty > 0:
            # The reader is slowed by dead versions: attribute the delay
            # to the table resource the bloating writer is holding.
            self.trace_slow_by(task, self.r_table_lock, penalty)
        yield self.env.timeout(cfg.select_service + penalty)
        if self.rng.chance(cfg.read_io_fraction):
            yield from self._disk_io(task, cfg.read_io_bytes)
        yield from self.checkpoint(task)

    def update(self, task: CancellableTask, table: int = 0):
        """Write query: row update + WAL append."""
        cfg = self.config
        table = table % cfg.tables
        grant = yield from self.acquire_lock(
            task,
            self.table_locks[table],
            self.r_table_lock,
            exclusive=False,
        )
        try:
            penalty = self._mvcc_penalty(table)
            if penalty > 0:
                self.trace_slow_by(task, self.r_table_lock, penalty)
            yield self.env.timeout(cfg.update_service + penalty)
            yield from self._wal_append(task, cfg.wal_bytes_per_write)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_table_lock)

    # ------------------------------------------------------------------
    # Case c6: bulk writer bloating a table
    # ------------------------------------------------------------------
    def bulk_update(
        self, task: CancellableTask, table: int = 0, rows: float = 1e6
    ):
        """Large UPDATE: accumulates dead tuples readers must skip."""
        cfg = self.config
        table = table % cfg.tables
        progress = GetNextProgress(total_rows=rows)
        task.progress_model = progress
        grant = yield from self.acquire_lock(
            task,
            self.table_locks[table],
            self.r_table_lock,
            exclusive=False,
        )
        written = 0.0
        try:
            remaining = rows
            while remaining > 0:
                chunk = min(cfg.bulk_chunk_rows, remaining)
                yield self.env.timeout(chunk / cfg.bulk_write_rate)
                self.dead_tuples[table] += chunk
                written += chunk
                progress.advance(chunk)
                remaining -= chunk
                yield from self._wal_append(
                    task, chunk * cfg.wal_bytes_per_bulk_row
                )
                yield from self.checkpoint(task)
        except BaseException:
            # Rollback: the aborted transaction's versions are reclaimed.
            self.dead_tuples[table] = max(
                0.0, self.dead_tuples[table] - written
            )
            raise
        finally:
            self.release_lock(task, grant, self.r_table_lock)

    # ------------------------------------------------------------------
    # Case c7: WAL group insertion
    # ------------------------------------------------------------------
    def _wal_append(self, task: CancellableTask, nbytes: float):
        grant = yield from self.acquire_lock(
            task, self.wal_lock, self.r_wal, exclusive=False
        )
        try:
            self.wal_pending += nbytes
            yield self.env.timeout(self.config.wal_append_service)
        finally:
            self.release_lock(task, grant, self.r_wal)

    def wal_flush(self, task: CancellableTask):
        """Background flush: holds the WAL lock for backlog/bandwidth."""
        cfg = self.config
        grant = yield from self.acquire_lock(
            task, self.wal_lock, self.r_wal, exclusive=True
        )
        try:
            # Flush in chunks so cancellation checkpoints exist mid-flush.
            while self.wal_pending > 0:
                chunk = min(self.wal_pending, cfg.wal_flush_bandwidth * 0.05)
                yield self.env.timeout(
                    cfg.wal_flush_base + chunk / cfg.wal_flush_bandwidth
                )
                self.wal_pending -= chunk
                yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_wal)

    # ------------------------------------------------------------------
    # Case c8: vacuum I/O
    # ------------------------------------------------------------------
    def _disk_io(self, task: CancellableTask, nbytes: float):
        """One traced disk I/O (wait in device queue + transfer)."""
        slot = yield from self.acquire_slot(
            task, self.disk.queue, self.r_io, klass="io"
        )
        try:
            yield from self.disk.transfer(nbytes)
            self.trace_get(task, self.r_io, nbytes)
        finally:
            self.release_lock(task, slot, self.r_io)

    def vacuum(self, task: CancellableTask, total_bytes: Optional[float] = None):
        """Autovacuum pass: bulk I/O + dead-tuple reclamation."""
        cfg = self.config
        total = total_bytes if total_bytes is not None else cfg.vacuum_total_bytes
        progress = GetNextProgress(total_rows=total)
        task.progress_model = progress
        done = 0.0
        while done < total:
            chunk = min(cfg.vacuum_chunk_bytes, total - done)
            yield from self._disk_io(task, chunk)
            done += chunk
            progress.advance(chunk)
            # Vacuum reclaims bloat as it goes.
            share = chunk / total
            for table in self.dead_tuples:
                self.dead_tuples[table] = max(
                    0.0, self.dead_tuples[table] * (1.0 - share)
                )
            yield from self.checkpoint(task)
