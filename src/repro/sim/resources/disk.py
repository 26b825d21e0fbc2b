"""Disk I/O device: FIFO service with per-op latency plus bandwidth.

Models system I/O contention (the paper's case 8: PostgreSQL vacuum
saturating the disk and slowing queries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List

from ...obs.tracer import owner_label
from ..events import Event, Timeout
from .threadpool import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment


class DiskIO:
    """A disk with fixed queue depth, per-op latency, and bandwidth.

    Traced events: one async span per I/O operation (device-queue slot
    management is internal and stays untraced) plus a queue-depth
    counter sampled at op boundaries.

    Fault-injection hooks: :meth:`degrade` divides bandwidth and
    multiplies per-op latency by ``1 / factor`` mid-run (a failing or
    throttled device); :meth:`restore` returns to nominal.  In-flight
    operations keep the service time computed at issue.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        bandwidth_bytes_per_sec: float = 200e6,
        op_latency: float = 0.0001,
        queue_depth: int = 8,
    ) -> None:
        if bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.name = name
        self.bandwidth = bandwidth_bytes_per_sec
        self.op_latency = op_latency
        #: Nominal device parameters; :meth:`degrade`/:meth:`restore`
        #: move :attr:`bandwidth` / :attr:`op_latency` relative to these.
        self.nominal_bandwidth = bandwidth_bytes_per_sec
        self.nominal_op_latency = op_latency
        self._pool = ThreadPool(env, f"{name}.queue", queue_depth, traced=False)
        self._tracer = env.tracer
        #: Bytes transferred so far.  Per-task bytes belong to the
        #: caller's ledger (``trace_get``): the device names an owner only
        #: while its operation is in flight or queued.
        self.total_bytes = 0.0

    @property
    def queue(self) -> ThreadPool:
        """The device queue (for callers that manage slots themselves)."""
        return self._pool

    @property
    def queue_length(self) -> int:
        return self._pool.queue_length

    @property
    def inflight(self) -> int:
        return self._pool.active

    def owners(self) -> List[Any]:
        """Owners of the operations in flight or in the device queue."""
        return self._pool.owners()

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        slots = self._pool.workers
        return {
            "utilization": self.inflight / slots if slots else 0.0,
            "queue_depth": float(self.queue_length),
            "bandwidth_bytes_per_sec": self.bandwidth,
            "bytes_total": self.total_bytes,
        }

    # ------------------------------------------------------------------
    # Fault injection (device slowdown)
    # ------------------------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Fault-injection hook: run at ``factor`` of nominal speed --
        bandwidth scales down by ``factor``, per-op latency up by
        ``1 / factor``.  Applies to operations issued from now on."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.bandwidth = self.nominal_bandwidth * factor
        self.op_latency = self.nominal_op_latency / factor

    def restore(self) -> None:
        """Return the device to nominal bandwidth and latency."""
        self.bandwidth = self.nominal_bandwidth
        self.op_latency = self.nominal_op_latency

    def transfer(self, nbytes: float) -> Generator[Event, Any, None]:
        """Process generator: move ``nbytes`` bytes on a device-queue slot
        the caller already holds (:attr:`queue`), then count them."""
        yield Timeout(self.env, self.op_latency + nbytes / self.bandwidth)
        self.total_bytes += nbytes

    def io(self, owner: Any, nbytes: float) -> Generator[Event, Any, None]:
        """Process generator: perform one I/O of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        tracer = self._tracer
        aid = None
        if tracer.enabled:
            track = f"disk:{self.name}"
            aid = tracer.async_begin(
                self.env.now,
                "disk",
                f"io {owner_label(owner)}",
                track,
                nbytes=nbytes,
            )
            tracer.counter(
                self.env.now,
                self.name,
                track,
                queued=self.queue_length,
                inflight=self.inflight,
            )
        try:
            slot = self._pool.submit(owner)
            try:
                yield slot
                yield from self.transfer(nbytes)
            finally:
                slot.close()
        finally:
            if aid is not None:
                tracer.async_end(
                    self.env.now,
                    "disk",
                    f"io {owner_label(owner)}",
                    f"disk:{self.name}",
                    aid,
                )

    # Aliases to keep call sites readable.
    read = io
    write = io
