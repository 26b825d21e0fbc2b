"""Multi-core CPU with sliced round-robin sharing.

Service is approximated by chopping each task's CPU demand into short
slices and queueing the slices FCFS on a fixed number of cores.  Long
CPU-bound tasks therefore inflate everyone's latency through queueing --
the behaviour behind the paper's case 12 (Elasticsearch long-running
queries hogging CPU) -- while short tasks still interleave, like an OS
scheduler would let them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List

from ...obs.tracer import owner_label
from ..events import Event, Timeout
from .threadpool import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from ..environment import Environment


class CPU:
    """``cores`` cores shared via time slicing.

    Traced events: one async span per :meth:`execute` call (slice-level
    queueing is internal machinery and stays untraced) plus a run-queue
    depth counter sampled at execute boundaries.

    Fault-injection hooks: :meth:`degrade` offlines cores mid-run
    (slices already running finish; at least one core survives);
    :meth:`restore` brings them back.
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        cores: int,
        slice_time: float = 0.002,
    ) -> None:
        self.env = env
        self.name = name
        self.cores = cores
        #: Nominal core count; :meth:`degrade`/:meth:`restore` move
        #: :attr:`cores` relative to this.
        self.nominal_cores = cores
        self.slice_time = slice_time
        self._pool = ThreadPool(env, f"{name}.cores", cores, traced=False)
        self._tracer = env.tracer
        #: owner -> cumulative CPU seconds consumed.
        self.usage: Dict[Any, float] = {}

    @property
    def run_queue_length(self) -> int:
        """Slices waiting for a core right now."""
        return self._pool.queue_length

    @property
    def busy_cores(self) -> int:
        return self._pool.active

    def consumed(self, owner: Any) -> float:
        return self.usage.get(owner, 0.0)

    def owners(self) -> List[Any]:
        """Owners of the slices on a core or in the run queue."""
        return self._pool.owners()

    def telemetry_snapshot(self) -> dict:
        """Scrape-friendly state (see :mod:`repro.telemetry.scrape`)."""
        return {
            "utilization": self.busy_cores / self.cores
            if self.cores else 0.0,
            "queue_depth": float(self.run_queue_length),
            "cores": float(self.cores),
            "cpu_seconds_total": sum(self.usage.values()),
        }

    # ------------------------------------------------------------------
    # Fault injection (core loss)
    # ------------------------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Fault-injection hook: offline cores down to ``factor`` of
        nominal (at least one survives).  Slices already on a core run
        to completion; queued slices wait for the surviving cores."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        self.cores = max(1, int(round(self.nominal_cores * factor)))
        self._pool.resize(self.cores)

    def restore(self) -> None:
        """Bring offlined cores back; queued slices dispatch immediately."""
        self.cores = self.nominal_cores
        self._pool.resize(self.cores)

    def execute(self, owner: Any, cpu_time: float) -> Generator[Event, Any, None]:
        """Process generator: burn ``cpu_time`` seconds of CPU, time-sliced.

        Usage is charged slice by slice so an interrupt mid-way leaves the
        accounting consistent (the task pays for what it actually ran).
        """
        if cpu_time < 0:
            raise ValueError("cpu_time must be non-negative")
        tracer = self._tracer
        aid = None
        if tracer.enabled:
            track = f"cpu:{self.name}"
            aid = tracer.async_begin(
                self.env.now,
                "cpu",
                f"execute {owner_label(owner)}",
                track,
                cpu_time=cpu_time,
            )
            tracer.counter(
                self.env.now,
                self.name,
                track,
                run_queue=self.run_queue_length,
                busy=self.busy_cores,
            )
        done = 0.0
        env = self.env
        submit = self._pool.submit
        usage = self.usage
        try:
            remaining = cpu_time
            while remaining > 1e-12:
                chunk = min(self.slice_time, remaining)
                # try/finally, not ``with slot``: the slice loop is the
                # hottest resource path and the context manager costs two
                # extra calls a slice.
                slot = submit(owner)
                try:
                    yield slot
                    yield Timeout(env, chunk)
                    usage[owner] = usage.get(owner, 0.0) + chunk
                    done += chunk
                finally:
                    slot.close()
                remaining -= chunk
        finally:
            if aid is not None:
                tracer.async_end(
                    self.env.now,
                    "cpu",
                    f"execute {owner_label(owner)}",
                    f"cpu:{self.name}",
                    aid,
                    consumed=round(done, 9),
                )
