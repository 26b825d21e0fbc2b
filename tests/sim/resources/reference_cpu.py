"""Test-only reference for :class:`repro.sim.resources.CPU`.

This is the CPU as it stood before its slice loop was driven by
callbacks: ``execute`` is a generator that, for every slice, submits a
grant to the core pool, yields it, yields the slice's ``Timeout``, and
closes the grant.  Every slice therefore costs a grant event, and the
owner's process is resumed twice per slice.  It is slow and obviously
right, which is what a differential test wants (``test_cpu_reference.py``).

Two differences from the original: tracing is left out, and each slice
start is appended to :attr:`ReferenceCPU.starts` as ``(now, owner)``.
Like the CPU, it keeps one running total of the seconds charged, in
charge order, and ``execute`` returns the seconds it charged.
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.sim.events import Timeout
from repro.sim.resources.threadpool import ThreadPool


class ReferenceCPU:
    """Same ``execute`` / ``degrade`` / ``restore`` / introspection
    contract as :class:`repro.sim.resources.CPU`."""

    def __init__(self, env, name: str, cores: int, slice_time: float = 0.002):
        self.env = env
        self.name = name
        self.cores = cores
        self.nominal_cores = cores
        self.slice_time = slice_time
        self._pool = ThreadPool(env, f"{name}.cores", cores, traced=False)
        self.cpu_seconds = 0.0
        self.starts: List[Tuple[float, Any]] = []

    @property
    def run_queue_length(self) -> int:
        return self._pool.queue_length

    @property
    def busy_cores(self) -> int:
        return self._pool.active

    def owners(self) -> List[Any]:
        return self._pool.owners()

    def degrade(self, factor: float) -> None:
        self.cores = max(1, int(round(self.nominal_cores * factor)))
        self._pool.resize(self.cores)

    def restore(self) -> None:
        self.cores = self.nominal_cores
        self._pool.resize(self.cores)

    def execute(self, owner: Any, cpu_time: float):
        if cpu_time < 0:
            raise ValueError("cpu_time must be non-negative")
        env = self.env
        remaining = cpu_time
        charged = 0.0
        while remaining > 1e-12:
            chunk = min(self.slice_time, remaining)
            slot = self._pool.submit(owner)
            try:
                yield slot
                self.starts.append((env.now, owner))
                yield Timeout(env, chunk)
                self.cpu_seconds += chunk
                charged += chunk
            finally:
                slot.close()
            remaining -= chunk
        return charged
