"""Simulated etcd application model.

Models case c16: etcd's backend (bbolt) serializes writers behind its
key-space lock; a complex/long read transaction holds the read side so
long that write commits -- and everything FIFO-queued behind them --
convoy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.progress import GetNextProgress
from ..core.task import CancellableTask
from ..core.types import ResourceType
from ..sim.resources import SyncLock
from .base import Application

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController
    from ..sim.environment import Environment
    from ..sim.rng import Rng


@dataclass
class EtcdConfig:
    """Sizing and service-time parameters (simulated seconds)."""

    get_service: float = 0.002
    put_service: float = 0.004
    #: Default runtime of a complex range read (holds the kv read lock).
    range_read_service: float = 4.0
    step: float = 0.05


class Etcd(Application):
    """The simulated etcd server."""

    name = "etcd"

    def __init__(
        self,
        env: "Environment",
        controller: "BaseController",
        rng: "Rng",
        config: Optional[EtcdConfig] = None,
    ) -> None:
        super().__init__(env, controller, rng)
        self.config = config or EtcdConfig()

        self.kv_lock = SyncLock(env, "etcd.kv_lock")
        self.r_kv_lock = self.register_resource(
            "kv_lock", ResourceType.LOCK, self.kv_lock
        )

        self.register_handler("get", self.get)
        self.register_handler("put", self.put)
        self.register_handler("range_read", self.range_read)

    def get(self, task: CancellableTask):
        """Point read: brief shared kv-lock hold."""
        grant = yield from self.acquire_lock(
            task, self.kv_lock, self.r_kv_lock, exclusive=False
        )
        try:
            yield self.env.timeout(self.config.get_service)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_kv_lock)

    def put(self, task: CancellableTask):
        """Write: exclusive kv-lock commit."""
        grant = yield from self.acquire_lock(
            task, self.kv_lock, self.r_kv_lock, exclusive=True
        )
        try:
            yield self.env.timeout(self.config.put_service)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_kv_lock)

    def range_read(
        self, task: CancellableTask, duration: Optional[float] = None
    ):
        """Complex read transaction holding the kv read lock (c16)."""
        cfg = self.config
        runtime = duration if duration is not None else cfg.range_read_service
        progress = GetNextProgress(total_rows=max(1.0, runtime * 100))
        task.progress_model = progress
        grant = yield from self.acquire_lock(
            task, self.kv_lock, self.r_kv_lock, exclusive=False
        )
        try:
            elapsed = 0.0
            while elapsed < runtime:
                step = min(cfg.step, runtime - elapsed)
                yield self.env.timeout(step)
                elapsed += step
                progress.advance(step * 100)
                yield from self.checkpoint(task)
        finally:
            self.release_lock(task, grant, self.r_kv_lock)
