"""Simulated Apache httpd application model.

Models case c9: the worker MPM has a fixed number of workers
(``MaxClients``); slow PHP scripts occupy workers for seconds while static
requests need milliseconds, so a handful of scripts exhausts the pool and
every request queues.

Apache's built-in cancellation cannot stop a PHP script mid-flight
(§5.2's "incomplete cancellation support"); the case builder marks
``php_script`` operations cancellable only when the thread-level
cancellation flag is enabled, mirroring the paper's opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.progress import GetNextProgress
from ..core.task import CancellableTask
from ..core.types import ResourceType
from ..sim.resources import ThreadPool
from .base import Application

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController
    from ..sim.environment import Environment
    from ..sim.rng import Rng


@dataclass
class ApacheConfig:
    """Sizing and service-time parameters (simulated seconds)."""

    #: Worker MPM size (MaxClients).
    max_clients: int = 16
    #: Accept queue bound; beyond it connections are refused (503).
    accept_queue: Optional[int] = 512
    static_service: float = 0.003
    #: Default PHP script runtime.
    php_service: float = 3.0
    #: Checkpoint granularity inside a script.
    php_step: float = 0.05


class Apache(Application):
    """The simulated Apache httpd server."""

    name = "apache"

    def __init__(
        self,
        env: "Environment",
        controller: "BaseController",
        rng: "Rng",
        config: Optional[ApacheConfig] = None,
    ) -> None:
        super().__init__(env, controller, rng)
        self.config = config or ApacheConfig()
        cfg = self.config

        self.workers = ThreadPool(
            env,
            "apache.workers",
            workers=cfg.max_clients,
            queue_capacity=cfg.accept_queue,
        )
        self.r_workers = self.register_resource(
            "worker_pool", ResourceType.QUEUE, self.workers
        )

        self.register_handler("static", self.static)
        self.register_handler("php_script", self.php_script)

    def static(self, task: CancellableTask):
        """Static file request: brief worker occupancy."""
        slot = yield from self.acquire_slot(
            task, self.workers, self.r_workers, klass="static"
        )
        try:
            yield self.env.timeout(self.config.static_service)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, slot, self.r_workers)

    def php_script(
        self, task: CancellableTask, duration: Optional[float] = None
    ):
        """Slow PHP request: occupies a worker for ``duration`` seconds.

        The script's writes go through Apache's write log; on cancellation
        the unflushed context is discarded, so thread-level cancellation
        stays consistent (§5.2).
        """
        cfg = self.config
        runtime = duration if duration is not None else cfg.php_service
        progress = GetNextProgress(total_rows=max(1.0, runtime * 100))
        task.progress_model = progress
        # Apache has no application-level initiator for a running script:
        # cancelling this task requires the opt-in thread-level flag
        # (pthread_cancel; §3.6 / §5.2).
        task.requires_thread_cancel = True
        slot = yield from self.acquire_slot(
            task, self.workers, self.r_workers, klass="php"
        )
        try:
            elapsed = 0.0
            while elapsed < runtime:
                step = min(cfg.php_step, runtime - elapsed)
                yield self.env.timeout(step)
                elapsed += step
                progress.advance(step * 100)
                yield from self.checkpoint(task)
        finally:
            self.release_lock(task, slot, self.r_workers)
