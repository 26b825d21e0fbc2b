"""Simulated Apache Solr application model.

Models the application resources behind cases c14-c15:

* **index lock** (LOCK, c14): a complex boolean query with thousands of
  clauses holds the searcher's index lock long, delaying other queries.
* **searcher queue** (QUEUE, c15): nested range queries occupy the search
  executor's threads for seconds, starving routine queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.progress import GetNextProgress
from ..core.task import CancellableTask
from ..core.types import ResourceType
from ..sim.resources import SyncLock, ThreadPool
from .base import Application

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import BaseController
    from ..sim.environment import Environment
    from ..sim.rng import Rng


@dataclass
class SolrConfig:
    """Sizing and service-time parameters (simulated seconds)."""

    #: Search executor threads.
    searcher_threads: int = 12
    query_service: float = 0.005
    #: Brief shared index-lock hold for a routine query.
    index_read_service: float = 0.001
    #: Default runtime of a complex boolean query (holds the index lock).
    boolean_query_service: float = 4.0
    #: Default runtime of a nested range query (holds a searcher thread).
    range_query_service: float = 3.0
    step: float = 0.05


class Solr(Application):
    """The simulated Solr node."""

    name = "solr"

    def __init__(
        self,
        env: "Environment",
        controller: "BaseController",
        rng: "Rng",
        config: Optional[SolrConfig] = None,
    ) -> None:
        super().__init__(env, controller, rng)
        self.config = config or SolrConfig()
        cfg = self.config

        self.searchers = ThreadPool(
            env, "solr.searchers", workers=cfg.searcher_threads
        )
        self.index_lock = SyncLock(env, "solr.index_lock")

        self.r_queue = self.register_resource(
            "searcher_queue", ResourceType.QUEUE, self.searchers
        )
        self.r_index_lock = self.register_resource(
            "index_lock", ResourceType.LOCK, self.index_lock
        )

        self.register_handler("query", self.query)
        self.register_handler("boolean_query", self.boolean_query)
        self.register_handler("range_query", self.range_query)

    def query(self, task: CancellableTask):
        """Routine query: searcher thread + brief shared index access."""
        cfg = self.config
        slot = yield from self.acquire_slot(
            task, self.searchers, self.r_queue, klass="light"
        )
        try:
            grant = yield from self.acquire_lock(
                task, self.index_lock, self.r_index_lock, exclusive=False
            )
            try:
                yield self.env.timeout(cfg.index_read_service)
            finally:
                self.release_lock(task, grant, self.r_index_lock)
            yield self.env.timeout(cfg.query_service)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, slot, self.r_queue)

    def boolean_query(
        self, task: CancellableTask, duration: Optional[float] = None
    ):
        """Complex boolean query: long exclusive index-lock hold (c14)."""
        cfg = self.config
        runtime = (
            duration if duration is not None else cfg.boolean_query_service
        )
        progress = GetNextProgress(total_rows=max(1.0, runtime * 100))
        task.progress_model = progress
        slot = yield from self.acquire_slot(
            task, self.searchers, self.r_queue, klass="heavy"
        )
        try:
            grant = yield from self.acquire_lock(
                task, self.index_lock, self.r_index_lock, exclusive=True
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
                self.release_lock(task, grant, self.r_index_lock)
        finally:
            self.release_lock(task, slot, self.r_queue)

    def range_query(
        self, task: CancellableTask, duration: Optional[float] = None
    ):
        """Nested range query: long searcher-thread occupancy (c15)."""
        cfg = self.config
        runtime = duration if duration is not None else cfg.range_query_service
        progress = GetNextProgress(total_rows=max(1.0, runtime * 100))
        task.progress_model = progress
        slot = yield from self.acquire_slot(
            task, self.searchers, self.r_queue, klass="heavy"
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
            self.release_lock(task, slot, self.r_queue)
