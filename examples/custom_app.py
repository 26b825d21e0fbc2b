#!/usr/bin/env python3
"""Integrating ATROPOS into your own application.

This example builds a small bespoke application -- a job server with one
worker pool and one shared index lock -- and walks through the full
integration surface from the paper's Figure 6:

* ``register_resource``      declare application resources and the sim
  objects behind them,
* ``create_cancel``/``free_cancel``   delimit cancellable tasks,
* ``set_cancel_action``      register a custom cancellation initiator,
* ``get/free/slow_by``       trace resource usage at the natural points
  (here via the ``acquire_lock``/``acquire_slot`` helpers).

Usage::

    python examples/custom_app.py
"""

from repro.apps.base import Application, Operation
from repro.core import Atropos, AtroposConfig, ResourceType
from repro.core.progress import GetNextProgress
from repro.core.task import default_initiator
from repro.experiments import run_simulation
from repro.sim.resources import SyncLock, ThreadPool
from repro.workloads import MixEntry, OpenLoopSource, ScheduledOp, Workload


class JobServer(Application):
    """A minimal application with two ATROPOS-traced resources."""

    name = "jobserver"

    def __init__(self, env, controller, rng):
        super().__init__(env, controller, rng)
        # Internal resources (simulation primitives).
        self.pool = ThreadPool(env, "jobserver.pool", workers=8)
        self.index_lock = SyncLock(env, "jobserver.index")
        # Declare them to the overload controller, handing over the sim
        # object(s) behind each handle: telemetry, fault injection and
        # the lock-reshape lever find them through app.resources().
        self.r_pool = self.register_resource(
            "worker_pool", ResourceType.QUEUE, self.pool
        )
        self.r_index = self.register_resource(
            "index_lock", ResourceType.LOCK, self.index_lock
        )
        self.register_handler("small_job", self.small_job)
        self.register_handler("reindex", self.reindex)

    def small_job(self, task):
        """A short job: worker slot + brief shared index access."""
        slot = yield from self.acquire_slot(task, self.pool, self.r_pool)
        try:
            grant = yield from self.acquire_lock(
                task, self.index_lock, self.r_index, exclusive=False
            )
            try:
                yield self.env.timeout(0.004)
            finally:
                self.release_lock(task, grant, self.r_index)
            yield from self.checkpoint(task)
        finally:
            self.release_lock(task, slot, self.r_pool)

    def reindex(self, task, units=400):
        """A long maintenance job holding the index lock exclusively."""
        progress = GetNextProgress(total_rows=units)
        task.progress_model = progress  # GetNext progress (§3.4)
        slot = yield from self.acquire_slot(task, self.pool, self.r_pool)
        try:
            grant = yield from self.acquire_lock(
                task, self.index_lock, self.r_index, exclusive=True
            )
            try:
                for _ in range(units):
                    yield self.env.timeout(0.02)
                    progress.advance(1)
                    yield from self.checkpoint(task)  # cancellation point
            finally:
                self.release_lock(task, grant, self.r_index)
        finally:
            self.release_lock(task, slot, self.r_pool)


def build_controller(env):
    controller = Atropos(env, AtroposConfig(slo_latency=0.02))

    # A custom cancellation initiator, like MySQL's sql_kill: log the
    # decision, then delegate to the default (interrupt at the task's
    # next checkpoint, where try/finally releases the lock and slot).
    def my_initiator(task, signal):
        print(
            f"  [initiator] t={task.env.now:.2f}s cancelling "
            f"{task.op_name!r} (reason: {signal.reason}, "
            f"resource: {signal.resource})"
        )
        default_initiator(task, signal)

    controller.set_cancel_action(my_initiator)
    return controller


def workload(app, rng):
    return Workload(
        [
            OpenLoopSource(
                rate=250.0,
                mix=[
                    MixEntry(
                        factory=lambda: Operation("small_job", {}),
                        weight=1.0,
                    )
                ],
            ),
            ScheduledOp(
                at=2.0,
                factory=lambda: Operation("reindex", {"units": 400}),
                client_id="maintenance",
            ),
        ]
    )


def main():
    print("Job server: 250 small jobs/s; a reindex grabs the index lock "
          "at t=2s\n")
    result = run_simulation(
        lambda env, c, rng: JobServer(env, c, rng),
        workload,
        controller_factory=build_controller,
        duration=10.0,
        warmup=1.0,
    )
    s = result.summary
    print(
        f"\nthroughput={s.throughput:.1f} req/s  "
        f"p99={s.p99_latency * 1000:.1f} ms  drop_rate={s.drop_rate:.4f}"
    )
    print(f"cancellations issued: {result.controller.cancels_issued}")


if __name__ == "__main__":
    main()
