"""The epoch runtime under the fleet (tier 3) and the mesh (tier 4).

Both tiers are one bi-level shape: independent per-node fast loops plus
one global slow loop that only talks at epoch boundaries.  What they
share lives here, once: :class:`EpochNode` (the single-node stack behind
``advance`` / ``finish``), :func:`run_epochs` (the one epoch loop, over
nodes placed in this process or in fork-started shard workers -- same
bytes either way, since a node's trajectory is a pure function of the
spec and the picklable boundary values) and :class:`EpochResult`.

The global loop is a *planner*: ``spec`` (``epoch_count()``,
``epoch_end(i)``, ``to_dict()`` / ``from_dict()``), ``node_names``,
``make_node(spec, index)``, and per epoch

* ``plan(epoch, t_end)`` -> ``{index: (inputs, directives)}`` for every
  node, from epoch-*start* state;
* ``fold(epoch, t_end, statuses)`` -- absorb the statuses (index order);
  what it decides reaches the nodes through the *next* ``plan``;

then ``summarize(reports)`` -> the tier's result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps.base import Operation
from ..apps.mysql import MySQL, MySQLConfig
from ..apps.postgres import PostgreSQL, PostgresConfig
from ..experiments.harness import ControllerFactory, assemble
from ..sim.environment import Environment
from ..sim.metrics import SummaryFold
from ..sim.rng import Rng
from ..workers import WorkerFailure, Workers, can_fork


def p99_text(seconds: float) -> str:
    """Operator-facing latency: milliseconds, or ``n/a`` for NaN."""
    return "n/a" if seconds != seconds else f"{seconds * 1000:.1f}ms"


class EpochResult:
    """Payload and digest of a tier's result dataclass."""

    #: Top-level float fields: NaN -> ``None``, else 9-digit rounding.
    _rounded: Tuple[str, ...] = ()
    #: The field holding the per-node ``finish()`` reports.
    _reports = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able deep copy; the result itself is left untouched."""
        out = asdict(self)
        for key in self._rounded:
            out[key] = None if out[key] != out[key] else round(out[key], 9)
        for report in out[self._reports]:
            for key in ("throughput", "p99_latency"):
                report[key] = round(report[key], 9)
        return out

    def digest(self) -> str:
        """Canonical content hash (parity / determinism tests)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


class EpochNode:
    """One app-node simulation, advanced epoch by epoch.

    The stack is :func:`repro.experiments.harness.assemble`'s, the one
    every run is built by; the node's application factory picks the
    backend and registers the tier's op aliases.  A node never touches
    another node's state mid-epoch, so the same ``advance`` calls
    produce the same bytes whether nodes share a process or are sharded
    across workers.  :meth:`finish` reports and then closes the node's
    environment, so a finished node is freed by reference counting.

    A node keeps one epoch of request records, not the whole run: each
    ``advance`` takes its epoch's records out of the collector
    (:meth:`~repro.sim.metrics.MetricsCollector.take`), hands them to
    the status hook and folds them into the end-of-run summary
    (:class:`~repro.sim.metrics.SummaryFold`, warm-up cutoff applied as
    they arrive), so its memory does not grow with the run's length.

    Subclasses supply ``_deliver(directives)``, ``_submit(inputs)``,
    ``_status(window, **common)`` and ``_report_extra()``; every
    byte-sensitive ordering lives in those hooks.
    """

    #: Report key naming the node (``"node"`` / ``"service"``).
    kind = "node"

    def __init__(
        self,
        spec,
        name: str,
        backend: str,
        index: int,
        *,
        rng_label: str,
        make_controller: ControllerFactory,
        start: bool,
        measured: float,
    ) -> None:
        self.spec = spec
        self.name = name
        self.backend = backend
        self.index = index
        #: Seconds the final report's throughput is taken over.
        self.measured = measured
        self.env = env = Environment()
        rng = Rng(spec.seed).fork(rng_label)
        driver = assemble(env, rng, self._build_app, make_controller)
        self.driver, self.collector = driver, driver.collector
        self.controller, self.app = driver.controller, driver.app
        if start:
            self.controller.start()
        #: The end-of-run summary's inputs, one epoch folded at a time.
        self._fold = SummaryFold(spec.warmup)
        # Window cursor for the offered-count diff.
        self._offered_last = 0

    def _build_app(self, env: Environment, controller, rng: Rng):
        """The node's :data:`~repro.experiments.harness.AppFactory`:
        the backend's application with the tier's op aliases."""
        spec = self.spec
        if self.backend == "mysql":
            app = MySQL(env, controller, rng, MySQLConfig(
                tables=spec.tables,
                pages_per_light_op=spec.mysql_pages_per_light_op,
                miss_penalty=spec.mysql_miss_penalty,
            ))
        else:
            app = PostgreSQL(
                env, controller, rng, PostgresConfig(tables=spec.tables)
            )
        for op, handler in self._alias_ops().items():
            app.register_handler(op, handler)
        return app

    def _alias_ops(self) -> Dict[str, Callable]:
        """Tier-level op names over the backend's native handlers, so
        request records, candidate evidence and cancel signals carry
        the names the global loop aggregates by.  Each alias is an
        app-first handler (see
        :meth:`~repro.apps.base.Application.register_handler`) that
        returns the native generator itself (no pass-through level: see
        :meth:`~repro.apps.base.Application.execute`)."""
        if self.backend == "mysql":

            def scan(app, task, rows=0.0):
                return app.scan(task, table=0, rows=rows)

            return {"point": MySQL.point_select, "write": MySQL.row_update,
                    "scan": scan}
        bytes_per_row = self.spec.pg_bytes_per_row

        def scan(app, task, rows=0.0):
            return app.vacuum(task, total_bytes=rows * bytes_per_row)

        return {"point": PostgreSQL.select, "write": PostgreSQL.update,
                "scan": scan}

    @staticmethod
    def _make_op(op: str, params: Dict[str, Any]):
        return lambda: Operation(op, dict(params))

    def advance(
        self, epoch: int, t_end: float, inputs: List, directives: List
    ):
        """Run this node's environment to ``t_end`` and snapshot it.

        The epoch's records leave the collector here: the status hook
        reads them and the summary fold keeps what the final report
        needs, so no record outlives its epoch.
        """
        self._deliver(directives)
        self._submit(inputs)
        self.env.run(until=t_end)
        window = self.collector.take()
        self._fold.add(window)
        offered_total = self.collector.offered
        offered_window = offered_total - self._offered_last
        self._offered_last = offered_total
        return self._status(
            window,
            backend=self.backend,
            epoch=epoch,
            t=t_end,
            offered_window=offered_window,
        )

    def finish(self) -> Dict[str, Any]:
        """End-of-run report (picklable), read from the summary fold
        -- the same arithmetic as
        :meth:`~repro.sim.metrics.Summary.from_collector` over the
        warm-up-trimmed records; then the node's environment is closed
        (:meth:`~repro.sim.environment.Environment.close`), which
        finalizes its in-flight work once."""
        summary = self._fold.summary(self.measured)
        report = {
            self.kind: self.name,
            "backend": self.backend,
            "throughput": summary.throughput,
            "p99_latency": summary.p99_latency,
            "completed": summary.completed,
            "cancelled": summary.cancelled,
            "dropped": summary.dropped,
            **self._report_extra(),
        }
        self.env.close()
        return report


# ----------------------------------------------------------------------
# Node placement: in-process or sharded
# ----------------------------------------------------------------------

class LocalRun:
    """A planner with all its nodes built in this process (serial path)."""

    def __init__(self, planner) -> None:
        self.planner = planner
        self.nodes = [
            planner.make_node(planner.spec, index)
            for index in range(len(planner.node_names))
        ]

    def run(self):
        return _epoch_loop(self.planner, self)

    def advance(self, epoch, t_end, plan):
        return [
            node.advance(epoch, t_end, *plan[node.index])
            for node in self.nodes
        ]

    def finish(self):
        return [node.finish() for node in self.nodes]


class ShardError(RuntimeError):
    """A shard worker raised, or died without replying."""

    def __init__(
        self, shard: int, nodes: List[str], epoch: Optional[int], detail: str
    ) -> None:
        self.shard = shard
        self.nodes = nodes
        self.epoch = epoch
        when = "finish" if epoch is None else f"epoch {epoch}"
        super().__init__(
            f"shard {shard} (nodes {', '.join(nodes)}) failed at {when}: "
            f"{detail}"
        )


def _shard_server(shard, planner, spec_dict, assignments):  # pragma: no cover
    """Shard process: owns a subset of the planner's nodes, rebuilt from
    the spec's dict form as a worker that could not inherit the parent's
    memory would have to; serves ``advance`` and ``finish`` rounds."""
    spec = type(planner.spec).from_dict(spec_dict)
    nodes = [planner.make_node(spec, index) for index in assignments[shard]]

    def serve(message):
        epoch, t_end, plan = message
        reply = {}
        for node in nodes:
            try:
                reply[node.index] = (
                    node.finish() if epoch is None
                    else node.advance(epoch, t_end, *plan[node.index])
                )
            except Exception as exc:
                raise RuntimeError(f"node {node.name} raised") from exc
        return reply

    return serve


class ShardPool:
    """Fork-started shard processes driven over pipes: nodes dealt
    round-robin, one round-trip per epoch per shard."""

    def __init__(self, planner, shards: int) -> None:
        self.node_names = planner.node_names
        self.assignments = [
            [i for i in range(len(self.node_names)) if i % shards == s]
            for s in range(shards)
        ]
        self.workers = Workers(
            shards, _shard_server, planner, planner.spec.to_dict(),
            self.assignments,
        )

    def advance(self, epoch, t_end, plan):
        return self._round(epoch, t_end, plan)

    def finish(self):
        return self._round(None, None, None)

    def _round(self, epoch: Optional[int], t_end, plan) -> List:
        """One message to every shard (no epoch: send your end-of-run
        reports), then every reply, in shard order."""
        for shard, indices in enumerate(self.assignments):
            mine = plan and {index: plan[index] for index in indices}
            self.workers.send(shard, (epoch, t_end, mine))
        merged: Dict[int, Any] = {}
        for shard, indices in enumerate(self.assignments):
            try:
                merged.update(self.workers.recv(shard))
            except WorkerFailure as failure:
                owned = [self.node_names[i] for i in indices]
                raise ShardError(
                    shard, owned, epoch, str(failure)
                ) from failure.exc
        return [merged[index] for index in sorted(merged)]

    def close(self):
        self.workers.close()


def shard_count(node_count: int, jobs: Optional[int]) -> int:
    """The one serial-or-sharded rule; 1 means serial.

    ``jobs`` defaults to the campaign worker-pool settings
    (:func:`repro.campaign.settings` overlays / ``REPRO_JOBS``), and an
    observed run is serial (:func:`repro.campaign.current_settings`).  A
    platform without the fork start method runs serially, and so does a
    daemonic caller: a campaign pool worker may not have children.
    """
    from ..campaign import current_settings

    shards = min(current_settings(jobs=jobs).jobs, node_count)
    return shards if shards > 1 and can_fork() else 1


def _epoch_loop(planner, placement):
    spec = planner.spec
    for epoch in range(spec.epoch_count()):
        t_end = spec.epoch_end(epoch)
        statuses = placement.advance(epoch, t_end, planner.plan(epoch, t_end))
        planner.fold(epoch, t_end, statuses)
    return planner.summarize(placement.finish())


def run_epochs(planner, jobs: Optional[int] = None):
    """Drive ``planner`` to completion; serial or sharded, same bytes.

    A shard that raises, or dies without speaking, surfaces as one
    :class:`ShardError` naming the shard, its nodes and the epoch.
    """
    shards = shard_count(len(planner.node_names), jobs)
    if shards == 1:
        return LocalRun(planner).run()
    pool = ShardPool(planner, shards)
    try:
        return _epoch_loop(planner, pool)
    finally:
        pool.close()
