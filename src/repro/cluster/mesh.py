"""Microservice-mesh execution: DAG requests over epoch-synced services.

Runs a :class:`~repro.workloads.dag.DagSpec` on the epoch runtime
(:mod:`repro.cluster.epoch`): every service is a :class:`ServiceNode`
(an :class:`~repro.cluster.epoch.EpochNode`, the same stack as a fleet
node), and the per-epoch planner (:class:`_MeshDriver`) is the RPC-edge
router plus the Autothrottle tower -- RPC shards produced by a parent
stage in epoch ``k`` dispatch at the start of epoch ``k + 1``, per-edge
FIFO queues enforce the edge concurrency limits, and an AND-join
completes a stage only when all shards of all incoming edges finished.
Cross-service coupling therefore crosses process boundaries only as
picklable values (shard tuples, :class:`ServiceStatus`, directive
tuples), which is what makes serial and sharded mesh runs
byte-identical.

A request's **critical-path latency** is the DAG-longest sum of its
per-stage shard latencies (queueing + service time inside each node).
The epoch-boundary RPC hop is a sync artifact of the simulation, not a
modeled cost, so SLO accounting uses the critical path, not wall time.

Controller modes (every service mounts the same controller, built by
:func:`repro.baselines.controller_factory` -- except DAGOR, which reads
the DAG's user levels; a mode name is case-insensitive, as there, and
an unknown one is a ``ValueError``):

* ``none`` -- uncontrolled.
* ``atropos`` -- per-service cancellation pipelines (targeted cancel).
* ``dagor`` -- per-service admission levels; the mesh additionally
  sheds doomed RPCs *upstream* using each service's last exported
  :attr:`~repro.baselines.dagor.Dagor.admit_level` (epoch-old, as
  piggy-backed feedback would be).
* ``autothrottle`` -- per-service fast-loop throttles plus the global
  :class:`~repro.baselines.autothrottle.AutothrottleTower` running in
  the mesh's slow-loop seat; retuned targets are delivered to services
  as epoch-boundary directives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..baselines import controller_factory
from ..baselines.autothrottle import Autothrottle, AutothrottleTower
from ..baselines.dagor import Dagor, compound_priority
from ..core.pipeline import WindowedController
from ..sim.environment import Environment
from ..sim.metrics import percentile
from ..telemetry.health import HealthMonitor, default_health_rules
from ..workloads.dag import DagSpec, ServiceSpec, build_arrivals
from .epoch import EpochNode, EpochResult, LocalRun, p99_text, run_epochs

#: Shard tuple crossing the mesh -> node boundary (picklable):
#: ``(time, key, op, params, client_id)``.
Shard = tuple

#: Feedback level meaning "shed nothing" before the first window.
OPEN_LEVEL = 10 ** 6


@dataclass
class ServiceStatus:
    """One service's epoch-end snapshot (crosses shard-process pipes)."""

    service: str
    backend: str
    epoch: int
    t: float
    outstanding: int = 0
    offered_window: int = 0
    #: Terminal shards this window: ``(key, status, latency)``.
    shard_results: List[Tuple[str, str, float]] = field(
        default_factory=list
    )
    #: Window p99 over completed shard latencies.
    p99_window: float = float("nan")
    #: DAGOR upstream feedback (:data:`OPEN_LEVEL` for other modes).
    admit_level: int = OPEN_LEVEL
    #: Autothrottle fast-loop state (nominal workers for other modes).
    throttle_limit: int = 0
    target: float = 0.0


class ServiceNode(EpochNode):
    """One mesh service, advanced epoch by epoch."""

    kind = "service"

    def __init__(
        self,
        spec: DagSpec,
        service: ServiceSpec,
        index: int,
        controller: str,
    ) -> None:
        self.service = service
        self.mode = controller
        super().__init__(
            spec,
            service.name,
            service.backend,
            index,
            rng_label=f"dag:{service.name}",
            make_controller=self._make_controller,
            start=controller != "none",
            measured=spec.duration + spec.drain - spec.warmup,
        )

    def _make_controller(self, env: Environment):
        spec = self.spec
        if self.mode == "dagor":  # the one mode that reads the DAG spec
            return Dagor(
                env,
                slo_latency=spec.slo_latency,
                user_levels=spec.dagor_user_levels,
            )
        return controller_factory(self.mode, spec.slo_latency)(env)

    # ------------------------------------------------------------------
    # Epoch hooks
    # ------------------------------------------------------------------
    def _deliver(self, directives: List[Tuple[str, float]]) -> None:
        for kind, value in directives:
            if kind == "target" and isinstance(self.controller, Autothrottle):
                self.controller.set_target(value)

    def _submit(self, shards: List[Shard]) -> None:
        """One ``run_arrivals`` per shard, keyed ``client|key``."""
        for t, key, op, params, client in shards:
            self.driver.run_arrivals(
                [(t, self._make_op(op, params))],
                client_id=f"{client}|{key}",
            )

    def _status(self, window: List, **common: Any) -> ServiceStatus:
        status = ServiceStatus(service=self.name, **common)
        completed_latencies: List[float] = []
        for record in window:
            key = record.client_id.rsplit("|", 1)[1]
            finish = (
                record.finish_time if record.finish_time is not None
                else status.t
            )
            latency = max(0.0, finish - record.arrival_time)
            status.shard_results.append((key, record.status.value, latency))
            if record.completed:
                completed_latencies.append(latency)
        if completed_latencies:
            status.p99_window = percentile(completed_latencies, 99)
        controller = self.controller
        if isinstance(controller, Dagor):
            status.admit_level = controller.admit_level
        if isinstance(controller, Autothrottle):
            status.throttle_limit = controller.limit
            status.target = controller.target
        return status

    def _report_extra(self) -> Dict[str, Any]:
        controller = self.controller
        windowed = isinstance(controller, WindowedController)
        throttled = isinstance(controller, Autothrottle)
        return {
            "cancels": controller.cancels_issued,
            "rejections": controller.rejections if windowed else 0,
            "resize_moves": controller.resize_moves if throttled else 0,
            "target_moves": controller.target_moves if throttled else 0,
        }


@dataclass
class DagResult(EpochResult):
    """Everything one mesh run produces (JSON-able, deterministic)."""

    _rounded = ("victim_p99", "victim_p50", "victim_mean", "goodput")
    _reports = "service_reports"

    controller: str
    n_services: int
    n_edges: int
    duration: float
    epochs: int = 0
    #: Victim-class critical-path p99 (post-warmup arrivals), seconds.
    victim_p99: float = float("nan")
    victim_p50: float = float("nan")
    victim_mean: float = float("nan")
    #: Victim completions whose critical path met the SLO, per second.
    goodput: float = 0.0
    #: Per-class outcome counts.
    classes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    shed_upstream: int = 0
    cancelled_shards: int = 0
    tower_moves: List[Dict[str, Any]] = field(default_factory=list)
    health_events: List[Dict[str, Any]] = field(default_factory=list)
    service_reports: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        out["classes"] = {
            name: dict(sorted(counts.items()))
            for name, counts in sorted(self.classes.items())
        }
        return out

    def render(self) -> str:
        """Operator-facing text report."""
        lines = [
            f"mesh: {self.n_services} services / {self.n_edges} edges, "
            f"controller={self.controller}, {self.epochs} epochs",
            f"victim p99 {p99_text(self.victim_p99)} | "
            f"goodput {self.goodput:.1f}/s | "
            f"upstream sheds {self.shed_upstream} | "
            f"cancelled shards {self.cancelled_shards}",
            "",
            f"{'service':<10} {'backend':<9} {'tput':>7} {'p99':>9} "
            f"{'cancel':>7} {'reject':>7} {'resize':>7}",
        ]
        for report in self.service_reports:
            lines.append(
                f"{report['service']:<10} {report['backend']:<9} "
                f"{report['throughput']:>7.1f} "
                f"{p99_text(report['p99_latency']):>9} "
                f"{report['cancels']:>7} {report['rejections']:>7} "
                f"{report['resize_moves']:>7}"
            )
        return "\n".join(lines)


class _RequestState:
    """Parent-side bookkeeping for one DAG request, held while it is in
    flight: the planner drops it once it is done, or failed with no
    shard out.  Per-service state is indexed like ``spec.services``."""

    __slots__ = (
        "rid", "cls_name", "arrival", "client", "victim", "failed",
        "done", "out", "parents_left", "shards_left", "stage_latency",
    )

    def __init__(self, rid, cls_name, arrival, client, victim,
                 parents_left, shards_left):
        self.rid = rid
        self.cls_name = cls_name
        self.arrival = arrival
        self.client = client
        self.victim = victim
        self.failed: Optional[str] = None
        self.done = False
        #: Shards submitted to a service and not yet folded back (the
        #: entry shard goes out as the request is created).
        self.out = 1
        self.parents_left = parents_left
        self.shards_left = shards_left
        self.stage_latency = [0.0] * len(shards_left)

    def critical_path(self, topo: List[int],
                      upstream: List[List[int]]) -> float:
        cp = [0.0] * len(topo)
        for s in topo:
            cp[s] = max(
                (cp[p] for p in upstream[s]), default=0.0
            ) + self.stage_latency[s]
        return max(cp)


class _MeshDriver:
    """The mesh's slow loop: RPC-edge router + Autothrottle tower.

    The DAG is resolved once, here, into index tables (services by
    their ``spec.services`` index, edges by their ``spec.edges`` index)
    that ``plan`` and ``fold`` read per shard."""

    def __init__(self, spec: DagSpec, controller: str) -> None:
        self.spec = spec
        #: The controller name in the one spelling every comparison
        #: below and :func:`~repro.baselines.controller_factory` use.
        self.controller = controller = controller.lower()
        self.node_names = [service.name for service in spec.services]
        self.index = {name: i for i, name in enumerate(self.node_names)}
        self.entry = self.index[spec.entry]
        self.topo = [self.index[name] for name in spec.topo_order()]
        self.edge_target = [self.index[e.target] for e in spec.edges]
        #: Per service: incoming / outgoing edge indices, and the
        #: services at the far end of the incoming ones.
        self.in_edges = [spec.parents_of(name) for name in self.node_names]
        self.out_edges = [spec.children_of(name) for name in self.node_names]
        self.upstream = [
            [self.index[spec.edges[e].source] for e in edges]
            for edges in self.in_edges
        ]
        #: Fresh per-request ``parents_left`` / ``shards_left`` vectors.
        self.parents_init = [len(edges) for edges in self.in_edges]
        self.shards_init = [
            sum(spec.edges[e].fanout for e in edges) for edges in self.in_edges
        ]
        self.shards_init[self.entry] = 1
        self.arrivals = build_arrivals(spec)
        #: Requests in flight, by rid.
        self.requests: Dict[int, _RequestState] = {}
        self.classes = {c.name: c for c in spec.classes}
        #: Class name -> op per service index.
        self.ops = {
            c.name: [c.op_for(name) for name in self.node_names]
            for c in spec.classes
        }
        self.victim_classes = {
            c.name for c in spec.classes
            if c.name not in spec.expected_culprits
        }
        culprit_ops = {
            op
            for c in spec.classes if c.name in spec.expected_culprits
            for _, op in c.ops
        }
        victim_ops = {
            op for c in spec.classes if c.name in self.victim_classes
            for _, op in c.ops
        }
        self.monitor = HealthMonitor(
            default_health_rules(
                slo=spec.slo_latency,
                expected_culprits=tuple(sorted(culprit_ops - victim_ops)),
            )
        )
        self.tower: Optional[AutothrottleTower] = (
            AutothrottleTower(self.node_names, spec.slo_latency)
            if controller == "autothrottle" else None
        )
        self.tower_epochs = max(1, round(spec.tower_period / spec.epoch))
        self.edge_queues: List[List[Tuple[_RequestState, int]]] = [
            [] for _ in spec.edges
        ]
        self.edge_out: List[int] = [0] * len(spec.edges)
        self.admit_levels = [OPEN_LEVEL] * len(spec.services)
        self.counts: Dict[str, Dict[str, int]] = {
            c.name: {"offered": 0, "completed": 0, "shed_upstream": 0,
                     "dropped": 0, "cancelled": 0, "timed_out": 0,
                     "unfinished": 0}
            for c in spec.classes
        }
        self.shed_upstream = 0
        self.cancelled_shards = 0
        #: (arrival, cp_latency) of completed victim requests.
        self.victim_done: List[Tuple[float, float]] = []
        #: Victim critical paths since the tower last ran (its e2e input).
        self._window_victim_cp: List[float] = []
        #: Tower targets decided by the last ``fold``, by service index.
        self._directives: Dict[int, List[Tuple[str, float]]] = {}
        self._arrival_idx = 0

    def make_node(self, spec: DagSpec, index: int) -> ServiceNode:
        return ServiceNode(
            spec, spec.services[index], index, self.controller
        )

    # -- per-epoch plan ------------------------------------------------
    def plan(
        self, epoch: int, t_end: float
    ) -> Dict[int, Tuple[List[Shard], List[Tuple[str, float]]]]:
        spec = self.spec
        t_start = spec.epoch_end(epoch - 1) if epoch > 0 else 0.0
        submissions: List[List[Shard]] = [[] for _ in self.node_names]
        for e, queue in enumerate(self.edge_queues):
            target = self.edge_target[e]
            limit = spec.edges[e].concurrency
            taken = 0
            for req, k in queue:
                if req.failed is None:
                    if self.edge_out[e] >= limit:
                        break
                    op = self.ops[req.cls_name][target]
                    if (
                        self.controller == "dagor"
                        and compound_priority(
                            op, req.client, spec.dagor_user_levels
                        ) > self.admit_levels[target]
                    ):
                        req.failed = "shed-upstream"
                        self.counts[req.cls_name]["shed_upstream"] += 1
                        self.shed_upstream += 1
                        if not req.out:
                            del self.requests[req.rid]
                    else:
                        self.edge_out[e] += 1
                        req.out += 1
                        submissions[target].append((
                            t_start,
                            f"{req.rid}:{e}:{k}",
                            op,
                            self._params(op, req.cls_name, req.rid, k),
                            req.client,
                        ))
                taken += 1
            del queue[:taken]
        entry = self.entry
        while self._arrival_idx < len(self.arrivals):
            t, rid, cls_name, client = self.arrivals[self._arrival_idx]
            if t >= t_end:
                break
            self._arrival_idx += 1
            self.requests[rid] = _RequestState(
                rid, cls_name, t, client, cls_name in self.victim_classes,
                self.parents_init.copy(), self.shards_init.copy(),
            )
            self.counts[cls_name]["offered"] += 1
            op = self.ops[cls_name][entry]
            submissions[entry].append((
                t,
                f"{rid}:entry:0",
                op,
                self._params(op, cls_name, rid, 0),
                client,
            ))
        return {
            index: (shards, self._directives.get(index, []))
            for index, shards in enumerate(submissions)
        }

    def _params(self, op, cls_name: str, rid: int, k: int) -> Dict[str, Any]:
        if op == "scan":
            return {"rows": self.classes[cls_name].rows}
        return {"table": (rid + k) % self.spec.tables}

    # -- per-epoch feedback fold --------------------------------------
    def fold(self, epoch: int, t_end: float,
             statuses: List[ServiceStatus]) -> None:
        spec = self.spec
        requests = self.requests
        stage_completions: List[Tuple[_RequestState, int]] = []
        window_victim_shards: List[float] = []
        window_cancelled_ops: List[str] = []
        completed = 0
        for s, status in enumerate(statuses):
            self.admit_levels[s] = status.admit_level
            for key, st, latency in status.shard_results:
                rid, edge, _ = key.split(":")
                req = requests[int(rid)]
                req.out -= 1
                if edge != "entry":
                    self.edge_out[int(edge)] -= 1
                if st == "completed":
                    completed += 1
                    if req.victim:
                        window_victim_shards.append(latency)
                    req.stage_latency[s] = max(req.stage_latency[s], latency)
                    req.shards_left[s] -= 1
                    if req.shards_left[s] == 0:
                        stage_completions.append((req, s))
                else:
                    if st == "cancelled":
                        self.cancelled_shards += 1
                        window_cancelled_ops.append(self.ops[req.cls_name][s])
                    if req.failed is None:
                        req.failed = st
                        self.counts[req.cls_name][st] += 1
                if req.failed is not None and not req.out:
                    del requests[req.rid]
        for req, s in stage_completions:
            for e in self.out_edges[s]:
                target = self.edge_target[e]
                req.parents_left[target] -= 1
                if req.parents_left[target] == 0 and req.failed is None:
                    for e2 in self.in_edges[target]:
                        for k in range(spec.edges[e2].fanout):
                            self.edge_queues[e2].append((req, k))
            if (
                req.failed is None
                and not req.done
                and not any(req.shards_left)
            ):
                req.done = True
                del requests[req.rid]
                cp = req.critical_path(self.topo, self.upstream)
                self.counts[req.cls_name]["completed"] += 1
                if req.victim:
                    self.victim_done.append((req.arrival, cp))
                    if self.tower is not None:
                        self._window_victim_cp.append(cp)
        fleet_p99 = (
            percentile(window_victim_shards, 99)
            if window_victim_shards else float("nan")
        )
        offered = sum(s.offered_window for s in statuses)
        self.monitor.evaluate(
            t_end,
            {
                "p99": fleet_p99,
                "completed_window": float(completed),
                "offered_window": float(offered),
                "goodput": float(completed) / max(spec.epoch, 1e-9),
                "cancels_window": float(len(window_cancelled_ops)),
            },
            window_cancelled_ops,
        )
        self._directives = self._tower_directives(epoch, t_end, statuses)

    # -- tower slow loop ----------------------------------------------
    def _tower_directives(
        self, epoch: int, t_end: float, statuses: List[ServiceStatus]
    ) -> Dict[int, List[Tuple[str, float]]]:
        if self.tower is None or (epoch + 1) % self.tower_epochs != 0:
            return {}
        cp_p99 = (
            percentile(self._window_victim_cp, 99)
            if self._window_victim_cp else float("nan")
        )
        service_p99 = {s.service: s.p99_window for s in statuses}
        shard_p99s = [
            p for p in service_p99.values() if p == p
        ]
        e2e = cp_p99 if cp_p99 == cp_p99 else (
            max(shard_p99s) if shard_p99s else float("nan")
        )
        targets = self.tower.update(epoch, t_end, e2e, service_p99)
        self._window_victim_cp = []
        return {
            self.index[name]: [("target", target)]
            for name, target in sorted(targets.items())
        }

    # -- final result --------------------------------------------------
    def summarize(self, reports: List[Dict[str, Any]]) -> DagResult:
        spec = self.spec
        result = DagResult(
            controller=self.controller,
            n_services=len(spec.services),
            n_edges=len(spec.edges),
            duration=spec.duration,
            epochs=spec.epoch_count(),
        )
        for req in self.requests.values():
            if req.failed is None:
                self.counts[req.cls_name]["unfinished"] += 1
        result.classes = self.counts
        latencies = [
            cp for arrival, cp in self.victim_done
            if arrival >= spec.warmup
        ]
        effective = max(spec.duration - spec.warmup, 1e-9)
        if latencies:
            result.victim_p99 = percentile(latencies, 99)
            result.victim_p50 = percentile(latencies, 50)
            result.victim_mean = sum(latencies) / len(latencies)
        result.goodput = (
            sum(1 for lat in latencies if lat <= spec.slo_latency)
            / effective
        )
        result.shed_upstream = self.shed_upstream
        result.cancelled_shards = self.cancelled_shards
        if self.tower is not None:
            result.tower_moves = list(self.tower.moves)
        result.health_events = [e.to_dict() for e in self.monitor.events]
        result.service_reports = reports
        return result


class Mesh(LocalRun):
    """Builds and drives one mesh run in this process (serial path)."""

    def __init__(self, spec: DagSpec, controller: str) -> None:
        super().__init__(_MeshDriver(spec, controller))


def run_dag(
    spec: DagSpec,
    controller: str = "atropos",
    jobs: Optional[int] = None,
) -> DagResult:
    """Run a mesh to completion; serial or sharded, same bytes.

    ``jobs`` defaults to the campaign worker-pool settings
    (:func:`repro.campaign.settings` overlays / ``REPRO_JOBS``);
    service simulations shard round-robin across ``min(jobs, services)``
    persistent fork-started workers, or run serially where
    :func:`repro.cluster.epoch.shard_count` says so (identical bytes
    either way).
    """
    return run_epochs(_MeshDriver(spec, controller), jobs)
