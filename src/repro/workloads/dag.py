"""Microservice-DAG workload specifications.

A :class:`DagSpec` describes a small service mesh: every request enters
at one *entry* service and fans out across a directed acyclic graph of
simulated services (each service a full app-node simulation from
:mod:`repro.apps`).  Edges carry the RPC structure: a request crossing
an edge issues ``fanout`` shards at the target, and at most
``concurrency`` shards may be outstanding per edge at once (queued
shards wait, FIFO).  A service's stage starts only once *all* its
parent stages finished (AND-join fan-in); the request completes when
every reachable service completed its stage.

Per-service work is described with a backend-neutral op vocabulary
(:data:`DAG_OPS`): ``point`` (light read), ``write`` (light update),
``scan`` (a heavy bulk pass sized by the request class's ``rows``).
The execution engine (:mod:`repro.cluster.mesh`) maps these onto the
backend's native handlers, exactly like the fleet tier's cluster ops.

Specs are plain JSON-able data (same contract as
:class:`~repro.cluster.spec.FleetSpec`): shard workers rebuild their
service nodes from the spec, which is what makes serial and sharded
mesh runs byte-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from ..sim.rng import Rng
from .spec import periodic_times, poisson_times

#: Backends a service may run (subset of repro.apps wired into the mesh).
DAG_BACKENDS = ("mysql", "postgres")

#: Backend-neutral per-service ops a request class may ask for.
DAG_OPS = ("point", "write", "scan")

#: Controllers the mesh mounts on every service: the CLI's
#: ``--controller`` choices and the dag experiment's contrast, in order.
DAG_CONTROLLERS = ("none", "atropos", "dagor", "autothrottle")


@dataclass(frozen=True)
class ServiceSpec:
    """One simulated service of the mesh."""

    name: str
    backend: str = "mysql"

    def __post_init__(self) -> None:
        if self.backend not in DAG_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {DAG_BACKENDS}"
            )


@dataclass(frozen=True)
class EdgeSpec:
    """One RPC edge: ``source`` calls ``target``.

    ``fanout`` shards are issued at the target per crossing request;
    at most ``concurrency`` shards may be in flight on the edge.
    """

    source: str
    target: str
    fanout: int = 1
    concurrency: int = 16


@dataclass(frozen=True)
class RequestClass:
    """One traffic class: arrival process plus per-service ops.

    Exactly one of ``rate`` (open-loop Poisson) and ``period``
    (periodic, every ``period`` seconds from ``start``) must be
    positive.  ``ops`` maps every service name to one of
    :data:`DAG_OPS`; ``rows`` sizes this class's ``scan`` ops.
    ``users`` is the client-id population (DAGOR partitions admission
    by user level, so classes should span several users).
    """

    name: str
    ops: Tuple[Tuple[str, str], ...] = ()
    rate: float = 0.0
    period: float = 0.0
    start: float = 0.0
    rows: float = 0.0
    users: int = 32

    def __post_init__(self) -> None:
        if isinstance(self.ops, dict):
            object.__setattr__(
                self, "ops", tuple(sorted(self.ops.items()))
            )
        else:
            object.__setattr__(
                self, "ops", tuple(tuple(pair) for pair in self.ops)
            )

    def op_for(self, service: str) -> str:
        for name, op in self.ops:
            if name == service:
                return op
        raise KeyError(service)


@dataclass
class DagSpec:
    """Everything one mesh run needs (JSON-able, validated)."""

    services: List[ServiceSpec] = field(default_factory=list)
    edges: List[EdgeSpec] = field(default_factory=list)
    entry: str = ""
    classes: List[RequestClass] = field(default_factory=list)
    seed: int = 0
    duration: float = 24.0
    warmup: float = 4.0
    #: Mesh sync interval, simulated seconds: RPC shards produced by a
    #: parent stage in epoch ``k`` dispatch at the start of ``k + 1``,
    #: so cross-service coupling happens only at epoch boundaries.
    epoch: float = 0.25
    #: End-to-end SLO on a request's critical-path latency, seconds.
    slo_latency: float = 0.1
    slo_slack: float = 1.5
    #: Epochs past ``duration`` that drain in-flight requests (no new
    #: arrivals) so tail requests are not truncated by the run end.
    drain: float = 3.0

    # --- backend sensitivity (same regime as the fleet tier) ---
    tables: int = 4
    mysql_pages_per_light_op: int = 6
    mysql_miss_penalty: float = 0.02
    pg_bytes_per_row: float = 400.0

    #: Request classes the scenario considers true culprits; every
    #: other class is a victim for the p99/goodput accounting.
    expected_culprits: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.services = [
            s if isinstance(s, ServiceSpec) else ServiceSpec(**s)
            for s in self.services
        ]
        self.edges = [
            e if isinstance(e, EdgeSpec) else EdgeSpec(**e)
            for e in self.edges
        ]
        self.classes = [
            c if isinstance(c, RequestClass) else RequestClass(**c)
            for c in self.classes
        ]
        self.expected_culprits = tuple(self.expected_culprits)
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        problems: List[str] = []
        names = [s.name for s in self.services]
        if not self.services:
            problems.append("services must not be empty")
        if len(set(names)) != len(names):
            problems.append(f"duplicate service names: {names}")
        known = set(names)
        if self.entry not in known:
            problems.append(
                f"entry {self.entry!r} is not a declared service"
            )
        seen_edges = set()
        for edge in self.edges:
            if edge.source not in known or edge.target not in known:
                problems.append(
                    f"edge {edge.source!r}->{edge.target!r} references "
                    "an unknown service"
                )
            if edge.source == edge.target:
                problems.append(f"self-edge on {edge.source!r}")
            if (edge.source, edge.target) in seen_edges:
                problems.append(
                    f"duplicate edge {edge.source!r}->{edge.target!r}"
                )
            seen_edges.add((edge.source, edge.target))
            if edge.fanout < 1:
                problems.append(
                    f"edge {edge.source}->{edge.target}: fanout must be >= 1"
                )
            if edge.concurrency < 1:
                problems.append(
                    f"edge {edge.source}->{edge.target}: concurrency must "
                    "be >= 1"
                )
        order = self._topo_order_or_none()
        if order is None:
            problems.append(
                "service graph has a cycle (or edges into the entry)"
            )
        elif self.entry in known and set(order) != known:
            missing = sorted(known - set(order))
            problems.append(
                f"services unreachable from entry: {missing}"
            )
        if not self.classes:
            problems.append("classes must not be empty")
        class_names = [c.name for c in self.classes]
        if len(set(class_names)) != len(class_names):
            problems.append(f"duplicate class names: {class_names}")
        for cls in self.classes:
            prefix = f"class {cls.name!r}:"
            if (cls.rate > 0) == (cls.period > 0):
                problems.append(
                    f"{prefix} exactly one of rate/period must be positive"
                )
            if cls.start < 0:
                problems.append(f"{prefix} start must be >= 0")
            if cls.users < 1:
                problems.append(f"{prefix} users must be >= 1")
            ops = dict(cls.ops)
            if set(ops) != known:
                problems.append(
                    f"{prefix} ops must cover every service "
                    f"(got {sorted(ops)}, want {sorted(known)})"
                )
            for service, op in cls.ops:
                if op not in DAG_OPS:
                    problems.append(
                        f"{prefix} unknown op {op!r} for {service!r}; "
                        f"known: {DAG_OPS}"
                    )
            if "scan" in ops.values() and cls.rows <= 0:
                problems.append(
                    f"{prefix} scan ops need rows > 0"
                )
        for name in ("duration", "epoch", "slo_latency"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be > 0")
        if not 0 <= self.warmup < self.duration:
            problems.append("warmup must be in [0, duration)")
        if self.epoch > self.duration:
            problems.append("epoch must not exceed duration")
        if self.drain < 0:
            problems.append("drain must be >= 0")
        for culprit in self.expected_culprits:
            if culprit not in class_names:
                problems.append(
                    f"expected culprit {culprit!r} is not a class"
                )
        if problems:
            raise ValueError("invalid DagSpec: " + "; ".join(problems))

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------
    def _topo_order_or_none(self) -> "List[str] | None":
        """Kahn's algorithm seeded at the entry, spec order for ties."""
        children: Dict[str, List[str]] = {s.name: [] for s in self.services}
        indegree: Dict[str, int] = {s.name: 0 for s in self.services}
        for edge in self.edges:
            if edge.source in children and edge.target in indegree:
                children[edge.source].append(edge.target)
                indegree[edge.target] += 1
        if self.entry not in indegree or indegree[self.entry] != 0:
            return None
        frontier = [self.entry]
        order: List[str] = []
        while frontier:
            name = frontier.pop(0)
            order.append(name)
            for child in children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        remaining = [n for n, d in indegree.items() if d > 0]
        if remaining:
            return None
        return order

    def topo_order(self) -> List[str]:
        order = self._topo_order_or_none()
        assert order is not None  # validate() already ran
        return order

    def parents_of(self, service: str) -> List[int]:
        """Indices (into ``edges``) of this service's incoming edges."""
        return [
            i for i, e in enumerate(self.edges) if e.target == service
        ]

    def children_of(self, service: str) -> List[int]:
        """Indices (into ``edges``) of this service's outgoing edges."""
        return [
            i for i, e in enumerate(self.edges) if e.source == service
        ]

    # ------------------------------------------------------------------
    # Epoch arithmetic (mirrors FleetSpec)
    # ------------------------------------------------------------------
    def epoch_count(self) -> int:
        """Epochs covering [0, duration + drain] (last may be short)."""
        import math

        total = self.duration + self.drain
        return max(1, math.ceil(total / self.epoch - 1e-9))

    def epoch_end(self, index: int) -> float:
        return min(self.duration + self.drain, (index + 1) * self.epoch)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DagSpec":
        return cls(**data)

    def with_overrides(self, **overrides: Any) -> "DagSpec":
        return replace(self, **overrides)


#: One mesh request arrival: ``(time, rid, class_name, client_id)``.
DagArrival = Tuple[float, int, str, str]


def arrival_stream(spec: DagSpec) -> Iterator[DagArrival]:
    """Every request arrival at the entry service, drawn lazily.

    Yields ascending ``(time, rid, class_name, client_id)`` tuples.
    Each class draws from its own forked rng stream
    (``dag:arrivals:<class>``), so adding a class never perturbs the
    others; the class streams, each ascending in ``(time, class,
    client)``, are merged on that key and request ids are assigned in
    merge order.
    """
    merged = heapq.merge(
        *(_class_arrivals(spec, cls) for cls in spec.classes)
    )
    return (
        (t, rid, name, client)
        for rid, (t, name, client) in enumerate(merged)
    )


def _class_arrivals(
    spec: DagSpec, cls: RequestClass
) -> Iterator[Tuple[float, str, str]]:
    """One class's ``(time, class_name, client_id)`` arrivals."""
    if cls.rate > 0:
        rng = Rng(spec.seed).fork(f"dag:arrivals:{cls.name}")
        for t in poisson_times(
            rng, lambda: cls.rate, cls.start, spec.duration
        ):
            user = rng.randint(0, cls.users - 1)
            yield t, cls.name, f"{cls.name}-{user}"
    else:
        for k, t in enumerate(
            periodic_times(cls.start, cls.period, spec.duration)
        ):
            yield t, cls.name, f"{cls.name}-{k % cls.users}"


def build_arrivals(spec: DagSpec) -> List[DagArrival]:
    """The whole :func:`arrival_stream`, as a list."""
    return list(arrival_stream(spec))


def dag_storm(
    n_leaves: int = 2,
    backends: Sequence[str] = ("mysql", "postgres"),
    **overrides: Any,
) -> DagSpec:
    """The standard cross-service overload scenario.

    A ``gateway`` fans every request out to ``n_leaves`` leaf services
    (AND-join fan-in).  A light open-loop ``browse`` class is the
    victim population; a periodic ``analytics`` class runs a cheap
    gateway op but lands a heavy ``scan`` on every leaf -- the culprit
    whose damage lives on *different services* than the victims'
    critical path bottleneck.
    """
    if n_leaves < 1:
        raise ValueError("n_leaves must be >= 1")
    services = [ServiceSpec("gateway", "mysql")] + [
        ServiceSpec(f"leaf-{i}", backends[i % len(backends)])
        for i in range(n_leaves)
    ]
    # Concurrency must clear arrival_rate * epoch with headroom: edge
    # slots release only at epoch boundaries, so a tighter limit
    # throttles the victims at the mesh layer instead of the services.
    edges = [
        EdgeSpec("gateway", f"leaf-{i}", fanout=1, concurrency=160)
        for i in range(n_leaves)
    ]
    every = lambda op: {s.name: op for s in services}  # noqa: E731
    browse = RequestClass(
        name="browse", ops=every("point"), rate=220.0, users=64
    )
    analytics_ops = every("scan")
    analytics_ops["gateway"] = "write"
    analytics = RequestClass(
        name="analytics",
        ops=analytics_ops,
        period=4.0,
        start=6.0,
        rows=4e5,
        users=4,
    )
    return DagSpec(
        services=services,
        edges=edges,
        entry="gateway",
        classes=[browse, analytics],
        expected_culprits=("analytics",),
        **overrides,
    )
