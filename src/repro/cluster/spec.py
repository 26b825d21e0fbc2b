"""Fleet specifications: nodes, routing, scenario, coordinator knobs.

A :class:`FleetSpec` fully determines a cluster run: same spec + same
seed -> byte-identical :class:`~repro.cluster.fleet.FleetResult`,
whether the per-node simulations run serially or sharded across worker
processes.  Specs are plain JSON-able data so shard workers can rebuild
their nodes from the spec instead of unpickling live simulation state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Sequence, Tuple

#: Backends a node may run (the repro.apps models wired into the fleet).
BACKENDS = ("mysql", "postgres")

#: Control modes: "none" (uncontrolled), "local" (per-node ATROPOS
#: pipelines cancel on their own view), "coordinated" (per-node pipelines
#: run detect-only; the global coordinator issues fleet-wide directives).
MODES = ("none", "local", "coordinated")


@dataclass(frozen=True)
class NodeSpec:
    """One app node of the fleet."""

    name: str
    backend: str = "mysql"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {BACKENDS}"
            )


@dataclass
class FleetSpec:
    """Everything one fleet run needs (JSON-able, validated)."""

    nodes: List[NodeSpec] = field(default_factory=list)
    policy: str = "least-outstanding"
    mode: str = "coordinated"
    seed: int = 0
    duration: float = 30.0
    warmup: float = 5.0
    #: Coordinator scrape / LB sync interval, simulated seconds.  Nodes
    #: advance independently within an epoch; routing feedback and
    #: directives cross node boundaries only at epoch edges.
    epoch: float = 0.5
    slo_latency: float = 0.1

    # --- foreground load (the victims) ---
    #: Fleet-wide lightweight arrivals per second (routed by the LB).
    arrival_rate: float = 360.0
    point_weight: float = 0.85
    tables: int = 4

    # --- decoy culprit: a big single-node holder ---
    report_start: float = 2.0
    report_period: float = 3.0
    #: MySQL decoy: pages pinned up-front by ``report_query``.
    report_pages: int = 900
    #: Kept below ``report_period`` so only one decoy is ever live --
    #: the decoy must be a genuinely single-node holder.
    report_duration: float = 2.5
    #: PostgreSQL decoy: rows of a ``bulk_update``.
    report_rows: float = 3e5

    # --- the cross-node culprit: a scan fanned out to every node ---
    scan_start: float = 6.0
    scan_period: float = 4.0
    #: Rows each node's scan shard streams (MySQL ``scan``).  Sized so a
    #: shard overruns the buffer pool's slack and thrashes the hot set
    #: for a couple of seconds (the fleet-wide damage window).
    scan_rows: float = 4e5
    #: Bytes per row for the PostgreSQL shard (``vacuum`` I/O volume).
    pg_bytes_per_row: float = 400.0

    # --- backend sensitivity (how hard the thrash hits the victims) ---
    #: Hot pages a lightweight MySQL op touches (misses pay the disk
    #: penalty); raised from the single-node default so buffer-pool
    #: thrash shows up in victim tails at cluster arrival rates.
    mysql_pages_per_light_op: int = 6
    #: Per-miss disk penalty, seconds (a loaded disk, not an idle one).
    mysql_miss_penalty: float = 0.02

    # --- coordinator slow loop ---
    #: Fleet p99 trigger: victim p99 above ``slo_latency * slo_slack``.
    slo_slack: float = 1.5
    #: Delay of one hop of a node's cancel-directive sweep: one per
    #: targeted task, and one more before the retry pass.
    directive_delay: float = 0.002
    #: Ops the scenario considers true culprits (wrong-culprit metric).
    expected_culprits: Tuple[str, ...] = ("fanout_scan",)

    # --- failure model (repro.cluster.node) ---
    #: ``(node_name, start, end)`` windows during which the node is
    #: partitioned from the coordinator: directives queue until it
    #: heals, and sweep hops that land inside a window miss and are
    #: retried once.
    partitions: Tuple[Tuple[str, float, float], ...] = ()

    def __post_init__(self) -> None:
        self.nodes = [
            n if isinstance(n, NodeSpec) else NodeSpec(**n)
            for n in self.nodes
        ]
        self.partitions = tuple(tuple(p) for p in self.partitions)
        self.expected_culprits = tuple(self.expected_culprits)
        self.validate()

    def validate(self) -> None:
        problems = []
        if not self.nodes:
            problems.append("nodes must not be empty")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            problems.append(f"duplicate node names: {names}")
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES} (got {self.mode!r})")
        for name in ("duration", "epoch", "slo_latency", "arrival_rate"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be > 0")
        if not 0 <= self.warmup < self.duration:
            problems.append("warmup must be in [0, duration)")
        if self.epoch > self.duration:
            problems.append("epoch must not exceed duration")
        if not 0 < self.point_weight <= 1:
            problems.append("point_weight must be in (0, 1]")
        known = set(names)
        for node, start, end in self.partitions:
            if node not in known:
                problems.append(f"partition names unknown node {node!r}")
            if not 0 <= start < end:
                problems.append(f"bad partition window ({start}, {end})")
        if problems:
            raise ValueError("invalid FleetSpec: " + "; ".join(problems))

    # ------------------------------------------------------------------
    # Epoch arithmetic
    # ------------------------------------------------------------------
    def epoch_count(self) -> int:
        """Number of epochs covering [0, duration] (last may be short)."""
        import math

        return max(1, math.ceil(self.duration / self.epoch - 1e-9))

    def epoch_end(self, index: int) -> float:
        return min(self.duration, (index + 1) * self.epoch)

    # ------------------------------------------------------------------
    # Serialization (shard workers rebuild nodes from the spec)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetSpec":
        return cls(**data)

    def with_mode(self, mode: str) -> "FleetSpec":
        return replace(self, mode=mode)


def demo_fleet(
    n_nodes: int = 3,
    backends: Sequence[str] = ("mysql", "postgres"),
    **overrides: Any,
) -> FleetSpec:
    """The standard cross-node-culprit scenario.

    ``n_nodes`` nodes cycle through ``backends``; a decoy
    ``heavy_report`` rotates across single nodes while a recurring
    ``fanout_scan`` fans one shard to *every* node -- the op whose
    damage no per-node view sees whole.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    nodes = [
        NodeSpec(name=f"node-{i}", backend=backends[i % len(backends)])
        for i in range(n_nodes)
    ]
    return FleetSpec(nodes=nodes, **overrides)
