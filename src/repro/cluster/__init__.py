"""Fleet simulation behind a load balancer with cross-node attribution.

The paper evaluates targeted cancellation on a single application
instance; this package scales the scenario out to a *fleet*: N app nodes
(mixed backends from :mod:`repro.apps`, each wrapping its own sim
environment, driver, and per-node ATROPOS pipeline), a load-balancer
tier with pluggable routing policies, and a :class:`GlobalCoordinator`
slow loop that aggregates per-node telemetry each epoch to attribute
culprits whose damage spans nodes -- the DAGOR / Autothrottle bi-level
shape (per-node fast loop + global slow loop).

Entry points (both on the one epoch runtime, :mod:`repro.cluster.epoch`;
a failing shard worker raises :class:`ShardError`):

* :func:`run_fleet` -- run a :class:`FleetSpec` to completion (serial or
  sharded across processes with byte-identical results).
* :func:`run_dag` -- the same for a service-DAG mesh
  (:class:`~repro.workloads.dag.DagSpec`).
* :func:`demo_fleet` -- the standard cross-node-culprit scenario spec.
"""

from .coordinator import CoordinatorDecision, GlobalCoordinator
from .directives import CLUSTER_OPS, Directive, priority_of
from .balancer import LoadBalancer
from .epoch import ShardError
from .fleet import Fleet, FleetResult, run_fleet
from .mesh import DagResult, Mesh, ServiceNode, ServiceStatus, run_dag
from .node import ClusterNode, NodeStatus
from .routing import (
    DagorAdmission,
    LeastOutstanding,
    NodeView,
    PowerOfTwoChoices,
    RoundRobin,
    RoutingPolicy,
    make_policy,
    policy_names,
)
from .spec import FleetSpec, NodeSpec, demo_fleet

__all__ = [
    "CLUSTER_OPS",
    "ClusterNode",
    "CoordinatorDecision",
    "DagResult",
    "DagorAdmission",
    "Directive",
    "Fleet",
    "FleetResult",
    "FleetSpec",
    "GlobalCoordinator",
    "Mesh",
    "ServiceNode",
    "ServiceStatus",
    "ShardError",
    "LeastOutstanding",
    "LoadBalancer",
    "NodeSpec",
    "NodeStatus",
    "NodeView",
    "PowerOfTwoChoices",
    "RoundRobin",
    "RoutingPolicy",
    "demo_fleet",
    "make_policy",
    "policy_names",
    "priority_of",
    "run_dag",
    "run_fleet",
]
