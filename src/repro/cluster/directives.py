"""Coordinator directives and the cluster-level operation vocabulary.

The load balancer and the nodes speak a backend-neutral op vocabulary
(``point``/``write``/``heavy_report``/``fanout_scan``); each node maps
those onto its backend's native handlers (see
:meth:`repro.cluster.node.ClusterNode`).  Directives are symbolic --
"cancel every live ``fanout_scan``", "quarantine ``fanout_scan``" -- so
they serialize across shard-process pipes and survive node restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: The cluster-level ops, in DAGOR admission-priority order: lower value
#: = more business-critical = shed last.
CLUSTER_OPS = ("point", "write", "heavy_report", "fanout_scan")

_PRIORITY = {name: index for index, name in enumerate(CLUSTER_OPS)}

#: Directive kinds.
CANCEL = "cancel"
QUARANTINE = "quarantine"


def priority_of(op: str) -> int:
    """DAGOR priority of a cluster op (unknown ops shed first)."""
    return _PRIORITY.get(op, len(CLUSTER_OPS))


@dataclass(frozen=True)
class Directive:
    """One fleet-wide coordinator action, addressed to every node.

    ``cancel`` asks each node to cancel its live tasks running ``op``
    (one sweep per node, so partitioned nodes miss it and retry later);
    ``quarantine`` additionally tells the load balancer to stop routing
    ``op``.
    """

    epoch: int
    kind: str
    op: str
    reason: str = ""
    issued_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (CANCEL, QUARANTINE):
            raise ValueError(f"unknown directive kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "kind": self.kind,
            "op": self.op,
            "reason": self.reason,
            "issued_at": round(self.issued_at, 9),
        }
