"""MongoDB extension cases c17-c18 (post-paper registry additions).

Both cases run through the same dynamics gates as the Table 2 set but
are flagged ``extension=True`` so the paper-figure sweeps stay pinned to
the 16 reproduced cases.  c17 is also the habitat where the lock-reshape
mitigation lever beats cancellation (see ``repro run ablate-levers``): the
storm's chunk-wise lock re-acquisitions are parkable, so victims recover
without the scans' work being lost.
"""

from __future__ import annotations

from ..apps.base import Operation
from ..apps.mongodb import MongoDB, MongoDBConfig, doc_mix
from ..workloads.spec import MixEntry, OpenLoopSource, ScheduledOp, Workload
from .base import CaseSpec, register_case


def _mongodb_factory(env, controller, rng):
    return MongoDB(env, controller, rng, config=MongoDBConfig())


@register_case("c17")
def build_c17() -> CaseSpec:
    """Aggregation scan storm convoys point reads on the collection lock."""

    def workload(app, rng, include_culprit):
        sources = [OpenLoopSource(rate=300.0, mix=doc_mix(rng))]
        if include_culprit:
            sources.append(
                OpenLoopSource(
                    rate=3.0,
                    mix=[
                        MixEntry(
                            factory=lambda: Operation(
                                "collection_scan",
                                {"collection": 0, "docs": 6e4},
                            ),
                            weight=1.0,
                        )
                    ],
                    client_id="analytics",
                    start_time=2.0,
                )
            )
        return Workload(sources)

    return CaseSpec(
        case_id="c17",
        app_name="mongodb",
        resource_type="Synchronization",
        resource_detail="Collection lock",
        trigger=(
            "Aggregation scans take the collection lock exclusively chunk "
            "by chunk; their queued re-acquisitions convoy point reads."
        ),
        culprit_ops={"collection_scan"},
        app_factory=_mongodb_factory,
        workload_factory=workload,
        extension=True,
    )


@register_case("c18")
def build_c18() -> CaseSpec:
    """Bulk insert of tiny documents makes cache eviction slow."""

    def workload(app, rng, include_culprit):
        sources = [OpenLoopSource(rate=300.0, mix=doc_mix(rng))]
        if include_culprit:
            for at in (2.0, 6.5):
                sources.append(
                    ScheduledOp(
                        at=at,
                        factory=lambda: Operation("bulk_insert", {"docs": 3e5}),
                        client_id="ingest",
                    )
                )
        return Workload(sources)

    return CaseSpec(
        case_id="c18",
        app_name="mongodb",
        resource_type="Memory",
        resource_detail="Document cache",
        trigger=(
            "Bulk-inserted tiny documents flood the document cache; "
            "page-packed eviction walks dozens of entries per page, so "
            "every hot-set re-fault stalls."
        ),
        culprit_ops={"bulk_insert"},
        app_factory=_mongodb_factory,
        workload_factory=workload,
        extension=True,
    )
