"""Registry of regressable targets for ``repro regress``.

A *regress entry* is ``(name, RunSpec)``: a stable display name plus the
declarative run the observatory snapshots and later replays.  Four
families are registered:

``case``
    The standard six-case single-node family under ATROPOS -- fig9's
    and fig10's runs at the same seed, cache entries included.  These
    carry full per-window series, health counts, and decision/audit
    mixes.
``dag``
    The microservice-DAG storm under the atropos controller; a custom-
    runner family, regressed on summary scalars plus the DagResult
    content digest.
``cluster``
    The coordinated fleet-attribution demo; regressed on summary
    scalars plus the FleetResult content digest.
``lever``
    The mitigation-lever contrast: lock-reshape and composite runs of
    the parkable lock case (c17), anchoring the Malthusian passivation
    path's audit mix and victim p99.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..campaign.spec import RunSpec

#: The standard regress case set: the quick-ablation four plus the two
#: SLO-variant cases (c7: 40ms SLO, c14 exercises re-execution).
REGRESS_CASES = ("c1", "c2", "c5", "c7", "c12", "c14")

#: The lever-family regress set: the parkable MongoDB lock case under
#: each non-default lever.
REGRESS_LEVER_CASES = ("c17",)

#: Experiment id stamped on regress-owned RunSpecs (bookkeeping only;
#: excluded from cache identity, so regress runs share cache entries
#: with the figures).
EXPERIMENT_ID = "regress"


def case_entries(
    cases: Iterable[str] = REGRESS_CASES, seed: int = 1
) -> List[Tuple[str, RunSpec]]:
    """ATROPOS runs of the named cases."""
    from .case_family import case_spec

    return [
        (
            f"case:{case_id}",
            case_spec(EXPERIMENT_ID, case_id, seed, system="atropos"),
        )
        for case_id in cases
    ]


def dag_entries(seed: int = 1) -> List[Tuple[str, RunSpec]]:
    """The DAG storm contrast's atropos arm (quick horizon)."""
    from ..workloads.dag import dag_storm
    from .dag_overload import dag_spec

    scenario = dag_storm(n_leaves=2).to_dict()
    return [
        (
            "dag:storm-atropos",
            dag_spec(EXPERIMENT_ID, "atropos", scenario, seed, 16.0, 4.0),
        )
    ]


def cluster_entries(seed: int = 1) -> List[Tuple[str, RunSpec]]:
    """The coordinated fleet-attribution demo (quick horizon)."""
    from ..cluster import demo_fleet
    from .cluster_attribution import cluster_spec

    fleet = demo_fleet(n_nodes=3, mode="coordinated").to_dict()
    return [
        (
            "cluster:coordinated",
            cluster_spec(EXPERIMENT_ID, fleet, seed, 12.0, 3.0),
        )
    ]


def lever_entries(seed: int = 1) -> List[Tuple[str, RunSpec]]:
    """Non-default lever runs of the parkable lock case (c17)."""
    from .case_family import case_spec

    return [
        (
            f"lever:{case_id}-{lever}",
            case_spec(EXPERIMENT_ID, case_id, seed, overlay={"lever": lever}),
        )
        for case_id in REGRESS_LEVER_CASES
        for lever in ("lock_reshape", "composite")
    ]


#: Target family name -> its entries, in capture order.
REGRESS_TARGETS = {
    "case": case_entries,
    "dag": dag_entries,
    "cluster": cluster_entries,
    "lever": lever_entries,
}


def regress_entries(
    targets: Iterable[str] = ("case",),
    cases: Iterable[str] = REGRESS_CASES,
    seed: int = 1,
) -> List[Tuple[str, RunSpec]]:
    """Resolve target family names into ``(name, RunSpec)`` entries.

    The default target set is the case family alone -- that is what the
    checked-in ``REGRESS_BASELINE.json`` anchors -- with ``dag`` and
    ``cluster`` opt-in (their runs are an order of magnitude slower).
    """
    entries: List[Tuple[str, RunSpec]] = []
    for target in targets:
        try:
            builder = REGRESS_TARGETS[target]
        except KeyError:
            raise KeyError(
                f"unknown regress target {target!r}; "
                f"known: {list(REGRESS_TARGETS)}"
            ) from None
        entries.extend(
            builder(cases, seed) if target == "case" else builder(seed)
        )
    return entries
