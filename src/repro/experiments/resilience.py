"""Chaos matrix: ATROPOS vs baselines under injected faults (beyond the paper).

The paper's evaluation (§5) runs every case on healthy infrastructure;
its threats-to-validity discussion (§6) asks what happens when the
controller's assumptions break -- noisy signals, failed cancellations,
degraded substrates, load spikes.  This experiment answers empirically:
it sweeps a fault-kind x intensity grid (:mod:`repro.faults`) over the
reproduced cases for Overload (uncontrolled), ATROPOS, and Protego, and
reports

``norm_tput`` / ``norm_p99``
    Throughput and p99 of the faulted run normalized to the same
    system's *clean* run of the same case/seed (1.0 = fault had no
    effect).
``wrong_rate``
    Fraction of delivered cancellations whose operation is **not** one
    of the case's culprit operations -- the targeting-error rate under
    corrupted inputs (0 when nothing was cancelled).
``recovery_s``
    Seconds after the last fault lifts until p99 (0.5 s windows) is
    back within 1.2x the case SLO; ``inf`` if the run never recovers
    inside the horizon.

The grid is one :class:`~repro.experiments.grid.Sweep` -- rows
``(case, system)``, columns ``(kind, tier)``, each row against its
system's clean run -- so it caches, parallelizes, and is
byte-deterministic per seed like every other experiment.  Regenerate
with ``repro run resilience`` (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults import (
    FaultPlan,
    burst,
    cancel_delay,
    cancel_drop,
    crash,
    degrade,
    detector_noise,
    estimator_noise,
    partition,
    uncancellable,
)
from .case_family import case_spec
from .grid import Sweep, norm_p99, norm_tput
from .tables import ExperimentResult, ExperimentTable

#: Fault window shared by the whole grid: starts after warm-up, inside
#: every case's overload phase, and lifts well before the run ends so
#: recovery is observable.
FAULT_AT = 4.0
FAULT_DURATION = 4.0

#: The resource each case's ``degrade`` fault targets (dotted suffix of
#: the app resource name; the culprit-adjacent resource of the case).
DEGRADE_TARGETS: Dict[str, str] = {
    "c1": "buffer_pool",
    "c5": "buffer_pool",
    "c8": "disk",
    "c13": "heap",
}

QUICK_CASES = ["c1"]
FULL_CASES = ["c1", "c5", "c8"]
SYSTEMS = ["overload", "atropos", "protego"]
#: Fault kind -> constructor; its keywords are the kind's
#: :data:`INTENSITIES` parameters plus the shared fault window.
GRID_FAULTS = {
    "degrade": degrade,
    "detector-noise": detector_noise,
    "estimator-noise": estimator_noise,
    "cancel-delay": cancel_delay,
    "cancel-drop": cancel_drop,
    "uncancellable": uncancellable,
    "burst": burst,
    "partition": partition,
    "crash": crash,
}
FULL_KINDS = list(GRID_FAULTS)
QUICK_KINDS = [kind for kind in FULL_KINDS if kind != "crash"]

#: intensity tier -> per-kind fault parameters.
INTENSITIES: Dict[str, Dict[str, dict]] = {
    "low": {
        "degrade": {"factor": 0.75},
        "detector-noise": {"noise": 0.2},
        "estimator-noise": {"noise": 0.2},
        "cancel-delay": {"delay": 0.1},
        "cancel-drop": {"probability": 0.25},
        "uncancellable": {},
        "burst": {"factor": 1.5},
        "partition": {},
        "crash": {},
    },
    "high": {
        "degrade": {"factor": 0.5},
        "detector-noise": {"noise": 0.5},
        "estimator-noise": {"noise": 0.5},
        "cancel-delay": {"delay": 0.5},
        "cancel-drop": {"probability": 0.75},
        "uncancellable": {},
        "burst": {"factor": 2.5},
        "partition": {},
        "crash": {},
    },
}


def grid_plan(kind: str, case_id: str, intensity: str = "high") -> FaultPlan:
    """The one-fault plan the matrix injects for (kind, case, tier)."""
    if kind not in GRID_FAULTS:
        raise KeyError(f"unknown grid fault kind {kind!r}")
    params = dict(INTENSITIES[intensity][kind])
    if kind == "degrade":
        params["resource"] = DEGRADE_TARGETS.get(case_id, "buffer_pool")
    return FaultPlan.of(
        GRID_FAULTS[kind](at=FAULT_AT, duration=FAULT_DURATION, **params)
    )


def _wrong_rate(outcome, culprit_ops) -> float:
    """Fraction of delivered cancels that hit a non-culprit operation."""
    cancelled = outcome.extras.get("cancelled_ops", [])
    if not cancelled:
        return 0.0
    wrong = sum(1 for op in cancelled if op not in culprit_ops)
    return wrong / len(cancelled)


def _recovery_seconds(outcome, plan: FaultPlan, slo_latency: float) -> float:
    """Time from fault lift to sustained-SLO p99, from the cached series."""
    fault_end = plan.last_end()
    target = slo_latency * 1.2
    series = outcome.extras["series"]
    for end, p99 in zip(series["end"], series["p99"]):
        if end < fault_end:
            continue
        if p99 is not None and p99 <= target:
            return max(0.0, end - fault_end)
    return float("inf")


def run(
    quick: bool = True,
    case_ids: Optional[List[str]] = None,
    kinds: Optional[List[str]] = None,
    systems: Optional[List[str]] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Run the chaos matrix; quick = one case, one intensity tier."""
    if case_ids is None:
        case_ids = list(QUICK_CASES if quick else FULL_CASES)
    if kinds is None:
        kinds = list(QUICK_KINDS if quick else FULL_KINDS)
    if systems is None:
        systems = list(SYSTEMS)
    intensities = ["high"] if quick else ["low", "high"]

    columns = [(kind, tier) for kind in kinds for tier in intensities]

    def spec_for(row, column):
        (cid, system), (kind, tier) = row, column
        plan = grid_plan(kind, cid, tier)
        return case_spec("resilience", cid, seed, system=system, faults=plan)

    def clean(row):
        cid, system = row
        return case_spec("resilience", cid, seed, system=system)

    sweep = Sweep(
        "case", [(cid, system) for cid in case_ids for system in systems],
        columns, spec_for, reference=clean,
    )

    from ..cases import get_case

    tiers = "high" if quick else "low/high"
    table = ExperimentTable(
        "Chaos matrix: faulted run vs same system's clean run "
        f"(seed={seed}, intensity={tiers})",
        [
            "case", "fault", "intensity", "system",
            "norm_tput", "norm_p99", "drop_rate",
            "cancels", "wrong_rate", "recovery_s",
        ],
    )
    for cid in case_ids:
        case = get_case(cid)
        for kind, tier in columns:
            plan = grid_plan(kind, cid, tier)
            for system in systems:
                outcome = sweep.cells[(cid, system), (kind, tier)]
                base = sweep.references[cid, system]
                table.add_row(
                    cid, kind, tier, system,
                    norm_tput(outcome, base),
                    norm_p99(outcome, base),
                    outcome.drop_rate,
                    outcome.cancels,
                    _wrong_rate(outcome, case.culprit_ops),
                    _recovery_seconds(outcome, plan, case.slo_latency),
                )
    return ExperimentResult(
        experiment_id="resilience",
        description="Chaos matrix: fault kind x intensity vs systems",
        tables=[table],
    )
