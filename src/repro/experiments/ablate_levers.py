"""Cancel vs lock-reshape vs composite levers across case families.

Not a paper figure: the head-to-head the mitigation-lever refactor
exists to ask -- *when does reshaping the lock queue beat killing the
task?* (ROADMAP open question; Malthusian Locks, arXiv 1511.06035).
For every case the sweep runs the non-overloaded baseline and ATROPOS
once per lever, and reports:

* normalized victim p99 under each lever;
* the action mix each lever produced (cancellations, parked waiters,
  lever no-ops) from the decision audit;
* the *regime verdict*: cases where lock-reshape beats cancellation on
  victim p99 without goodput loss (throughput within 1% of cancel's).

The quick set pairs the MySQL lock cases with the MongoDB extension
cases so both habitats show up: c17's chunk-wise scan storm is parkable
(reshape wins without losing the scans' work), while c18's memory flood
gives the lock lever nothing to park (cancel wins, reshape no-ops).
The levers share each case's baseline run (and its cache entry).
"""

from __future__ import annotations

from typing import List, Optional

from ..cases import all_case_ids
from .grid import case_sweep, norm_p99, norm_tput
from .tables import ExperimentResult, ExperimentTable

#: The levers contrasted, in report order.
LEVERS = ("cancel", "lock_reshape", "composite")

#: Quick-mode subset: MySQL lock convoys (c1 table lock, c4 SELECT FOR
#: UPDATE) plus both MongoDB extension cases (c17 lock, c18 memory).
QUICK_CASES = ["c1", "c4", "c17", "c18"]

#: Throughput tolerance for "without goodput loss" (relative to cancel).
GOODPUT_TOLERANCE = 0.01


def _action_mix(outcome, _baseline) -> str:
    parked = outcome.extras.get("audit_mix", {}).get("lock-reshaped", 0)
    return "{}c/{}p".format(outcome.cancels, parked)


def run(
    quick: bool = True,
    seed: int = 0,
    case_ids: Optional[List[str]] = None,
) -> ExperimentResult:
    """Run the mitigation-lever ablation."""
    if case_ids is None:
        case_ids = list(QUICK_CASES) if quick else all_case_ids()
    grid = case_sweep(
        "ablate-levers", case_ids, LEVERS, seed,
        lambda lever: {"overlay": {"lever": lever}},
    )
    p99 = grid.table("Mitigation levers: normalized victim p99", norm_p99)
    actions = grid.table(
        "Mitigation levers: action mix (cancelled / parked per lever)",
        _action_mix,
    )
    verdict = ExperimentTable(
        "Regimes where lock-reshape beats cancel "
        "(p99 lower, goodput within 1%)",
        ["case", "reshape/cancel p99", "goodput ratio", "reshape wins"],
    )
    reshape_wins = []
    for cid in case_ids:
        cancel = grid.cells[cid, "cancel"]
        reshape = grid.cells[cid, "lock_reshape"]
        p99_ratio = norm_p99(reshape, cancel)
        goodput_ratio = norm_tput(reshape, cancel)
        wins = p99_ratio < 1.0 and goodput_ratio >= 1.0 - GOODPUT_TOLERANCE
        if wins:
            reshape_wins.append(cid)
        verdict.add_row(cid, p99_ratio, goodput_ratio, "yes" if wins else "no")
    if reshape_wins:
        summary = (
            "lock-reshape beats cancel on victim p99 without goodput "
            "loss in: " + ", ".join(reshape_wins)
        )
    else:
        summary = (
            "no regime in this sweep favored lock-reshape over cancel"
        )
    return ExperimentResult(
        experiment_id="ablate-levers",
        description=(
            "Cancel vs lock-reshape vs composite mitigation levers "
            f"({summary})"
        ),
        tables=[p99, actions, verdict],
    )
