"""Output checks: every failure names the simulation run it fails.

A check returns ``[(run key, reason), ...]``; ``run.py`` counts each
distinct failing run once into ``failed``.  Nothing here pins a digest:
runs are compared with each other (pass against pass, serial against
sharded, campaign against in-process reference, controlled against
uncontrolled), so a later PR that changes behaviour on purpose -- and
regenerates ``REGRESS_BASELINE.json`` -- stays measurable.

A run that raised or ran out of time is already in its pass's
``failures``; the checks skip it instead of failing it twice.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from workloads import Pass, Run

Failure = Tuple[str, str]


def same_digests(first: Pass, later: Pass) -> List[Failure]:
    """Same seed, same inputs: every run of a later pass must reproduce
    the first pass's digest."""
    expected = {run.key: run.digest for run in first.runs}
    return [
        (run.key, "digest differs from the first pass")
        for run in later.runs
        if run.digest != expected.get(run.key, run.digest)
    ]


def serial_equals_sharded(pass_: Pass) -> List[Failure]:
    """fleet_mesh: the sharded run must equal the serial run's bytes."""
    digests = {run.key: run.digest for run in pass_.runs}
    return [
        (f"{tier}.sharded", "sharded digest differs from serial")
        for tier in ("fleet", "mesh")
        if {f"{tier}.serial", f"{tier}.sharded"} <= digests.keys()
        and digests[f"{tier}.serial"] != digests[f"{tier}.sharded"]
    ]


def warm_equals_cold(pass_: Pass) -> List[Failure]:
    """fig9_campaign: the warm re-run must render the cold run's tables."""
    if not pass_.runs or (
            pass_.extra["tables_cold"] == pass_.extra["tables_warm"]):
        return []
    return [(pass_.runs[0].key, "warm tables differ from cold tables")]


def matches_reference(pass_: Pass, reference: Sequence[Run]) -> List[Failure]:
    """fig9_campaign: jobs=2 payloads must equal the same specs run
    in-process (jobs=1, uncached)."""
    digests = {run.key: run.digest for run in pass_.runs}
    return [
        (run.key, "campaign payload differs from the in-process run")
        for run in reference
        if digests.get(run.key, run.digest) != run.digest
    ]


def controller_helps(controlled: Pass, uncontrolled: Pass) -> List[Failure]:
    """Every swept case: ATROPOS p99 <= uncontrolled p99 and ATROPOS
    throughput >= 0.9 x uncontrolled."""
    base = {run.key: run.data for run in uncontrolled.runs}
    failures = []
    for run in controlled.runs:
        if run.key not in base:
            continue
        p99, ref_p99 = run.data["p99"], base[run.key]["p99"]
        tput, ref_tput = run.data["throughput"], base[run.key]["throughput"]
        if math.isnan(p99) or p99 > ref_p99:
            failures.append(
                (run.key, f"p99 {p99:.4f} s above uncontrolled {ref_p99:.4f} s"))
        elif tput < 0.9 * ref_tput:
            failures.append(
                (run.key, f"throughput {tput:.1f}/s below 0.9 x "
                          f"uncontrolled {ref_tput:.1f}/s"))
    return failures


def regress_passes(report) -> List[Failure]:
    """The repo's own REGRESS_BASELINE.json must re-check as PASS."""
    return [
        (f"regress:{name}", "drifted from REGRESS_BASELINE.json")
        for name in report.drifting_names()
    ]
