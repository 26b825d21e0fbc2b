#!/usr/bin/env python3
"""Print one digest per (case, system, seed): the byte-identity check.

Runs every registered case under every system in
``repro.baselines.SYSTEMS`` at seeds 0 and 3 for 12 simulated seconds,
and prints one line per run::

    <case> <system> <seed> <sha256 of Summary + extract_extras>

The digest is the benchmark's own (``run_digest`` in
``perf/workloads.py``), so the two never disagree on what "the same run"
means.  Then tiers 3-4, one line per (fleet mode | mesh controller,
seed) at the same seeds: a 3-node ``demo_fleet`` for 8 simulated
seconds and a ``dag_storm`` mesh for 12, each run serially::

    fleet <mode> <seed> <FleetResult.digest()>
    mesh <controller> <seed> <DagResult.digest()>

A change meant to move no output must print the same lines as
its parent (``diff`` the two outputs); CI does so against the merge
base.  The tree imported is the one this file lives in, whatever is
installed.

Usage::

    python tools/digest_sweep.py > digests.txt
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from typing import Iterable, Iterator, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 3)
DURATION = 12.0


def run_digest(case_id: str, system: str, seed: int) -> str:
    """The benchmark's digest of one run's ``Summary`` and extras."""
    if str(REPO_ROOT / "perf") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "perf"))
    from workloads import run_digest as digest

    from repro.baselines import controller_factory
    from repro.cases import get_case
    from repro.experiments.harness import extract_extras

    case = get_case(case_id)
    result = case.run(
        controller_factory(
            system, case.slo_latency,
            atropos_overrides=case.atropos_overrides,
        ),
        seed=seed,
        duration=DURATION,
    )
    return digest(dataclasses.asdict(result.summary), extract_extras(result))


def sweep(case_ids: Iterable[str], systems: Iterable[str],
          seeds: Iterable[int] = SEEDS) -> Iterator[str]:
    """One output line per (case, system, seed), in that nesting."""
    systems, seeds = list(systems), list(seeds)
    for case_id in case_ids:
        for system in systems:
            for seed in seeds:
                yield f"{case_id} {system} {seed} " + run_digest(
                    case_id, system, seed
                )


def tier_digest(tier: str, mode: str, seed: int) -> str:
    """The result digest of one short fleet or mesh run."""
    from repro.cluster import demo_fleet, run_dag, run_fleet
    from repro.workloads.dag import dag_storm

    if tier == "fleet":
        spec = demo_fleet(
            n_nodes=3, duration=8.0, warmup=2.0, mode=mode, seed=seed
        )
        return run_fleet(spec, jobs=1).digest()
    return run_dag(dag_storm(duration=12.0, seed=seed), mode, jobs=1).digest()


def tier_sweep(tiers: Iterable[Tuple[str, Iterable[str]]],
               seeds: Iterable[int] = SEEDS) -> Iterator[str]:
    """One output line per (tier, mode, seed), in that nesting."""
    seeds = list(seeds)
    for tier, modes in tiers:
        for mode in modes:
            for seed in seeds:
                yield f"{tier} {mode} {seed} " + tier_digest(tier, mode, seed)


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.baselines import SYSTEMS
    from repro.cases import all_case_ids
    from repro.cluster.spec import MODES
    from repro.workloads.dag import DAG_CONTROLLERS

    for line in sweep(all_case_ids(), SYSTEMS):
        print(line, flush=True)
    for line in tier_sweep([("fleet", MODES), ("mesh", DAG_CONTROLLERS)]):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
