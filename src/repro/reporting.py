"""Report generation: run experiments and render a reproduction record.

Used by ``python -m repro all`` to (re)generate the EXPERIMENTS-style
record of every figure and table.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from .experiments import ALL_EXPERIMENTS, EXPERIMENTS, ExperimentResult

#: The order artifacts appear in the paper.
DEFAULT_ORDER = [
    experiment.id for experiment in EXPERIMENTS if experiment.report
]


def run_experiments(
    ids: Optional[Iterable[str]] = None,
    quick: bool = True,
    seed: int = 0,
    progress=None,
) -> Dict[str, ExperimentResult]:
    """Run the requested experiments; returns id -> result."""
    ids = list(ids) if ids is not None else list(DEFAULT_ORDER)
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    results: Dict[str, ExperimentResult] = {}
    for exp_id in ids:
        started = time.time()
        results[exp_id] = ALL_EXPERIMENTS[exp_id](quick=quick, seed=seed)
        if progress is not None:
            progress(exp_id, time.time() - started)
    return results


def render_report(
    results: Dict[str, ExperimentResult],
    title: str = "Reproduction results",
) -> str:
    """Render results as a markdown-ish text report."""
    lines = [f"# {title}", ""]
    # Anything requested outside the default order follows it, sorted
    # by id so the rendered report is stable regardless of dict
    # insertion order.
    ordered = [exp_id for exp_id in DEFAULT_ORDER if exp_id in results]
    ordered += sorted(set(results) - set(DEFAULT_ORDER))
    for exp_id in ordered:
        lines += ["```", results[exp_id].format(), "```", ""]
    return "\n".join(lines)
