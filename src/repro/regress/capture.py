"""Capture regress snapshots by running targets through the campaign.

Capture and check share one code path: resolve ``(name, RunSpec)``
entries, execute them via :func:`repro.campaign.execute` (content-
addressed caching applies -- an unchanged tree re-serves the baseline's
own runs from cache), and condense each outcome into a
:class:`~repro.regress.baseline.CaseCapture`.

``recapture(perturb=...)`` is the seeded-drift hook: the overrides are
merged into the overlay of every spec that builds ATROPOS
(:func:`repro.experiments.case_family.overlaid`, the route the
ablations use), so a perturbed check runs a *genuinely different*
controller configuration (different cache key, different behaviour)
rather than faking drifted numbers; every other spec replays as is.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..campaign.spec import RunSpec
from ..experiments.case_family import overlaid
from .baseline import CaseCapture, RegressBaseline


def capture(
    name: str,
    entries: Sequence[Tuple[str, RunSpec]],
    jobs: Optional[int] = None,
    meta: Optional[Dict[str, Any]] = None,
    telemetry: bool = False,
    scrape_interval: float = 0.25,
) -> RegressBaseline:
    """Run the entries and snapshot the outcomes as a baseline.

    With ``telemetry=True`` every run executes under a scraping
    :class:`~repro.telemetry.TelemetrySession` (serial, cache reads
    skipped -- a cache hit would yield no scrape windows) and each
    capture additionally carries :func:`summarize_telemetry`'s condensed
    window summaries.  Scraping leaves the payloads unchanged and they
    are written to the cache, so a plain ``check`` on the same tree
    re-serves them.
    """
    from ..campaign import execute

    specs = [spec for _, spec in entries]
    if telemetry:
        from ..telemetry import TelemetrySession, telemetry_session

        session = TelemetrySession(interval=scrape_interval)
        with telemetry_session(session):
            outcomes = execute(specs, jobs=jobs)
        telemetry_runs = list(session.runs)
    else:
        outcomes = execute(specs, jobs=jobs)
        telemetry_runs = []
    cases = [
        CaseCapture.from_outcome(entry_name, outcome)
        for (entry_name, _), outcome in zip(entries, outcomes)
    ]
    for case, run in zip(cases, telemetry_runs):
        case.telemetry = summarize_telemetry(run)
    return RegressBaseline(name=name, cases=cases, meta=dict(meta or {}))


def summarize_telemetry(run: Any) -> Dict[str, Any]:
    """Condense one run's scrape windows into a deterministic summary.

    Per scraped key: sample count and min/mean/max/last over every
    finite window value, rounded to nine decimals (the same canonical
    rounding as the summary scalars), keys sorted -- so an unchanged
    tree produces a byte-identical telemetry block.
    """

    def _round(value: float) -> float:
        return round(value, 9)

    keys = sorted({key for window in run.windows for key in window.values})
    values: Dict[str, Dict[str, Any]] = {}
    for key in keys:
        samples = [
            window.values[key]
            for window in run.windows
            if key in window.values and window.values[key] == window.values[key]
        ]
        if not samples:
            continue
        values[key] = {
            "n": len(samples),
            "min": _round(min(samples)),
            "max": _round(max(samples)),
            "mean": _round(sum(samples) / len(samples)),
            "last": _round(samples[-1]),
        }
    return {
        "interval": run.interval,
        "windows": len(run.windows),
        "values": values,
    }


def recapture(
    baseline: RegressBaseline,
    jobs: Optional[int] = None,
    perturb: Optional[Dict[str, Any]] = None,
) -> RegressBaseline:
    """Re-run a baseline's own specs against the current tree.

    The baseline file is self-describing: each capture carries its
    RunSpec, so a check needs no target registry -- it replays exactly
    what was snapshotted (optionally perturbed).
    """
    entries = [
        (
            capture_.name,
            overlaid(RunSpec.from_dict(capture_.spec), perturb or {}),
        )
        for capture_ in baseline.cases
    ]
    meta = {"checked_against": baseline.name}
    if perturb:
        meta["perturb"] = dict(perturb)
    return capture(baseline.name, entries, jobs=jobs, meta=meta)


def parse_perturbations(pairs: Iterable[str]) -> Dict[str, Any]:
    """Parse CLI ``KEY=VALUE`` pairs; values are JSON when they parse.

    ``slo_slack=0.8`` -> float, ``adaptive_thresholds=true`` -> bool,
    anything unparseable stays a string.
    """
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"perturbation {pair!r} is not KEY=VALUE"
            )
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        overrides[key] = value
    return overrides
