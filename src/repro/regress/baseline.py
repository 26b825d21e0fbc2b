"""The checked-in regression-baseline snapshot format.

A :class:`RegressBaseline` is a named collection of
:class:`CaseCapture` entries -- one per regress target run -- holding
everything the drift tests compare: the replayable
:class:`~repro.campaign.spec.RunSpec`, the summary scalars, the
per-window series payload (``extras["series"]``), post-hoc health-event
counts by rule, the decision/audit mixes, and (for custom-runner
families) the result content digest.

The JSON form is canonical -- keys sorted, floats pre-rounded to nine
decimals by the producers -- so a capture of an unchanged tree is
byte-identical across interpreters and hash seeds, and the file can be
checked in (``REGRESS_BASELINE.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Baseline snapshot schema; bump on incompatible layout changes.
REGRESS_SCHEMA = 1

#: The checked-in anchor for the standard case family (repo root).
DEFAULT_BASELINE_PATH = "REGRESS_BASELINE.json"

#: Summary scalars snapshotted per capture (NaN serializes as None).
SUMMARY_FIELDS = (
    "throughput",
    "p50_latency",
    "p99_latency",
    "mean_latency",
    "drop_rate",
    "completed",
    "dropped",
    "cancelled",
    "timed_out",
)


def _round(value: Any) -> Any:
    if isinstance(value, float):
        if value != value:
            return None
        return round(value, 9)
    return value


@dataclass
class CaseCapture:
    """One regress target's snapshot (everything the drift tests see)."""

    name: str
    spec: Dict[str, Any]
    summary: Dict[str, Any] = field(default_factory=dict)
    series: Optional[Dict[str, Any]] = None
    health_counts: Dict[str, int] = field(default_factory=dict)
    decision_mix: Dict[str, int] = field(default_factory=dict)
    audit_mix: Dict[str, int] = field(default_factory=dict)
    digest: Optional[str] = None
    #: Scraped-window telemetry summaries (``repro regress baseline
    #: --telemetry``); informational, absent from plain captures.
    telemetry: Optional[Dict[str, Any]] = None

    @classmethod
    def from_outcome(cls, name: str, outcome: Any) -> "CaseCapture":
        """Condense one :class:`~repro.campaign.spec.RunOutcome`."""
        from ..telemetry.health import series_health_counts

        summary = {
            key: _round(getattr(outcome.summary, key))
            for key in SUMMARY_FIELDS
        }
        extras = outcome.extras
        series = extras.get("series")
        health_counts = (
            series_health_counts(series) if series is not None else {}
        )
        return cls(
            name=name,
            spec=outcome.spec.to_dict(),
            summary=summary,
            series=series,
            health_counts=health_counts,
            decision_mix=dict(extras.get("decision_mix", {})),
            audit_mix=dict(extras.get("audit_mix", {})),
            digest=extras.get("dag_digest") or extras.get("fleet_digest"),
        )

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "spec": self.spec,
            "summary": self.summary,
            "series": self.series,
            "health_counts": self.health_counts,
            "decision_mix": self.decision_mix,
            "audit_mix": self.audit_mix,
            "digest": self.digest,
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CaseCapture":
        return cls(
            name=data["name"],
            spec=data["spec"],
            summary=data.get("summary", {}),
            series=data.get("series"),
            health_counts=data.get("health_counts", {}),
            decision_mix=data.get("decision_mix", {}),
            audit_mix=data.get("audit_mix", {}),
            digest=data.get("digest"),
            telemetry=data.get("telemetry"),
        )


@dataclass
class RegressBaseline:
    """A named, replayable snapshot of the regress targets."""

    name: str
    cases: List[CaseCapture] = field(default_factory=list)
    #: Capture provenance (seed, targets, repro version); informational
    #: only -- never compared by the drift tests.
    meta: Dict[str, Any] = field(default_factory=dict)

    def case(self, name: str) -> Optional[CaseCapture]:
        for capture in self.cases:
            if capture.name == name:
                return capture
        return None

    def specs(self) -> List[Any]:
        """The RunSpecs to replay for a check, in capture order."""
        from ..campaign.spec import RunSpec

        return [RunSpec.from_dict(capture.spec) for capture in self.cases]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REGRESS_SCHEMA,
            "generated_by": "repro regress baseline",
            "name": self.name,
            "meta": self.meta,
            "cases": [capture.to_dict() for capture in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RegressBaseline":
        schema = data.get("schema")
        if schema != REGRESS_SCHEMA:
            raise ValueError(
                f"unsupported regress baseline schema {schema!r} "
                f"(expected {REGRESS_SCHEMA})"
            )
        return cls(
            name=data.get("name", ""),
            meta=data.get("meta", {}),
            cases=[
                CaseCapture.from_dict(entry)
                for entry in data.get("cases", [])
            ],
        )

    @classmethod
    def read(cls, path: str) -> "RegressBaseline":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
