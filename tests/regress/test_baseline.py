"""Tests for the regress baseline snapshot format."""

import json

import pytest

from repro.regress.baseline import (
    REGRESS_SCHEMA,
    CaseCapture,
    RegressBaseline,
)


def _capture(name="case:c1", **over):
    fields = dict(
        name=name,
        spec={
            "experiment": "regress",
            "family": "case",
            "params": {"case_id": "c1", "atropos_overrides": {}},
            "seed": 1,
        },
        summary={"throughput": 100.0, "p99_latency": 0.02},
        series={
            "window": 0.5,
            "end": [0.5, 1.0],
            "slo": 0.02,
            "throughput": [100.0, 102.0],
            "p99": [0.01, 0.02],
            "goodput": [99.0, 100.0],
            "cancels": [0, 1],
        },
        health_counts={"p99-ceiling": 0, "cancel-storm": 0},
        decision_mix={"detection": 10, "cancellation": 1},
        audit_mix={"cancelled": 1},
        digest=None,
    )
    fields.update(over)
    return CaseCapture(**fields)


class TestRoundTrip:
    def test_json_round_trip_is_identity(self, tmp_path):
        baseline = RegressBaseline(
            name="standard",
            cases=[_capture(), _capture(name="case:c2")],
            meta={"seed": 1},
        )
        path = tmp_path / "b.json"
        baseline.write(str(path))
        loaded = RegressBaseline.read(str(path))
        assert loaded.to_dict() == baseline.to_dict()
        # And the canonical text form is stable under a second cycle.
        loaded.write(str(path))
        assert RegressBaseline.read(str(path)).to_json() == \
            baseline.to_json()

    def test_json_is_canonical(self, tmp_path):
        baseline = RegressBaseline(name="b", cases=[_capture()])
        text = baseline.to_json()
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(
            json.dumps(json.loads(text), sort_keys=True)
        )

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            RegressBaseline.from_dict(
                {"schema": REGRESS_SCHEMA + 1, "name": "x", "cases": []}
            )

    def test_case_lookup(self):
        baseline = RegressBaseline(
            name="b", cases=[_capture(), _capture(name="case:c2")]
        )
        assert baseline.case("case:c2").name == "case:c2"
        assert baseline.case("nope") is None

    def test_specs_are_replayable(self):
        baseline = RegressBaseline(name="b", cases=[_capture()])
        (spec,) = baseline.specs()
        assert spec.family == "case"
        assert spec.params["case_id"] == "c1"
        assert spec.seed == 1


class TestFromOutcome:
    def test_capture_from_real_outcome(self):
        from repro.campaign import execute
        from repro.experiments.case_family import case_spec

        spec = case_spec("t", "c2", 1, system="atropos")
        (outcome,) = execute([spec], jobs=1)
        capture = CaseCapture.from_outcome("case:c2", outcome)
        assert capture.name == "case:c2"
        assert capture.spec == spec.to_dict()
        assert capture.summary["completed"] > 0
        assert capture.series is not None
        assert len(capture.series["throughput"]) == \
            len(capture.series["p99"])
        assert capture.decision_mix.get("detection", 0) > 0
        assert "p99-ceiling" in capture.health_counts
        assert capture.digest is None

    def test_nan_summary_serializes_as_none(self):
        class Summary:
            throughput = 1.0
            p50_latency = float("nan")
            p99_latency = float("nan")
            mean_latency = float("nan")
            drop_rate = 0.0
            completed = 0
            dropped = 0
            cancelled = 0
            timed_out = 0

        class Outcome:
            summary = Summary()
            extras = {}

            class spec:
                @staticmethod
                def to_dict():
                    return {"family": "case"}

        capture = CaseCapture.from_outcome("x", Outcome())
        assert capture.summary["p99_latency"] is None
        assert capture.summary["throughput"] == 1.0
        json.dumps(capture.to_dict())  # must stay JSON-able
