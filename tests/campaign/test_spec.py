"""Tests for RunSpec identity, hashing, and serialization."""

import pytest

from repro.campaign.spec import (
    RunOutcome,
    RunSpec,
    code_fingerprint,
    load_all_families,
)
from repro.experiments.case_family import case_spec
from repro.experiments.harness import resolve_sim
from repro.sim.metrics import Summary


class TestRunSpec:
    def test_params_are_canonicalized(self):
        a = RunSpec("e", "f", {"b": 2, "a": 1})
        b = RunSpec("e", "f", {"a": 1, "b": 2})
        assert a.identity() == b.identity()
        assert a.cache_key() == b.cache_key()

    def test_identity_excludes_experiment(self):
        a = RunSpec("fig9", "case", {"case_id": "c1"}, seed=3)
        b = RunSpec("fig10", "case", {"case_id": "c1"}, seed=3)
        assert a.identity() == b.identity()
        assert a.cache_key() == b.cache_key()

    def test_identity_sensitive_to_params_seed_duration(self):
        base = RunSpec("e", "f", {"x": 1}, seed=0, duration=5.0)
        assert base.cache_key() != RunSpec(
            "e", "f", {"x": 2}, seed=0, duration=5.0
        ).cache_key()
        assert base.cache_key() != RunSpec(
            "e", "f", {"x": 1}, seed=1, duration=5.0
        ).cache_key()
        assert base.cache_key() != RunSpec(
            "e", "f", {"x": 1}, seed=0, duration=6.0
        ).cache_key()

    def test_round_trips_through_dict(self):
        spec = RunSpec("e", "f", {"x": [1, 2], "y": "z"}, seed=7,
                       duration=3.0, warmup=1.0)
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_adaptive_is_part_of_the_identity(self):
        fixed = RunSpec("e", "f", {"x": 1})
        adaptive = RunSpec(
            "e", "f", {"x": 1}, overlay={"adaptive_thresholds": True}
        )
        assert fixed.identity() != adaptive.identity()
        assert fixed.cache_key() != adaptive.cache_key()

    def test_adaptive_round_trips_and_defaults_false(self):
        adaptive = RunSpec("e", "f", {}, overlay={"adaptive_thresholds": True})
        clone = RunSpec.from_dict(adaptive.to_dict())
        assert clone.overlay == {"adaptive_thresholds": True}
        assert clone == adaptive
        # Payloads written before the overlay existed load without one.
        legacy = {k: v for k, v in RunSpec("e", "f", {}).to_dict().items()
                  if k != "overlay"}
        assert RunSpec.from_dict(legacy) == RunSpec("e", "f", {})

    def test_overlay_is_canonical_and_none_means_empty(self):
        a = RunSpec("e", "f", {}, overlay={"b": (1, 2), "a": 1})
        b = RunSpec("e", "f", {}, overlay={"a": 1, "b": [1, 2]})
        assert a == b and a.cache_key() == b.cache_key()
        assert RunSpec("e", "f", {}, overlay=None) == RunSpec("e", "f", {})
        assert len(RunSpec.__dataclass_fields__) == 8
        assert not hasattr(a, "adaptive") and not hasattr(a, "lever")

    def test_label_names_experiment_and_seed(self):
        spec = RunSpec("fig2", "fig2.point", {"load": 100.0}, seed=4)
        assert "fig2" in spec.label()
        assert "seed=4" in spec.label()

    def test_fig9_case_labels_are_one_per_run(self):
        # A fig9 case is its reference run plus one run per system:
        # telemetry exports every run under its label, so they differ.
        specs = [case_spec("fig9", "c1", include_culprit=False)] + [
            case_spec("fig9", "c1", system=system)
            for system in ("atropos", "protego", "pbox", "darc", "parties")
        ]
        labels = [spec.label() for spec in specs]
        assert len(set(labels)) == 6
        assert labels[4] == "fig9:case:case_id=c1:system=darc:seed=0"

    def test_label_tells_every_identity_field_apart(self):
        base = RunSpec("e", "f", {"x": 1, "nested": {"a": [1]}})
        variants = [
            base,
            RunSpec("e", "f", {"x": 2, "nested": {"a": [1]}}),
            RunSpec("e", "f", {"x": 1, "nested": {"a": [2]}}),
            RunSpec("e", "f", {"x": 1}),
            RunSpec("e", "f", base.params, overlay={"policy": "fifo"}),
            RunSpec("e", "f", base.params, faults={"faults": [1]}),
            RunSpec("e", "f", base.params, duration=5.0),
            RunSpec("e", "f", base.params, warmup=1.0),
            RunSpec("e", "f", base.params, seed=1),
            RunSpec("other", "f", base.params),
        ]
        assert len({spec.label() for spec in variants}) == len(variants)
        # Deterministic, and blind to param order like the cache key.
        assert base.label() == RunSpec(
            "e", "f", {"nested": {"a": [1]}, "x": 1}
        ).label()
        assert "overlay.policy=fifo" in variants[4].label()

    def test_unknown_family_raises_with_known_names(self):
        load_all_families()
        with pytest.raises(KeyError, match="fig2.point"):
            resolve_sim("no-such-family")


class TestCacheKey:
    def test_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_key_is_hex_digest(self):
        key = RunSpec("e", "f", {}).cache_key()
        assert len(key) == 64
        int(key, 16)


class TestCaseSpecHelper:
    def test_defaults_are_dropped_for_stable_hashing(self):
        # include_culprit=True and None-valued params are physically
        # identical to their absence; they must hash identically so
        # experiments share cached runs.
        a = case_spec("fig9", "c1", 0)
        b = case_spec("fig10", "c1", 0, include_culprit=True, system=None)
        assert a.cache_key() == b.cache_key()

    def test_baseline_differs_from_overload(self):
        a = case_spec("e", "c1", 0)
        b = case_spec("e", "c1", 0, include_culprit=False)
        assert a.cache_key() != b.cache_key()


class TestRunOutcome:
    def _outcome(self, ops):
        summary = Summary(
            duration=10.0, throughput=10.0, p50_latency=0.1,
            p99_latency=0.5, mean_latency=0.2, drop_rate=0.0,
            completed=100, dropped=0, cancelled=2, timed_out=0,
        )
        return RunOutcome(
            spec=RunSpec("e", "f", {}),
            summary=summary,
            extras={"cancels_issued": 2, "first_cancelled_op": "dump",
                    "ops": ops},
            walltime=0.1,
            cache_hit=False,
            worker="inline",
        )

    def test_metric_properties(self):
        outcome = self._outcome({})
        assert outcome.throughput == 10.0
        assert outcome.p99_latency == 0.5
        assert outcome.cancels == 2
        assert outcome.first_cancelled_op == "dump"

    def test_mean_latency_over_is_exact(self):
        outcome = self._outcome({
            "a": {"n": 2, "latency_sum": 1.0},
            "b": {"n": 2, "latency_sum": 3.0},
        })
        assert outcome.completed_ops() == ["a", "b"]
        assert outcome.mean_latency_over(["a", "b"]) == 1.0
        assert outcome.mean_latency_over(["a"]) == 0.5

    def test_payload_round_trip(self):
        outcome = self._outcome({"a": {"n": 1, "latency_sum": 0.25}})
        clone = RunOutcome.from_payload(
            outcome.spec, outcome.to_payload(), cache_hit=True
        )
        assert clone.summary == outcome.summary
        assert clone.extras == outcome.extras
        assert clone.cache_hit

    def test_adaptations_default_and_extras(self):
        outcome = self._outcome({})
        assert outcome.adaptations == 0
        outcome.extras["adaptations"] = 5
        assert outcome.adaptations == 5
