"""Tests for capture/recapture and the seeded-perturbation hook."""

from dataclasses import replace

import pytest

from repro.campaign.spec import RunSpec
from repro.core.policy import GreedyHeuristicPolicy
from repro.experiments.case_family import case_spec, overlaid
from repro.experiments.harness import resolve_sim
from repro.experiments.regressable import (
    REGRESS_CASES,
    regress_entries,
)
from repro.regress.capture import (
    capture,
    parse_perturbations,
    recapture,
)
from repro.regress.compare import compare
from repro.sim.environment import Environment


def _short_case_spec(case_id="c1", seed=1, **overrides):
    """A real case spec clipped to a few simulated seconds for speed.

    c1's culprit phase starts early enough that five simulated seconds
    include real overload (and therefore real sensitivity to the
    detection-threshold perturbation the drift tests seed).
    """
    spec = case_spec("regress-test", case_id, seed, system="atropos",
                     overlay=overrides)
    return replace(spec, duration=5.0, warmup=1.0)


class TestParsePerturbations:
    def test_json_values(self):
        parsed = parse_perturbations(
            ["slo_slack=0.8", "adaptive_thresholds=true",
             "min_window_samples=5"]
        )
        assert parsed == {"slo_slack": 0.8, "adaptive_thresholds": True,
                          "min_window_samples": 5}

    def test_unparseable_value_stays_string(self):
        assert parse_perturbations(["mode=fast"]) == {"mode": "fast"}

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_perturbations(["no-equals-sign"])
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_perturbations(["=5"])


class TestApplyPerturbation:
    """``recapture(perturb=...)`` is ``overlaid`` over every spec."""

    def test_case_spec_identity_changes(self):
        spec = _short_case_spec()
        perturbed = overlaid(spec, {"contention_threshold": 0.6})
        assert perturbed.overlay == {"contention_threshold": 0.6}
        # Everything else rides along untouched.
        assert perturbed == replace(spec, overlay=perturbed.overlay)

    def test_merges_over_existing_overrides(self):
        spec = _short_case_spec(cancel_cooldown=0.1)
        perturbed = overlaid(spec, {"contention_threshold": 0.6})
        assert perturbed.overlay == {
            "cancel_cooldown": 0.1,
            "contention_threshold": 0.6,
        }

    def test_non_case_family_passes_through(self):
        spec = RunSpec(experiment="t", family="dag", params={})
        assert overlaid(spec, {"slo_slack": 0.8}) is spec

    @pytest.mark.parametrize("system", [None, "protego", "overload"])
    def test_a_case_spec_that_builds_no_atropos_keeps_its_key(self, system):
        spec = case_spec("t", "c1", 1, system=system)
        assert overlaid(spec, {"slo_slack": 0.8}) is spec

    def test_empty_overrides_pass_through(self):
        spec = _short_case_spec()
        assert overlaid(spec, {}) == spec

    def test_a_policy_perturbation_rekeys_only_the_atropos_specs(self):
        # ``regress check --perturb policy=heuristic``: every spec that
        # builds ATROPOS runs under the heuristic policy, under a new
        # key; every other spec keeps its own.
        perturb = parse_perturbations(["policy=heuristic"])
        atropos = case_spec("t", "c1", 1, system="atropos")
        others = [
            case_spec("t", "c1", 1, system="protego"),
            case_spec("t", "c1", 1, include_culprit=False),
        ]
        for spec in others:
            assert overlaid(spec, perturb) is spec
        perturbed = overlaid(atropos, perturb)
        assert perturbed.overlay == {"policy": "heuristic"}
        assert perturbed.cache_key() != atropos.cache_key()
        build = resolve_sim("case")(dict(perturbed.params), perturbed.overlay)
        controller = build.controller_factory(Environment())
        assert type(controller.policy) is GreedyHeuristicPolicy


class TestRegressEntries:
    def test_default_targets_cover_cases(self):
        entries = regress_entries()
        names = [name for name, _ in entries]
        assert names == [f"case:{cid}" for cid in REGRESS_CASES]

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            regress_entries(targets=("bogus",))

    def test_dag_and_cluster_targets(self):
        entries = regress_entries(targets=("dag", "cluster"))
        families = {spec.family for _, spec in entries}
        assert families == {"dag", "cluster"}

    def test_lever_target_pins_non_default_levers(self):
        entries = regress_entries(targets=("lever",))
        names = [name for name, _ in entries]
        assert names == ["lever:c17-lock_reshape", "lever:c17-composite"]
        assert [spec.overlay for _, spec in entries] == [
            {"lever": "lock_reshape"}, {"lever": "composite"},
        ]


class TestCaptureLoop:
    def test_unchanged_tree_recapture_passes(self):
        entries = [("case:c1", _short_case_spec())]
        baseline = capture("t", entries, jobs=1, meta={"seed": 1})
        current = recapture(baseline, jobs=1)
        report = compare(baseline, current)
        assert not report.drifted, report.format()
        # Identical runs must compare exactly equal, not just within
        # tolerance: that is what makes the verdict hash-seed stable.
        assert baseline.cases[0].to_dict() == current.cases[0].to_dict()

    def test_perturbed_recapture_drifts(self):
        entries = [("case:c1", _short_case_spec())]
        baseline = capture("t", entries, jobs=1)
        current = recapture(
            baseline, jobs=1, perturb={"contention_threshold": 0.6}
        )
        report = compare(baseline, current)
        assert report.drifted, report.format()
        assert report.drifting_names()
        assert current.meta["perturb"] == {"contention_threshold": 0.6}

    def test_recapture_replays_baseline_specs(self):
        entries = [("case:c1", _short_case_spec())]
        baseline = capture("t", entries, jobs=1)
        current = recapture(baseline, jobs=1)
        assert current.cases[0].spec == baseline.cases[0].spec
        assert current.meta["checked_against"] == "t"


class TestTelemetryCapture:
    def test_telemetry_capture_snapshots_window_summaries(self):
        entries = [("case:c1", _short_case_spec())]
        baseline = capture("t", entries, jobs=1, telemetry=True)
        telemetry = baseline.cases[0].telemetry
        assert telemetry is not None
        assert telemetry["interval"] == 0.25
        assert telemetry["windows"] > 0
        p99 = telemetry["values"]["p99"]
        assert p99["n"] <= telemetry["windows"]
        assert p99["min"] <= p99["mean"] <= p99["max"]
        # The block round-trips through the baseline JSON form.
        from repro.regress.baseline import RegressBaseline

        reread = RegressBaseline.from_dict(baseline.to_dict())
        assert reread.cases[0].telemetry == telemetry

    def test_telemetry_capture_is_deterministic(self):
        entries = [("case:c1", _short_case_spec())]
        first = capture("t", entries, jobs=1, telemetry=True)
        second = capture("t", entries, jobs=1, telemetry=True)
        assert first.cases[0].to_dict() == second.cases[0].to_dict()

    def test_plain_capture_has_no_telemetry_block(self):
        entries = [("case:c1", _short_case_spec())]
        baseline = capture("t", entries, jobs=1)
        assert baseline.cases[0].telemetry is None
        assert "telemetry" not in baseline.cases[0].to_dict()
