"""Run identity: one config overlay, one ATROPOS build path.

What configures the ATROPOS a ``case`` run builds reaches it one way
(``RunSpec.overlay`` over the case's own overrides, chosen by ``system``
alone), the three spellings older payloads used still read as that, and
a knob changes the cache key of exactly the runs whose controller it
changes.
"""

import json
from pathlib import Path

import pytest

from repro.campaign import (
    RunOutcome,
    RunSpec,
    execute,
    reset_session_stats,
    runner,
    session_stats,
    settings,
)
from repro.cases import get_case
from repro.core.config import AtroposConfig
from repro.experiments import ablate_adaptive, fig9_comparison
from repro.experiments.case_family import case_spec
from repro.experiments.harness import resolve_sim
from repro.experiments.regressable import regress_entries
from repro.sim.environment import Environment
from repro.sim.metrics import Summary

BASELINE = Path(__file__).resolve().parents[2] / "REGRESS_BASELINE.json"


def _legacy(params, **fields):
    """A spec dict as ``RunSpec.to_dict()`` wrote it before schema 8."""
    return {
        "experiment": "t", "family": "case", "seed": 0, "duration": None,
        "warmup": None, "faults": None, "adaptive": False, "lever": None,
        "params": {"case_id": "c2", **params}, **fields,
    }


def test_checked_in_baseline_specs_read_as_todays_entries():
    stored = json.loads(BASELINE.read_text())["cases"]
    fresh = regress_entries(targets=("case", "lever"), seed=1)
    assert [c["name"] for c in stored] == [name for name, _ in fresh]
    assert len(stored) == 8
    for capture, (_, spec) in zip(stored, fresh):
        assert "overlay" not in capture["spec"]  # still the old shape
        read = RunSpec.from_dict(capture["spec"])
        assert read == spec
        assert read.cache_key() == spec.cache_key()


#: old spelling -> the same run said today.
SPELLINGS = {
    "system": (
        _legacy({"system": "atropos"}),
        dict(system="atropos"),
    ),
    "empty-overrides": (
        _legacy({"atropos_overrides": {}}),
        dict(system="atropos"),
    ),
    "overrides-beat-system": (
        _legacy({"system": "protego", "atropos_overrides": {"slo_slack": 1.0}}),
        dict(overlay={"slo_slack": 1.0}),
    ),
    "policy+overrides": (
        _legacy({"policy": "heuristic",
                 "atropos_overrides": {"cancel_cooldown": 0.2}}),
        dict(overlay={"policy": "heuristic", "cancel_cooldown": 0.2}),
    ),
    "adaptive+lever": (
        _legacy({"system": "atropos"}, adaptive=True, lever="composite"),
        dict(overlay={"adaptive_thresholds": True, "lever": "composite"}),
    ),
    "adaptive-on-a-baseline-was-ignored": (
        _legacy({"system": "protego"}, adaptive=True, lever="composite"),
        dict(system="protego"),
    ),
}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_old_spellings_build_the_controller_their_new_form_builds(spelling):
    old, new = SPELLINGS[spelling]
    old_spec = RunSpec.from_dict(old)
    new_spec = case_spec("t", "c2", 0, **new)
    assert old_spec == new_spec

    def controller(spec):
        overlay = (spec.overlay,) if spec.overlay else ()
        build = resolve_sim("case")(dict(spec.params), *overlay)
        return build.controller_factory(Environment())

    built, expected = controller(old_spec), controller(new_spec)
    assert type(built) is type(expected)
    if new_spec.params["system"] == "atropos":
        assert type(built.policy) is type(expected.policy)
        assert built.config == expected.config
        assert built.config == AtroposConfig(
            slo_latency=get_case("c2").slo_latency,
            **{**get_case("c2").atropos_overrides, **new_spec.overlay},
        )


def test_an_overlay_on_another_system_is_an_error():
    with pytest.raises(ValueError, match="only ATROPOS"):
        case_spec("t", "c1", 0, system="protego", overlay={"slo_slack": 1.0})


@pytest.mark.parametrize(
    "retired",
    [
        {"atropos_overrides": {}},
        {"adaptive": True},
        {"lever": "x"},
        {"policy": "heuristic"},
    ],
)
def test_a_retired_keyword_is_an_error_not_an_ignored_param(retired):
    with pytest.raises(TypeError, match="overlay="):
        case_spec("t", "c1", 0, system="atropos", **retired)


@pytest.fixture
def instant_runs(monkeypatch):
    """``_execute_one`` stubbed: every run 'finishes' at once."""
    summary = Summary(
        duration=10.0, throughput=100.0, p50_latency=0.01, p99_latency=0.05,
        mean_latency=0.02, drop_rate=0.0, completed=1000, dropped=0,
        cancelled=0, timed_out=0,
    )

    def fake(spec, label=None):
        return RunOutcome(spec=spec, summary=summary, extras={}).to_payload()

    monkeypatch.setattr(runner, "_execute_one", fake)


def _stats(run, **scope):
    reset_session_stats()
    with settings(**scope):
        run()
    stats = session_stats()
    return stats.hits, stats.misses


def test_adaptive_rekeys_only_the_runs_that_build_atropos(
    instant_runs, tmp_path
):
    def fig9():
        fig9_comparison.run(quick=True, seed=0)

    assert _stats(fig9, cache_dir=tmp_path) == (0, 96)
    assert _stats(fig9, cache_dir=tmp_path, adaptive=True) == (80, 16)
    assert _stats(fig9, cache_dir=tmp_path, adaptive=True) == (96, 0)

    # ablate-adaptive's baseline and `fixed` columns are fig9's runs; its
    # `adaptive` column is what `fig9 --adaptive` just wrote.
    def ablation():
        ablate_adaptive.run(quick=True, seed=0)

    assert _stats(ablation, cache_dir=tmp_path) == (12, 0)

    # ... and so are the regress `case:*` entries at the same seed.
    def regress():
        execute([spec for _, spec in regress_entries(seed=0)])

    assert _stats(regress, cache_dir=tmp_path) == (6, 0)


def test_execute_runs_the_specs_it_was_handed(instant_runs, tmp_path):
    specs = [
        case_spec("t", "c1", 0, system="atropos"),
        case_spec("t", "c1", 0, system="protego"),
    ]
    with settings(cache_dir=tmp_path, adaptive=True):
        outcomes = execute(specs)
    assert [outcome.spec for outcome in outcomes] == specs
    assert all(outcome.spec.overlay == {} for outcome in outcomes)
