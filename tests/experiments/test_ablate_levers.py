"""Tests for the mitigation-lever ablation (`repro run ablate-levers`)."""

import pytest

from repro.experiments.ablate_levers import LEVERS, QUICK_CASES, run
from repro.experiments.case_family import case_spec


class TestSpecIdentity:
    def test_lever_runs_never_share_cache_entries(self):
        import json

        identities = {
            json.dumps(
                case_spec("ablate-levers", "c17", 0,
                          overlay={"lever": lever}).identity(),
                sort_keys=True,
            )
            for lever in LEVERS
        }
        assert len(identities) == len(LEVERS)

    def test_baseline_shared_with_other_ablations(self):
        ours = case_spec("ablate-levers", "c1", 0, include_culprit=False)
        theirs = case_spec("ablate-adaptive", "c1", 0, include_culprit=False)
        assert ours.identity() == theirs.identity()

    def test_quick_set_spans_both_families(self):
        from repro.cases import get_case

        apps = {get_case(cid).app_name for cid in QUICK_CASES}
        assert apps == {"mysql", "mongodb"}


class TestLeverContrast:
    def test_cancel_and_lock_reshape_pull_different_levers(self):
        from repro.campaign import execute

        cancel, reshape = execute([
            case_spec("lever-test", "c17", 0, overlay={"lever": "cancel"}),
            case_spec("lever-test", "c17", 0,
                      overlay={"lever": "lock_reshape"}),
        ])
        cancel_mix = cancel.extras["audit_mix"]
        reshape_mix = reshape.extras["audit_mix"]
        assert cancel_mix != reshape_mix
        assert cancel.cancels > 0
        assert reshape.cancels == 0
        assert reshape_mix.get("lock-reshaped", 0) > 0
        assert "lock-reshaped" not in cancel_mix


@pytest.mark.slow
class TestLeverAblationEndToEnd:
    def test_c17_is_a_reshape_wins_regime(self):
        result = run(case_ids=["c17"], seed=0)
        assert "c17" in result.description
        assert "beats cancel" in result.description
        verdict = result.tables[-1]
        (row,) = verdict.rows
        assert row[0] == "c17"
        assert row[1] < 1.0  # reshape p99 below cancel p99
        assert row[2] >= 0.99  # no goodput loss
        assert row[3] == "yes"

    def test_c18_memory_regime_favors_cancel(self):
        result = run(case_ids=["c18"], seed=0)
        (row,) = result.tables[-1].rows
        assert row[0] == "c18"
        assert row[3] == "no"
        # The lock lever has nothing to park in a memory overload.
        actions = result.tables[1]
        assert actions.rows[0][LEVERS.index("lock_reshape") + 1] == "0c/0p"
