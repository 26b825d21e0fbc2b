"""Tests for cancellation policies (Algorithm 1 and ablations)."""

import pytest

from repro.core import (
    Atropos,
    AtroposConfig,
    BaseController,
    CurrentUsagePolicy,
    GreedyHeuristicPolicy,
    MultiObjectivePolicy,
    ResourceHandle,
    ResourceType,
    dominates,
    non_dominated_set,
)
from repro.core.estimator import (
    OverloadAssessment,
    ResourceReport,
    TaskReport,
)
from repro.core.policy import POLICIES
from repro.sim import Environment

A = ResourceHandle("resA", ResourceType.MEMORY)
B = ResourceHandle("resB", ResourceType.LOCK)


def make_task(env, controller, cancellable=True):
    """Create a task attached to a live process so it is cancellable."""
    holder = {}

    def body(env):
        holder["task"] = controller.create_cancel(cancellable=cancellable)
        yield env.timeout(1000.0)

    env.process(body(env))
    env.run(until=env.now + 0.001)
    return holder["task"]


def report(task, gains):
    return TaskReport(task=task, progress=0.5, gains=dict(gains))


def assessment(resources, task_reports):
    return OverloadAssessment(
        resources=[
            ResourceReport(
                resource=r, contention_raw=c, contention_norm=c, overloaded=c > 0.25
            )
            for r, c in resources
        ],
        tasks=task_reports,
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def controller(env):
    return BaseController(env)


class TestDominance:
    def test_strictly_better_dominates(self, env, controller):
        t1 = report(make_task(env, controller), {A: 5.0, B: 2.0})
        t2 = report(make_task(env, controller), {A: 4.0, B: 1.0})
        assert dominates(t1, t2, [A, B])
        assert not dominates(t2, t1, [A, B])

    def test_equal_does_not_dominate(self, env, controller):
        t1 = report(make_task(env, controller), {A: 5.0})
        t2 = report(make_task(env, controller), {A: 5.0})
        assert not dominates(t1, t2, [A])

    def test_tradeoff_neither_dominates(self, env, controller):
        t1 = report(make_task(env, controller), {A: 3.0, B: 0.0})
        t2 = report(make_task(env, controller), {A: 2.0, B: 2.0})
        assert not dominates(t1, t2, [A, B])
        assert not dominates(t2, t1, [A, B])

    def test_non_dominated_set(self, env, controller):
        t1 = report(make_task(env, controller), {A: 3.0, B: 0.0})
        t2 = report(make_task(env, controller), {A: 2.0, B: 2.0})
        t3 = report(make_task(env, controller), {A: 1.0, B: 1.0})  # dominated by t2
        nds = non_dominated_set([t1, t2, t3], [A, B])
        assert t1 in nds and t2 in nds and t3 not in nds


class TestMultiObjectivePolicy:
    def test_paper_scalarization_example(self, env, controller):
        """§3.5: C_mem=0.6, C_lock=0.4; A=(3,1) scores 2.2 beats B=(2,2)=2.0."""
        task_a = make_task(env, controller)
        task_b = make_task(env, controller)
        assess = assessment(
            [(A, 0.6), (B, 0.4)],
            [report(task_a, {A: 3.0, B: 1.0}), report(task_b, {A: 2.0, B: 2.0})],
        )
        policy = MultiObjectivePolicy()
        selected, score = policy.select(assess)
        assert selected is task_a
        assert score == pytest.approx(2.2)

    def test_skips_non_cancellable_tasks(self, env, controller):
        frozen = make_task(env, controller, cancellable=False)
        target = make_task(env, controller)
        assess = assessment(
            [(A, 0.6)],
            [report(frozen, {A: 100.0}), report(target, {A: 1.0})],
        )
        selected, _ = MultiObjectivePolicy().select(assess)
        assert selected is target

    def test_returns_none_without_candidates(self, env, controller):
        frozen = make_task(env, controller, cancellable=False)
        assess = assessment([(A, 0.6)], [report(frozen, {A: 5.0})])
        assert MultiObjectivePolicy().select(assess) is None

    def test_returns_none_when_all_gains_zero(self, env, controller):
        t = make_task(env, controller)
        assess = assessment([(A, 0.6)], [report(t, {})])
        assert MultiObjectivePolicy().select(assess) is None

    def test_min_age_excludes_young_tasks(self, env, controller):
        young = make_task(env, controller)  # age ~0.001
        assess = assessment([(A, 0.6)], [report(young, {A: 5.0})])
        assert MultiObjectivePolicy(min_age=1.0).select(assess) is None
        selected, _ = MultiObjectivePolicy(min_age=0.0).select(assess)
        assert selected is young

    def test_zero_weight_resource_contributes_nothing(self, env, controller):
        t1 = make_task(env, controller)
        t2 = make_task(env, controller)
        assess = assessment(
            [(A, 0.5), (B, 0.0)],
            [report(t1, {B: 100.0}), report(t2, {A: 1.0})],
        )
        selected, _ = MultiObjectivePolicy().select(assess)
        assert selected is t2


class TestGreedyHeuristicPolicy:
    def test_picks_max_gain_on_hottest_resource(self, env, controller):
        """Greedy ignores combined gains -- the limitation Fig 13 shows."""
        t1 = make_task(env, controller)
        t2 = make_task(env, controller)
        assess = assessment(
            [(A, 0.6), (B, 0.55)],
            [
                report(t1, {A: 3.0, B: 0.0}),
                report(t2, {A: 2.9, B: 5.0}),  # better overall, worse on A
            ],
        )
        greedy_pick, _ = GreedyHeuristicPolicy().select(assess)
        assert greedy_pick is t1
        moo_pick, _ = MultiObjectivePolicy().select(assess)
        assert moo_pick is t2

    def test_none_when_no_gain_on_hottest(self, env, controller):
        t = make_task(env, controller)
        assess = assessment([(A, 0.6), (B, 0.1)], [report(t, {B: 5.0})])
        assert GreedyHeuristicPolicy().select(assess) is None


class TestCurrentUsagePolicy:
    def test_flag_requests_current_usage(self):
        assert CurrentUsagePolicy().uses_future_gain is False
        assert MultiObjectivePolicy().uses_future_gain is True

    def test_same_selection_logic(self, env, controller):
        t1 = make_task(env, controller)
        t2 = make_task(env, controller)
        assess = assessment(
            [(A, 1.0)],
            [report(t1, {A: 5.0}), report(t2, {A: 3.0})],
        )
        selected, _ = CurrentUsagePolicy().select(assess)
        assert selected is t1


class TestConfiguredPolicy:
    @pytest.mark.parametrize(
        "policy_id,cls",
        [
            ("multi_objective", MultiObjectivePolicy),
            ("heuristic", GreedyHeuristicPolicy),
            ("current_usage", CurrentUsagePolicy),
        ],
    )
    def test_config_policy_selects_the_class(self, policy_id, cls):
        assert POLICIES[policy_id] is cls
        controller = Atropos(
            Environment(),
            AtroposConfig(policy=policy_id, min_cancel_age=0.5),
        )
        assert type(controller.policy) is cls
        assert controller.policy.min_age == 0.5
