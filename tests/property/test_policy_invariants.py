"""Property-based tests for Algorithm 1's dominance and scalarization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BaseController,
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
from repro.sim import Environment

RESOURCES = [
    ResourceHandle("r0", ResourceType.MEMORY),
    ResourceHandle("r1", ResourceType.LOCK),
    ResourceHandle("r2", ResourceType.QUEUE),
]

gain_vectors = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)

contentions = st.tuples(
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)


def make_reports(vectors):
    """Build live-task reports for the given gain vectors."""
    env = Environment()
    controller = BaseController(env)
    reports = []
    holders = []

    def body(env, slot):
        slot.append(controller.create_cancel())
        yield env.timeout(1000.0)

    for _ in vectors:
        slot = []
        env.process(body(env, slot))
        holders.append(slot)
    env.run(until=1e-6)
    for vec, slot in zip(vectors, holders):
        gains = {r: g for r, g in zip(RESOURCES, vec) if g > 0}
        reports.append(TaskReport(slot[0], 0.5, gains))
    return reports


@given(vectors=gain_vectors)
@settings(max_examples=100, deadline=None)
def test_non_dominated_set_is_nonempty_and_sound(vectors):
    reports = make_reports(vectors)
    nds = non_dominated_set(reports, RESOURCES)
    assert nds, "non-dominated set must never be empty"
    # No member dominates another member.
    for a in nds:
        for b in nds:
            if a is not b:
                assert not dominates(a, b, RESOURCES)
    # Every excluded report is dominated by some member.
    for report in reports:
        if report not in nds:
            assert any(dominates(m, report, RESOURCES) for m in nds)


@given(vectors=gain_vectors)
@settings(max_examples=100, deadline=None)
def test_dominance_is_irreflexive_and_asymmetric(vectors):
    reports = make_reports(vectors)
    for a in reports:
        assert not dominates(a, a, RESOURCES)
        for b in reports:
            if dominates(a, b, RESOURCES):
                assert not dominates(b, a, RESOURCES)


@given(vectors=gain_vectors, weights=contentions)
@settings(max_examples=100, deadline=None)
def test_selected_task_maximizes_scalarized_gain(vectors, weights):
    reports = make_reports(vectors)
    assessment = OverloadAssessment(
        resources=[
            ResourceReport(r, w, w, w > 0.25)
            for r, w in zip(RESOURCES, weights)
        ],
        tasks=reports,
    )
    selection = MultiObjectivePolicy().select(assessment)
    weight_map = dict(zip(RESOURCES, weights))

    def score(report):
        return sum(weight_map[r] * g for r, g in report.gains.items())

    if selection is None:
        # Legal only when no candidate has a positive scalarized score.
        assert all(score(rep) <= 0 for rep in reports)
        return
    task, reported_score = selection
    best = max(score(rep) for rep in reports)
    assert reported_score >= best - 1e-9
    # The winner is drawn from the non-dominated set.
    nds_tasks = {r.task.seq for r in non_dominated_set(reports, RESOURCES)}
    assert task.seq in nds_tasks
