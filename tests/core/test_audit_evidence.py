"""A decision audit is a record, rendered on read.

Each audit keeps its candidates as flat columns
(:class:`~repro.core.decision_log.CandidateColumns`) and builds the
ranked :class:`~repro.core.decision_log.CandidateEvidence` list only
when something reads it.  What it renders must be what the eager
builder it replaced produced (``reference_audit.py``), field for field
and type for type: rounding on read, ranking on the rounded scores,
then each lever pick with the policy's own score.

* **Differential.**  Every audit of c1, c7, c9 and c12 (12 s, seeds 0
  and 3) under each lever and each cancellation policy (c1 under
  ``lock_reshape`` in the slow suite), and the payloads a traced run
  carries on its ``decision`` instants.
* **Nothing eager.**  An untraced run builds no ``CandidateEvidence``.
* **Footprint.**  tracemalloc bytes the decision log's audits hold per
  candidate after a 30 s c9 run: 424.7 with one object and one gains
  dict per candidate, 170.5 as columns (the audit-level records of the
  518 audits included).  The bound sits ~15 % above the last reading.
"""

import sys
import tracemalloc
from dataclasses import fields

import pytest

from repro.baselines import controller_factory
from repro.cases import get_case
from repro.core.decision_log import CandidateEvidence, DecisionAudit
from repro.core.levers import LEVER_NAMES, MitigationLever
from repro.core.policy import POLICIES
from repro.obs import Tracer, tracing

from .reference_audit import (
    AUDIT_FIELDS,
    eager_candidates,
    mark_selected,
    payload,
)

MAX_BYTES_PER_CANDIDATE = 195.0

FIELDS = [f.name for f in fields(CandidateEvidence)]

OVERLAYS = [{"lever": lever} for lever in LEVER_NAMES] + [
    {"policy": policy} for policy in POLICIES if policy != "multi_objective"
]

#: c1 under the lock-reshape lever parks its culprits instead of
#: cancelling them: ~800 live candidates per audit, 158 k per run and
#: ~9 s per check, so those two runs are in the slow suite.
GRID = [
    pytest.param(
        case_id, seed, overlay,
        id=f"{case_id}-s{seed}-{'-'.join(overlay.values())}",
        marks=[pytest.mark.slow]
        if (case_id, overlay) == ("c1", {"lever": "lock_reshape"})
        else [],
    )
    for case_id in ("c1", "c7", "c9", "c12")
    for seed in (0, 3)
    for overlay in OVERLAYS
]


def _run(case_id, seed=0, duration=12.0, **overlay):
    case = get_case(case_id)
    overrides = dict(case.atropos_overrides, **overlay)
    return case.run(
        controller_factory("atropos", case.slo_latency, overrides),
        seed=seed,
        duration=duration,
    )


@pytest.fixture
def eager(monkeypatch):
    """Every audit a lever starts, paired with the eager reference
    evidence for the same assessment, picks applied to both."""
    pairs = []
    start = MitigationLever._start_audit
    select = DecisionAudit.select

    def start_audit(lever, now, sample, oldest_age, assessment):
        audit = start(lever, now, sample, oldest_age, assessment)
        pairs.append((audit, eager_candidates(assessment)))
        return audit

    def select_both(audit, task_key, score):
        select(audit, task_key, score)
        for recorded, candidates in reversed(pairs):
            if recorded is audit:
                mark_selected(candidates, task_key, score)
                return
        raise AssertionError("a pick on an audit no lever started")

    monkeypatch.setattr(MitigationLever, "_start_audit", start_audit)
    monkeypatch.setattr(DecisionAudit, "select", select_both)
    return pairs


def assert_same_candidates(got, want, where):
    """Field by field, in order; ``repr`` tells ``0`` from ``0.0``."""
    if repr(got) == repr(want):
        return
    assert len(got) == len(want), where
    for rank, (mine, theirs) in enumerate(zip(got, want)):
        assert list(mine) == list(theirs), (where, rank)
        for name in theirs:
            assert repr(mine[name]) == repr(theirs[name]), (
                where, rank, name, mine[name], theirs[name],
            )
    raise AssertionError(where)  # pragma: no cover - repr differs only


@pytest.mark.parametrize("case_id,seed,overlay", GRID)
def test_audits_render_what_the_eager_builder_built(
    eager, case_id, seed, overlay
):
    result = _run(case_id, seed, **overlay)
    audits = result.controller.decision_log.audits
    assert audits and len(audits) == len(eager)
    for index, (audit, (recorded, candidates)) in enumerate(
        zip(audits, eager)
    ):
        assert audit is recorded
        want = payload(candidates)
        got = audit.to_payload()
        assert tuple(got) == AUDIT_FIELDS
        assert_same_candidates(got["candidates"], want, index)
        # The objects are rendered by the same rows as the payload.
        assert [
            {name: getattr(c, name) for name in FIELDS}
            for c in audit.candidates
        ] == want, index


def test_a_traced_run_carries_the_eager_payloads(eager):
    tracer = Tracer()
    with tracing(tracer):
        _run("c1", seed=0)
    traced = tracer.audits
    assert traced and len(traced) == len(eager)
    assert any(p["verdict"] == "cancelled" for p in traced)
    for index, (got, (_, candidates)) in enumerate(zip(traced, eager)):
        assert tuple(got) == AUDIT_FIELDS
        assert_same_candidates(got["candidates"], payload(candidates), index)


def test_an_untraced_run_builds_no_candidate_evidence():
    init = CandidateEvidence.__init__.__code__
    built = 0

    def profiler(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is init:
            built += 1

    def counted(work):
        nonlocal built
        built = 0
        sys.setprofile(profiler)
        try:
            return work()
        finally:
            sys.setprofile(None)

    result = counted(lambda: _run("c9"))
    assert built == 0
    audits = result.controller.decision_log.audits
    candidates = sum(len(audit.columns) for audit in audits)
    assert candidates > 1000
    # The counter sees a read: one object per candidate, then.
    counted(lambda: [audit.candidates for audit in audits])
    assert built == candidates


def test_the_decision_log_holds_few_bytes_per_candidate():
    tracemalloc.start()
    try:
        result = _run("c9", duration=30.0)
        log = result.controller.decision_log
        candidates = sum(len(audit.columns) for audit in log.audits)
        held = tracemalloc.get_traced_memory()[0]
        log._audits.clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert candidates > 5000
    assert freed / candidates < MAX_BYTES_PER_CANDIDATE, (freed, candidates)
