"""Guard on what a control step costs: calls per request under pBox,
DARC and ATROPOS.

Same discipline as ``test_trace_overhead.py``: *deterministic* counts
(``sys.setprofile`` at a fixed seed, ``gc`` disabled), never a clock.

* **pBox and DARC**, one fig9 run each (seed 0), three simulated seconds
  past warm-up: long enough for the backlog that used to make every
  window or release rescan it.  pBox assessed every live task on every
  resource each window; DARC's reserved pool re-judged every queued
  request on each release.  At one second past warm-up DARC's queue has
  not formed yet (85.9 calls per request before, 83.8 after).
* **ATROPOS against no controller** on c1 and c16, one second past
  warm-up: ROADMAP item 4 (a)'s target of at most 1.4x the uncontrolled
  calls per request.

====================  ===============================
run                   calls / request, before -> after
====================  ===============================
fig9 ``c1:pbox``      182.5 -> 111.4
fig9 ``c16:pbox``     472.7 -> 116.2
fig9 ``c1:darc``      124.4 -> 92.1
c1 ATROPOS / none     1.99x -> 1.33x
c16 ATROPOS / none    1.68x -> 1.17x
====================  ===============================

The per-run bounds sit ~25 % above the new values.  Wall-clock numbers
are the ``baselines.*.us_per_request`` rows of ``perf/`` and the
per-system table in docs/PERFORMANCE.md.
"""

import pytest

from repro import campaign
from repro.baselines import controller_factory
from repro.cases import get_case
from repro.experiments.case_family import case_spec
from repro.experiments.harness import resolve_sim, run_simulation

from .callcount import counted

#: (case, system) -> max Python calls per request.
BOUNDS = {
    ("c1", "pbox"): 139.0,
    ("c16", "pbox"): 145.0,
    ("c1", "darc"): 115.0,
}

MAX_ATROPOS_OVER_UNCONTROLLED = 1.4


def _fig9_run(case_id, system):
    campaign.load_all_families()
    spec = case_spec("fig9", case_id, 0, system=system)
    build = resolve_sim("case")(dict(spec.params))
    return run_simulation(
        build.app_factory, build.workload_factory, build.controller_factory,
        duration=build.warmup + 3.0, warmup=build.warmup, seed=0,
    )


def _case_run(case_id, atropos):
    case = get_case(case_id)
    factory = controller_factory(
        "atropos", case.slo_latency,
        atropos_overrides=dict(case.atropos_overrides),
    ) if atropos else None
    return case.run(factory, seed=0, duration=case.warmup + 1.0)


def _calls_per_request(run):
    run()  # warm imports / code caches outside the measurement
    result, calls, _, _ = counted(run)
    requests = len(result.collector.records)
    assert requests > 400  # the run did exercise the request path
    return calls / requests


@pytest.mark.parametrize("case_id, system", sorted(BOUNDS))
def test_baseline_calls_per_request(case_id, system):
    per_request = _calls_per_request(lambda: _fig9_run(case_id, system))
    assert per_request < BOUNDS[case_id, system], per_request


@pytest.mark.parametrize("case_id", ["c1", "c16"])
def test_atropos_calls_per_request_within_target(case_id):
    atropos = _calls_per_request(lambda: _case_run(case_id, True))
    uncontrolled = _calls_per_request(lambda: _case_run(case_id, False))
    ratio = atropos / uncontrolled
    assert ratio <= MAX_ATROPOS_OVER_UNCONTROLLED, (atropos, uncontrolled)
