"""Guard on what a run leaves once its result is dropped: nothing.

``run_simulation`` closes the run's environment when its
:class:`~repro.experiments.harness.RunResult` is dropped
(``Environment.close``): every request still in flight is finalized
there, once, and the pending events go.  With no static reference cycle
left in the kernel, the applications or the controllers, the run is then
freed by reference counting -- never left to the cyclic collector,
which frees a finished run only at its next full collection and, until
then, keeps its records, decision log and buffers in memory.

Each check runs a case with the collector paused and drops the result:
the run's environment, driver, controller, application and collector
must be gone at once, and one collection asked what was unreachable
(``DEBUG_SAVEALL``) may name no piece of the run either.  Two small
islands are allowed because neither reaches the run: the
``DocumentBuffer`` LRU links and the ledger records of tasks still live
at the end.
"""

import gc
import types
import weakref

import pytest

from repro.apps.base import Application
from repro.baselines import SYSTEMS, controller_factory
from repro.cases import all_case_ids, get_case
from repro.core.controller import BaseController
from repro.core.decision_log import DecisionAudit
from repro.experiments.harness import extract_extras
from repro.sim import Environment
from repro.sim.metrics import MetricsCollector, RequestRecord
from repro.sim.process import Process
from repro.workloads.driver import Driver

#: What a finished run is made of; none of it may be cyclic garbage.
RUN_PARTS = (
    Environment,
    Process,
    types.GeneratorType,
    Driver,
    MetricsCollector,
    RequestRecord,
    Application,
    BaseController,
    DecisionAudit,
)

RUNS = [
    (system, case_id)
    for system in ("none", "atropos")
    for case_id in all_case_ids()
] + [
    (system, case_id)
    for system in SYSTEMS
    if system not in ("overload", "atropos")
    for case_id in ("c1", "c12")
]


def _run(system, case_id):
    case = get_case(case_id)
    return case.run(
        controller_factory(system, case.slo_latency, case.atropos_overrides),
        duration=3.0,
    )


def left_behind(run):
    """By type name: the run parts still alive right after the run's
    result is dropped, then those one collection finds unreachable.
    ``run()`` returns ``(result, parts)``: the result, and the parts of
    the run that must go with it."""
    # What earlier tests left is not this run's.  Finalizing it runs
    # cleanup that can leave new garbage (an unclosed simulation's
    # generators), so collect until nothing is found.
    while gc.collect():
        pass
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result, parts = run()
        refs = [weakref.ref(part) for part in parts]
        del result, parts
        alive = [
            f"alive:{type(part()).__name__}" for part in refs
            if part() is not None
        ]
        gc.collect()
        found = alive + sorted(
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, RUN_PARTS)
        )
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    return found


def _run_with_parts(system, case_id):
    result = _run(system, case_id)
    extract_extras(result)
    driver = result.driver
    return result, [
        driver.env, driver, result.controller, result.app, result.collector,
    ]


@pytest.mark.parametrize(
    "system,case_id", RUNS, ids=[f"{s}-{c}" for s, c in RUNS]
)
def test_a_dropped_run_leaves_no_cyclic_garbage(system, case_id):
    assert left_behind(lambda: _run_with_parts(system, case_id)) == []


def test_a_held_result_is_untouched_and_dropping_it_finalizes_once(
    monkeypatch,
):
    closes = []
    close = Environment.close

    def counting_close(env):
        closes.append(env)
        close(env)

    monkeypatch.setattr(Environment, "close", counting_close)
    result = _run("atropos", "c1")
    env, driver, controller = result.driver.env, result.driver, result.controller
    inflight = driver.inflight
    live = sorted(controller.tasks)
    records = list(result.collector.records)
    assert inflight > 0 and live and env.alive_processes > 0

    gc.collect()  # a held result keeps its run exactly as it ended
    assert driver.inflight == inflight
    assert sorted(controller.tasks) == live
    assert result.collector.records == records
    assert closes == []

    del result
    assert closes == [env]
    assert driver.inflight == 0
    assert env.alive_processes == 0 and env.queue_depth == 0
    gc.collect()
    assert closes == [env]
