"""Guard on the host cost of the request path under no controller.

Same discipline as ``test_trace_overhead.py``: *deterministic* counts
(``sys.setprofile`` at a fixed seed, ``gc`` disabled), never a clock.
Three uncontrolled case runs, one simulated second past their warm-up,
each read as work per request reaching a terminal record:

* **Python calls per request** -- in a pure-Python event loop the
  interpreter's per-call overhead is the cost, so this is the number a
  request-path change moves;
* **events scheduled per request** -- ``Environment.events_scheduled``;
* **``id()`` calls per request**, which must be none: a task's identity
  is its ``seq``, assigned once by ``create_cancel``.  Keyed by
  ``id(task)``, the controller's task table cost two builtin ``id()``
  calls per request even uncontrolled, and c1 made 14.1 per request
  under Protego and 12.9 under pBox; the last guard runs those two.

The cases are the three shapes of the path: c12 (Elasticsearch, CPU
time slices: the grant path), c18 (MongoDB, document flood: the
``DocumentBuffer`` loops) and c16 (etcd, a plain pumped request behind
one lock).

====  ===============================  ===============================
case  calls / request                  events / request
====  ===============================  ===============================
c12   146.5 -> 86.8 -> 67.8            8.48 -> 7.48 -> 4.77
c18   256.9 -> 117.4 -> 115.4 -> 92.7  5.65 -> 4.65 -> 3.65 -> 3.65
c16    97.1 -> 68.5 -> 65.6            6.01 -> 5.01 -> 3.53
====  ===============================  ===============================

The first column is the three-deep grant constructor, context-manager
slices, a heap completion per request process, per-document buffer
helpers and the tracing round trip under ``NullController``; the second
is one lean grant path, unjoined completions off the heap and
single-loop buffer access; the third starts pumped requests without an
``Initialize`` event and hands a CPU core on between two slices without
a grant event when that event would have been popped next; the fourth
(c18 only) keeps a flood's consecutive documents as one LRU entry, a
run, instead of one node each.  The bounds sit ~25 % above the last
column.  Wall-clock numbers are the
``apps.*.us_per_request`` rows of ``perf/``.

The second guard is on the flood's shape in the buffer: a c18 run whose
floods have filled the buffer holds far fewer LRU entries than
documents.

The third guard is on cyclic garbage: a request's objects must be
freed by reference counting when it ends.  A grant whose value was the
grant itself was a reference cycle that kept its request's task,
process and generator alive until the cyclic collector ran, about four
objects per request.
"""

import gc

import pytest

from repro.baselines import controller_factory
from repro.cases import get_case
from repro.experiments import run_simulation
from repro.sim import At

from .callcount import counted

#: case -> (max Python calls per request, max events per request).
BOUNDS = {
    "c12": (85.0, 6.0),
    "c18": (116.0, 4.6),
    "c16": (82.0, 4.4),
}


def _run_once(case_id):
    case = get_case(case_id)
    return case.run(None, seed=0, duration=case.warmup + 1.0)


@pytest.mark.parametrize("case_id", sorted(BOUNDS))
def test_calls_and_events_per_request(case_id):
    _run_once(case_id)  # warm imports / code caches outside the measurement

    result, calls, _, ids = counted(lambda: _run_once(case_id))

    requests = len(result.collector.records)
    events = result.driver.env.events_scheduled
    assert requests > 400  # the run did exercise the request path
    max_calls, max_events = BOUNDS[case_id]
    assert calls / requests < max_calls, (calls, requests)
    assert events / requests < max_events, (events, requests)
    assert ids == 0, (ids, requests)


def test_a_flood_is_held_as_runs():
    """c18 at t = 8 s (both floods started, 54,000 documents written,
    29,289 evicted from a full buffer) holds 29,650 resident documents
    in 2,400 LRU entries: the 27,264 flooded documents are 14 runs,
    about one per 2,000-document batch, and the 2,386 hot-set documents
    are singletons.  One node per document would be 29,650 entries."""
    result = get_case("c18").run(None, seed=0, duration=8.0)
    buffer = result.driver.app.doc_cache
    assert buffer.resident_docs("metrics") > 20_000
    assert buffer.lru_entries() * 10 < buffer.resident_docs()


@pytest.mark.parametrize(
    "case_id,system", [("c12", None), ("c18", None), ("c1", "atropos")]
)
def test_requests_leave_no_cyclic_garbage(case_id, system):
    """With ``gc`` disabled from the start, a collection one simulated
    second past the warm-up finds < 0.1 objects per completed request."""
    case = get_case(case_id)
    mid = case.warmup + 1.0
    found = []

    def workload(app, rng):
        At(app.env, mid).callbacks.append(
            lambda _: found.append(gc.collect())
        )
        return case.workload_factory(app, rng, True)

    factory = system and controller_factory(
        system, case.slo_latency, atropos_overrides=case.atropos_overrides
    )
    # An earlier run's garbage can take several collections to go: its
    # generators' ``finally`` blocks resurrect what they touch.
    while gc.collect():
        pass
    gc.disable()
    try:
        result = run_simulation(
            case.app_factory, workload, controller_factory=factory,
            duration=mid + 0.5, seed=0, warmup=case.warmup,
        )
    finally:
        gc.enable()
    completed = sum(
        1 for record in result.collector.records
        if record.completed and record.finish_time <= mid
    )
    assert completed > 400
    assert found[0] / completed < 0.1, (found, completed)


@pytest.mark.parametrize("system", ["protego", "pbox"])
def test_baselines_make_no_id_calls(system):
    """Protego's wait tables and pBox's penalties key by ``task.seq``."""
    case = get_case("c1")

    def run():
        return case.run(
            controller_factory(system, case.slo_latency),
            seed=0, duration=case.warmup + 1.0,
        )

    run()  # warm imports / code caches outside the measurement
    result, _, _, ids = counted(run)
    assert len(result.collector.records) > 400
    assert ids == 0, ids
