"""Guard on the host cost of the request path under no controller.

Same discipline as ``test_trace_overhead.py``: *deterministic* counts
(``sys.setprofile`` at a fixed seed, ``gc`` disabled), never a clock.
Three uncontrolled case runs, one simulated second past their warm-up,
each read as work per request reaching a terminal record:

* **Python calls per request** -- in a pure-Python event loop the
  interpreter's per-call overhead is the cost, so this is the number a
  request-path change moves;
* **events scheduled per request** -- ``Environment.events_scheduled``.

The cases are the three shapes of the path: c12 (Elasticsearch, CPU
time slices: the grant path), c18 (MongoDB, document flood: the
``DocumentBuffer`` loops) and c16 (Apache, a plain worker-pool request).

====  ==================  ==================
case  calls / request     events / request
====  ==================  ==================
c12   146.5 -> 86.8       8.48 -> 7.48
c18   256.9 -> 117.4      5.65 -> 4.65
c16    97.1 -> 68.5       6.01 -> 5.01
====  ==================  ==================

Before is the three-deep grant constructor, context-manager slices, a
heap completion per request process, per-document buffer helpers and the
tracing round trip under ``NullController``; after is one lean grant
path, unjoined completions off the heap and single-loop buffer access.
The bounds sit ~25 % above the new values.  Wall-clock numbers are the
``apps.*.us_per_request`` rows of ``perf/``.
"""

import pytest

from repro.cases import get_case

from .callcount import counted

#: case -> (max Python calls per request, max events per request).
BOUNDS = {
    "c12": (108.0, 9.35),
    "c18": (147.0, 5.8),
    "c16": (86.0, 6.25),
}


def _run_once(case_id):
    case = get_case(case_id)
    return case.run(None, seed=0, duration=case.warmup + 1.0)


@pytest.mark.parametrize("case_id", sorted(BOUNDS))
def test_calls_and_events_per_request(case_id):
    _run_once(case_id)  # warm imports / code caches outside the measurement

    result, calls, _ = counted(lambda: _run_once(case_id))

    requests = len(result.collector.records)
    events = result.driver.env.events_scheduled
    assert requests > 400  # the run did exercise the request path
    max_calls, max_events = BOUNDS[case_id]
    assert calls / requests < max_calls, (calls, requests)
    assert events / requests < max_events, (events, requests)
