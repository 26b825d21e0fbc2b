"""Guard on the cost of the ATROPOS tracing path.

Same discipline as ``tests/telemetry/test_overhead.py``: a
*deterministic* overhead measure (``sys.setprofile`` counts at a fixed
seed), never a wall clock.  One c1 run under ATROPOS, one second past
its warm-up; the counts are divided by the traced events of the run
(``runtime.events_traced``), so they read as "what one traced event
costs the whole simulation":

* **Python calls per traced event** -- the whole run's, so the kernel
  and the app model are in the number too, but they are the same code
  on both sides of a tracing change.
* **``id()`` calls per traced event**, which must be none: a task's
  identity is its ``seq``, assigned once by ``create_cancel``, and the
  ledger keys by it.  Keyed by ``id(task)`` this run made 9,597 builtin
  ``id()`` calls, 1.60 per traced event (Python calls per event are the
  same 16.08 either way: ``id`` is a C call).
* **``hash()`` calls per traced event** --
  :class:`~repro.core.types.ResourceHandle`'s ``__hash__`` is
  Python-level, so the tracing path keys its per-event lookups by task
  key and resource name; what is left is the per-tick estimator and
  policy work, which keys by handle.

With six tuple-keyed ledger tables and the dataclass-generated handle
hash this run cost 43.2 calls and 11.3 ``hash()`` calls per traced
event; the per-(task, resource) records brought it to 30.3 and 1.5,
and the lean grant path / unjoined completions under it (kernel and
resources, not tracing; see ``test_request_path_overhead.py``) to 24.4
calls.  One frame per traced event (each entry point updates its
record in place, records keyed by resource name, the tracing debt a
float on the task) and task start / finish without forwarding frames
took it to 16.4 calls and 0.12 ``hash()`` calls.  The bounds sit ~25 %
above the current values.  Wall-clock numbers are
``core.trace_call_us`` / ``core.overhead_x`` in ``perf/``.
"""

from repro.baselines import controller_factory
from repro.cases import get_case

from .callcount import counted

MAX_CALLS_PER_EVENT = 20.5
MAX_HASHES_PER_EVENT = 0.15


def _run_once():
    case = get_case("c1")
    return case.run(
        controller_factory(
            "atropos",
            case.slo_latency,
            atropos_overrides=dict(case.atropos_overrides),
        ),
        seed=0,
        duration=case.warmup + 1.0,
    )


def test_tracing_call_and_hash_counts_per_event():
    _run_once()  # warm imports / code caches outside the measurement

    result, calls, hashes, ids = counted(_run_once)

    events = result.controller.runtime.events_traced
    assert events > 1000  # the run did exercise the tracing path
    assert calls / events < MAX_CALLS_PER_EVENT, (calls, events)
    assert hashes / events < MAX_HASHES_PER_EVENT, (hashes, events)
    assert ids == 0, (ids, events)
