"""Guard on what a traced event costs the tracer itself.

Deterministic, like the other call-count guards (``sys.setprofile``
counts at a fixed seed, never a clock): one c1 run under ATROPOS, one
second past its warm-up, once untraced and once under a
:class:`~repro.obs.Tracer`.  The Python calls the traced run adds,
divided by the events its trace renders (``len(tracer.events)``), read
as "what one traced event costs": the emitting call site's frame plus
the tracer's own.

Building a Chrome-trace dict per event (a track lookup, microsecond
rounding and a per-category count, each its own frame) made this 6.41
calls per event; appending one record tuple and rendering the dicts
only when ``events`` is read makes it 3.35 (13,878 events).  The bound
is 5.0.  The wall-clock number is ``obs.tracer_overhead_x`` in
``perf/``.
"""

from repro.baselines import controller_factory
from repro.cases import get_case
from repro.obs import Tracer, tracing

from ..core.callcount import counted

MAX_CALLS_PER_EVENT = 5.0


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


def test_calls_a_traced_event_adds():
    _run_once()  # warm imports / code caches outside the measurement
    _, untraced, _, _ = counted(_run_once)
    tracer = Tracer()
    with tracing(tracer):
        _, traced, _, _ = counted(_run_once)
    events = len(tracer.events)
    assert events > 1000  # the run did exercise the tracing path
    assert (traced - untraced) / events <= MAX_CALLS_PER_EVENT, (
        traced - untraced, events)
