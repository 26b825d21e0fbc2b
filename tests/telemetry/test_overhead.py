"""Guard on the telemetry fast path.

Telemetry is pull-based: when no session is active (or a session stops
accepting runs), the harness pays one active-session lookup and one
branch -- the ``NullTracer`` discipline.  This test pins that promise
with a *deterministic* overhead measure: the number of Python function
calls executed by the run.  Wall clock on shared CI hardware jitters by
double-digit percent; call counts for a fixed seed do not, and any code
sneaking work into the disabled path shows up in them immediately.
(Wall-clock scrape cost is ``telemetry.scrape_overhead_x`` in ``perf/``.)
"""

import sys

from repro.apps.mysql import MySQL, light_mix
from repro.experiments import run_simulation
from repro.telemetry import TelemetrySession, telemetry_session
from repro.workloads import OpenLoopSource, Workload


def _run_once():
    return run_simulation(
        lambda env, ctl, rng: MySQL(env, ctl, rng),
        lambda app, rng: Workload(
            [OpenLoopSource(rate=200.0, mix=light_mix(rng))]
        ),
        duration=5.0,
        seed=0,
    )


def _count_calls(fn):
    """Python and C function calls executed by one invocation of ``fn``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_telemetry_call_count_overhead():
    _run_once()  # warm imports / code caches outside the measurements

    # A session that accepts no more runs: the harness sees
    # enabled=True, accepting_runs=False and attaches nothing.
    saturated = TelemetrySession(interval=0.25, max_runs=0)

    def run_saturated():
        with telemetry_session(saturated):
            _run_once()

    def run_scraped():
        with telemetry_session(TelemetrySession(interval=0.25)):
            _run_once()

    plain = _count_calls(_run_once)
    # The paper's own bar for always-on instrumentation (Fig 14) is
    # <2% under normal load; the *disabled* telemetry path must clear
    # it with room to spare (it should be ~0: one session lookup and
    # one property check per run).
    assert _count_calls(run_saturated) / plain - 1.0 < 0.02
    # Active scraping reads state, it never re-simulates: well below the
    # cost of the run itself (~132k calls) even at the 0.25s interval.
    # The scrapes' own calls (33,525) are bounded directly, so a cheaper
    # run does not loosen the guard: 34,000 is a quarter of the ~136k
    # calls the run cost before pumped requests stopped paying for an
    # Initialize event.
    assert _count_calls(run_scraped) - plain < 34_000
