"""Guards on the mesh planner's host cost: request lifetime and calls.

Same discipline as ``tests/core/test_request_path_overhead.py``:
deterministic counts at a fixed seed, never a clock.

* **Lifetime.**  The planner holds a request's state only while the
  request is in flight: it drops the state once the request is done, or
  failed (cancelled, dropped, shed upstream) with no shard out.  Held
  for the whole run, the state of a 40 s ``dag_storm`` was about 19 MB
  of the benchmark's mesh peak RSS.  After every ``fold`` the table
  holds only unresolved requests; at run end it is exactly the
  ``unfinished`` count; under ATROPOS its peak is a small share of the
  arrivals (677 of 8,739 at seed 0, 642 of 8,821 at seed 5).
* **Python calls per offered request** on a 12 s ATROPOS ``dag_storm``:
  334.6 with per-shard topology lookups (Kahn's algorithm per completed
  request, edge scans per stage) and a pass-through generator level on
  every node op; 281.6 with the DAG resolved once into index tables and
  the ops aliased to the native generators.  The bound sits ~10 % above
  the last reading.
"""

import pytest

from repro.cluster import Mesh, run_dag
from repro.workloads.dag import DAG_CONTROLLERS, build_arrivals, dag_storm

from ..core.callcount import counted

MAX_CALLS_PER_REQUEST = 310.0


def _run_watched(spec, controller):
    """Run a serial mesh; returns (result, planner, peak table size)
    and checks the table after every fold."""
    mesh = Mesh(spec, controller)
    planner = mesh.planner
    fold = planner.fold
    peak = 0

    def watched(epoch, t_end, statuses):
        nonlocal peak
        fold(epoch, t_end, statuses)
        peak = max(peak, len(planner.requests))
        for rid, req in planner.requests.items():
            assert not req.done, (epoch, rid)
            assert req.failed is None or req.out > 0, (epoch, rid, req.failed)

    planner.fold = watched
    return mesh.run(), planner, peak


@pytest.mark.parametrize("controller", DAG_CONTROLLERS)
def test_table_holds_only_unresolved_requests(controller):
    result, planner, _ = _run_watched(
        dag_storm(duration=12.0, seed=0), controller
    )
    unfinished = sum(c["unfinished"] for c in result.classes.values())
    assert len(planner.requests) == unfinished


@pytest.mark.parametrize("seed", [0, 5])
def test_live_table_peaks_below_a_tenth_of_arrivals(seed):
    spec = dag_storm(duration=40.0, seed=seed)
    result, planner, peak = _run_watched(spec, "atropos")
    offered = sum(c["offered"] for c in result.classes.values())
    assert offered == len(build_arrivals(spec)) > 8000
    assert peak * 10 < offered, (peak, offered)


def test_calls_per_offered_request():
    def run():
        return run_dag(dag_storm(duration=12.0, seed=0), "atropos", jobs=1)

    run()  # warm imports / code caches outside the measurement
    result, calls, _, ids = counted(run)
    offered = sum(c["offered"] for c in result.classes.values())
    assert offered > 2000
    assert calls / offered < MAX_CALLS_PER_REQUEST, (calls, offered)
    assert ids == 0, ids
