"""Guard on what a run keeps of the tasks it has finished.

A finished task leaves only its record (``collector.records``): a
resource names a task only while the task holds or waits on it
(``owners()``), and per-task usage lives in the ledger, which forgets
the task at ``free_cancel``.  A per-owner tally on a resource that
never forgets an owner keeps every request that ever used it reachable,
along with its task, its ``Process`` and its handler generator.  The
CPU's ``owner -> seconds`` map did that on c12 (Elasticsearch, one
finished task per request) and the disk's ``owner -> bytes`` map on c7
(PostgreSQL, one per request that did I/O).

Deterministic: object counts after ``gc.collect()`` at a fixed seed,
never a clock or an RSS reading.
"""

import gc
import weakref

import pytest

from repro.baselines import controller_factory
from repro.cases import get_case
from repro.core.task import CancellableTask, TaskState
from repro.sim import Environment
from repro.sim.resources import CPU, DiskIO

#: The eight cases of the benchmark's ``cases_*`` workloads.
CASE_IDS = ("c1", "c5", "c7", "c9", "c12", "c14", "c16", "c18")

#: Most finished tasks one run may keep reachable, at any length.  With
#: nothing leaking, a run keeps at most seven: the task reports of
#: ATROPOS's last assessment, plus on MySQL a task that still owns
#: resident buffer-pool pages.
BOUND = 16


class _Owner:
    """A plain owner object (a task stand-in that can be weakly referenced)."""


def _collect():
    # A run's garbage can take several collections to go: its
    # generators' ``finally`` blocks resurrect what they touch.
    while gc.collect():
        pass


def _finished_tasks(env):
    """Tasks of ``env``'s run that have ended and unwound.

    A cancelled task waiting in the re-execution gate has ended but its
    request has not: the driver's process still runs it, so it is in
    flight and not counted.
    """
    _collect()
    return sum(
        1 for obj in gc.get_objects()
        if isinstance(obj, CancellableTask)
        and obj.env is env
        and obj.state in (TaskState.FINISHED, TaskState.CANCELLED)
        and not (obj.process is not None and obj.process.is_alive)
    )


@pytest.mark.parametrize("system", [None, "atropos"])
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_finished_tasks_are_not_kept(case_id, system):
    """At 3 s and at 6 s a run keeps at most ``BOUND`` finished tasks
    while its result is held; the 6 s run serves about twice the
    requests, so a per-request leak shows as a count that doubles."""
    case = get_case(case_id)
    factory = system and controller_factory(
        system, case.slo_latency,
        atropos_overrides=dict(case.atropos_overrides),
    )
    counts = []
    for duration in (3.0, 6.0):
        _collect()
        result = case.run(factory, seed=0, duration=duration)
        assert len(result.collector.records) > 400
        counts.append(_finished_tasks(result.driver.env))
        del result
    assert max(counts) <= BOUND, counts


def test_cpu_forgets_an_owner_once_its_call_returns():
    env = Environment()
    cpu = CPU(env, "cpu", cores=1, slice_time=0.01)
    owner = _Owner()
    ref = weakref.ref(owner)
    charged = []

    def task(owner):
        charged.append((yield from cpu.execute(owner, 0.05)))

    env.process(task(owner))
    del owner
    env.run()
    _collect()
    assert ref() is None
    assert charged == [pytest.approx(0.05)]
    assert cpu.cpu_seconds == pytest.approx(0.05)


def test_disk_forgets_an_owner_once_its_io_returns():
    env = Environment()
    disk = DiskIO(env, "d", bandwidth_bytes_per_sec=100.0, op_latency=0.0)
    owner = _Owner()
    ref = weakref.ref(owner)

    def task(owner):
        yield from disk.io(owner, 50.0)

    env.process(task(owner))
    del owner
    env.run()
    _collect()
    assert ref() is None
    assert disk.total_bytes == 50.0
