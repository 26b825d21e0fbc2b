"""Layer probes: micro-drivers that call one layer's public API only.

Each probe takes a work size ``n`` and returns ``(ops, host_seconds)``
for the part it timed.  ``FULL_N`` sizes every probe to about one host
second; ``run_probes(scale)`` runs each at ``scale * FULL_N`` three times
and reports the median cost per op.  The work a probe does is fixed by
``n`` alone (seeded rngs, no clocks in the loop), so two commits compare
on identical inputs.
"""

from __future__ import annotations

import functools
import heapq
import statistics
import time
from typing import Callable, Dict, Tuple

from repro.apps.base import Application, Operation
from repro.core.atropos import Atropos
from repro.core.config import AtroposConfig
from repro.core.controller import NullController
from repro.core.types import ResourceType
from repro.experiments.harness import RunResult, extract_extras
from repro.sim.environment import Environment
from repro.sim.errors import Interrupt
from repro.sim.metrics import (
    MetricsCollector,
    RequestRecord,
    RequestStatus,
    Summary,
)
from repro.sim.resources import (
    CPU,
    DiskIO,
    DocumentBuffer,
    MemoryPool,
    SyncLock,
    ThreadPool,
)
from repro.sim.rng import Rng
from repro.workloads.dag import build_arrivals, dag_storm
from repro.workloads.driver import Driver
from repro.workloads.spec import (
    MixEntry,
    OpenLoopSource,
    Workload,
    poisson_arrival_stream,
)

Probe = Callable[[int], Tuple[int, float]]
_timer = time.perf_counter


def _timed_run(env: Environment, until=None) -> float:
    started = _timer()
    env.run(until=until)
    return _timer() - started


# ----------------------------------------------------------------------
# sim: the kernel against a bare heap + generator loop with no repro code
# in it (the host-speed reference of a traced run)
# ----------------------------------------------------------------------

def skeleton(n: int) -> Tuple[int, float]:
    """``n`` timed waits over 100 generators on a bare ``heapq``."""

    def churn(delay: float, waits: int):
        for _ in range(waits):
            yield delay

    started = _timer()
    queue = []
    seq = 0
    for i in range(100):
        gen = churn(0.001 + i * 1e-6, n // 100)
        queue.append((next(gen), seq, gen))
        seq += 1
    heapq.heapify(queue)
    events = len(queue)
    pop, push = heapq.heappop, heapq.heappush
    while queue:
        now, _, gen = pop(queue)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        seq += 1
        events += 1
        push(queue, (now + delay, seq, gen))
    return events, _timer() - started


def timeout(n: int) -> Tuple[int, float]:
    """``n`` Timeout waits over 100 processes (yield/resume cycle)."""
    env = Environment()

    def churn(delay: float, waits: int):
        for _ in range(waits):
            yield env.timeout(delay)

    started = _timer()
    for i in range(100):
        env.process(churn(0.001 + i * 1e-6, n // 100))
    env.run()
    return env.events_scheduled, _timer() - started


def process(n: int) -> Tuple[int, float]:
    """``n`` short-lived processes spawned in waves of 500 and joined."""
    env = Environment()

    def worker(delay: float):
        yield env.timeout(delay)

    def spawner():
        for _ in range(n // 500):
            yield env.all_of([
                env.process(worker(0.0005 + i * 1e-7)) for i in range(500)
            ])

    started = _timer()
    env.process(spawner())
    env.run()
    return env.events_scheduled, _timer() - started


def condition(n: int) -> Tuple[int, float]:
    """``n`` AllOf/AnyOf composites over 8-way timeout fans."""
    env = Environment()

    def fanner():
        for i in range(n):
            fan = [env.timeout(0.0001 * (j + 1)) for j in range(8)]
            yield env.any_of(fan) if i % 2 else env.all_of(fan)

    started = _timer()
    env.process(fanner())
    env.run()
    return env.events_scheduled, _timer() - started


# ----------------------------------------------------------------------
# sim.resources
# ----------------------------------------------------------------------

def _lock_probe(n: int, readers: int, writers: int) -> Tuple[int, float]:
    env = Environment()
    lock = SyncLock(env, "probe-lock")
    rounds = n // (readers + writers)

    def contender(hold: float, exclusive: bool):
        for _ in range(rounds):
            with lock.acquire(owner=None, exclusive=exclusive) as grant:
                yield grant
                yield env.timeout(hold)

    for i in range(readers + writers):
        env.process(contender(0.0001 + i * 1e-7, exclusive=i >= readers))
    return rounds * (readers + writers), _timed_run(env)


def lock_excl(n: int) -> Tuple[int, float]:
    """Exclusive convoy handoffs, 50 contenders on one lock."""
    return _lock_probe(n, readers=0, writers=50)


def lock_shared(n: int) -> Tuple[int, float]:
    """40 readers and 10 writers on the same lock."""
    return _lock_probe(n, readers=40, writers=10)


def _pool_probe(n: int, capacity: int) -> Tuple[int, float]:
    """50 owners cycling 40-page acquires; the pool either holds every
    working set (hits: no eviction) or a quarter of them (evictions on
    every acquire)."""
    pool = MemoryPool(Environment(), "probe-pool", capacity_pages=capacity)
    started = _timer()
    for i in range(n):
        owner = i % 50
        pool.acquire(owner, 40)
        pool.touch(owner)
        if pool.resident_pages(owner) > 400:
            pool.release(owner)
    return n, _timer() - started


def pool_hit(n: int) -> Tuple[int, float]:
    return _pool_probe(n, capacity=50 * 440)


def pool_evict(n: int) -> Tuple[int, float]:
    return _pool_probe(n, capacity=50 * 110)


def threadpool(n: int) -> Tuple[int, float]:
    """64 submitters sharing 8 workers (FIFO admission queue)."""
    env = Environment()
    pool = ThreadPool(env, "probe-tpool", workers=8)
    rounds = n // 64

    def submitter(hold: float):
        for _ in range(rounds):
            with pool.submit(owner=None) as slot:
                yield slot
                yield env.timeout(hold)

    for i in range(64):
        env.process(submitter(0.0002 + i * 1e-7))
    return rounds * 64, _timed_run(env)


def docbuffer(n: int) -> Tuple[int, float]:
    """Batches of 16 documents over a key space twice the buffer: a mix
    of hits, faults and page-packed evictions.  One op = one document."""
    buffer = DocumentBuffer(Environment(), "probe-docs", capacity_pages=256)
    capacity_docs = 256 * buffer.register_collection("c", doc_bytes=512)
    rng = Rng(7)
    batches = [
        [rng.randint(0, 2 * capacity_docs - 1) for _ in range(16)]
        for _ in range(n // 16)
    ]
    started = _timer()
    for i, batch in enumerate(batches):
        buffer.access(i % 32, "c", batch)
    return len(batches) * 16, _timer() - started


def cpu_disk(n: int) -> Tuple[int, float]:
    """32 tasks alternating a 4 ms CPU burst (2 slices on 4 cores) and a
    64 KB disk read.  One op = one burst + one read."""
    env = Environment()
    cpu = CPU(env, "probe-cpu", cores=4)
    disk = DiskIO(env, "probe-disk")
    rounds = n // 32

    def task(owner: int):
        for _ in range(rounds):
            yield from cpu.execute(owner, 0.004)
            yield from disk.io(owner, 64e3)

    for i in range(32):
        env.process(task(i))
    return rounds * 32, _timed_run(env)


# ----------------------------------------------------------------------
# workloads: arrival generation and the request path
# ----------------------------------------------------------------------

_RATE = 2000.0


class _NoopApp(Application):
    """One handler burning a fixed 2 ms of simulated service time."""

    name = "probeapp"

    def __init__(self, env, controller, rng) -> None:
        super().__init__(env, controller, rng)
        self.register_handler("noop", self._noop)

    def _noop(self, task):
        yield self.env.timeout(0.002)


def _mix():
    return [MixEntry(lambda: Operation("noop"), 1.0)]


def arrival_gen(n: int) -> Tuple[int, float]:
    """``poisson_arrival_stream`` alone: ~``n`` arrivals materialised."""
    rng = Rng(0).fork("arrivals:client")
    started = _timer()
    stream = poisson_arrival_stream(
        rng, rate=_RATE, stop_time=n / _RATE, mix=_mix())
    return len(stream), _timer() - started


def _request_path(n: int, batched: bool) -> Tuple[int, float]:
    duration = n / _RATE
    started = _timer()
    env = Environment()
    rng = Rng(0)
    controller = NullController(env)
    collector = MetricsCollector()
    driver = Driver(env, _NoopApp(env, controller, rng), controller, collector)
    if batched:
        driver.run_arrivals(poisson_arrival_stream(
            rng.fork("arrivals:client"), rate=_RATE, stop_time=duration,
            mix=_mix()))
    else:
        driver.run_workload(Workload(
            [OpenLoopSource(rate=_RATE, mix=_mix(), stop_time=duration)]))
    env.run(until=duration + 1.0)
    return len(collector.records), _timer() - started


def request_path(n: int) -> Tuple[int, float]:
    """~``n`` requests, no-op handler, NullController, batched arrivals
    (``Driver.run_arrivals``: the path the cluster tiers use)."""
    return _request_path(n, batched=True)


def live_source(n: int) -> Tuple[int, float]:
    """The same offered load through ``OpenLoopSource``/``run_workload``:
    the path every paper case still uses."""
    return _request_path(n, batched=False)


def dag_arrivals(n: int) -> Tuple[int, float]:
    """``build_arrivals(dag_storm())`` for ~``n`` mesh requests."""
    spec = dag_storm(duration=n / 220.0)
    started = _timer()
    arrivals = build_arrivals(spec)
    return len(arrivals), _timer() - started


# ----------------------------------------------------------------------
# sim.metrics: one op = summarising 100k records
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _synthetic_collector(n: int) -> MetricsCollector:
    """``n`` records over 30 simulated seconds (read-only: shared by both
    probes and their repeats)."""
    rng = Rng(11)
    collector = MetricsCollector()
    collector.note_offered(n)
    statuses = [RequestStatus.COMPLETED] * 18 + [
        RequestStatus.CANCELLED, RequestStatus.DROPPED]
    for i in range(n):
        arrival = i * 30.0 / n
        collector.record(RequestRecord(
            request_id=i,
            op_name="point" if i % 10 else "scan",
            client_id="client",
            arrival_time=arrival,
            finish_time=arrival + rng.exponential(0.005),
            status=statuses[i % 20],
        ))
    return collector


def summary(n: int) -> Tuple[float, float]:
    collector = _synthetic_collector(n)
    started = _timer()
    Summary.from_collector(collector.trimmed(2.0), 28.0)
    return n / 1e5, _timer() - started


def extras(n: int) -> Tuple[float, float]:
    collector = _synthetic_collector(n)
    env = Environment()
    result = RunResult(
        summary=Summary.from_collector(collector.trimmed(2.0), 28.0),
        collector=collector, controller=NullController(env), app=None,
        driver=None, duration=30.0, warmup=2.0,
    )
    started = _timer()
    extract_extras(result)
    return n / 1e5, _timer() - started


# ----------------------------------------------------------------------
# core: an Atropos with 64 live tasks x 4 registered resources
# ----------------------------------------------------------------------

class _Core:
    """Atropos(AtroposConfig()) holding 64 live request tasks.

    The pipeline is not started: the probes call ``pipeline.tick()``
    themselves.  Each task lives ``lifetime`` simulated seconds (or until
    cancelled), then its slot registers a fresh one, so the population
    stays at 64.
    """

    def __init__(self, lifetime: float = 1e9) -> None:
        self.env = env = Environment()
        self.controller = controller = Atropos(env, AtroposConfig())
        self.resources = [
            controller.register_resource("probe.lock", ResourceType.LOCK),
            controller.register_resource("probe.pool", ResourceType.MEMORY),
            controller.register_resource("probe.queue", ResourceType.QUEUE),
            controller.register_resource("probe.cpu", ResourceType.CPU),
        ]
        self.tasks = [None] * 64
        self._holder = None
        for slot in range(64):
            env.process(self._live(slot, lifetime))
        self.advance()
        self._request_id = 0

    def _live(self, slot: int, lifetime: float):
        while True:
            task = self.controller.create_cancel(
                client_id=f"client-{slot % 8}",
                op_name="scan" if slot == 0 else "point",
            )
            self.tasks[slot] = task
            try:
                yield self.env.timeout(lifetime)
            except Interrupt:
                pass
            finally:
                self.controller.free_cancel(task)

    def advance(self, seconds: float = 0.05) -> None:
        """One detection period of simulated time by default; 0 only
        delivers what is due now (a pending cancellation)."""
        self.env.run(until=self.env.now + seconds)

    def complete(self, latency: float, count: int = 20) -> None:
        """Feed ``count`` completions of ``latency`` to the detector."""
        now = self.env.now
        for _ in range(count):
            self._request_id += 1
            self.controller.observe_completion(RequestRecord(
                request_id=self._request_id, op_name="point",
                client_id="client", arrival_time=now - latency,
                finish_time=now, status=RequestStatus.COMPLETED,
            ))

    def contend(self) -> None:
        """Open a window of lock contention: 63 tasks queue behind task
        0, which keeps the lock until it is cancelled and replaced."""
        controller, lock = self.controller, self.resources[0]
        if self._holder is not self.tasks[0]:
            self._holder = self.tasks[0]
            controller.get_resource(self._holder, lock)
        for task in self.tasks[1:]:
            controller.begin_wait(task, lock)

    def release(self) -> None:
        """Close the window's waits (the holder keeps holding)."""
        for task in self.tasks[1:]:
            self.controller.end_wait(task, self.resources[0])


def trace_call(n: int) -> Tuple[int, float]:
    """The five tracing calls, round-robin over tasks and resources."""
    core = _Core()
    controller, tasks, resources = core.controller, core.tasks, core.resources
    started = _timer()
    for i in range(n // 5):
        task = tasks[i % 64]
        resource = resources[i % 4]
        controller.begin_wait(task, resource)
        controller.end_wait(task, resource)
        controller.get_resource(task, resource, 1.0)
        controller.slow_by_resource(task, resource, 0.001)
        controller.free_resource(task, resource, 1.0)
    return (n // 5) * 5, _timer() - started


def task_lifecycle(n: int) -> Tuple[int, float]:
    """``create_cancel`` + ``free_cancel`` pairs beside 64 live tasks."""
    controller = _Core().controller
    started = _timer()
    for i in range(n):
        controller.free_cancel(controller.create_cancel(op_name="point"))
    return n, _timer() - started


def _tick_probe(n: int, overloaded: bool) -> Tuple[int, float]:
    # Calm: requests finish within the SLO, so no task is ever old.
    core = _Core(lifetime=1e9 if overloaded else 0.1)
    tick = core.controller.pipeline.tick
    spent = 0.0
    for _ in range(n):
        if overloaded:
            core.advance(0.0)
            core.contend()
        core.advance()
        core.complete(latency=1.0 if overloaded else 0.002)
        started = _timer()
        tick()
        spent += _timer() - started
        if overloaded:
            core.release()
    return n, spent


def tick_idle(n: int) -> Tuple[int, float]:
    """``pipeline.tick()`` on a calm ledger: detector sample + roll."""
    return _tick_probe(n, overloaded=False)


def tick_overload(n: int) -> Tuple[int, float]:
    """``pipeline.tick()`` with the SLO violated and 63 tasks queued on a
    lock one task holds: detector, estimator over 64 tasks x 4
    resources, policy, and a cancellation whenever the cooldown allows."""
    return _tick_probe(n, overloaded=True)


# ----------------------------------------------------------------------
# Catalog: metric name -> (probe, units of work for ~1 host second)
# ----------------------------------------------------------------------

FULL_N: Dict[str, Tuple[Probe, int]] = {
    "sim.skeleton_us_per_event": (skeleton, 2_000_000),
    "sim.timeout_us_per_event": (timeout, 700_000),
    "sim.process_us_per_event": (process, 200_000),
    "sim.condition_us_per_event": (condition, 60_000),
    "sim.resources.lock_excl_us_per_op": (lock_excl, 150_000),
    "sim.resources.lock_shared_us_per_op": (lock_shared, 150_000),
    "sim.resources.pool_hit_us_per_op": (pool_hit, 300_000),
    "sim.resources.pool_evict_us_per_op": (pool_evict, 300_000),
    "sim.resources.threadpool_us_per_op": (threadpool, 150_000),
    "sim.resources.docbuffer_us_per_op": (docbuffer, 800_000),
    "sim.resources.cpu_disk_us_per_op": (cpu_disk, 40_000),
    "workloads.arrival_gen_us_per_request": (arrival_gen, 1_000_000),
    "workloads.request_path_us_per_request": (request_path, 80_000),
    "workloads.live_source_us_per_request": (live_source, 70_000),
    "workloads.dag_arrivals_us_per_request": (dag_arrivals, 500_000),
    "sim.metrics.summary_ms": (summary, 400_000),
    "sim.metrics.extras_ms": (extras, 400_000),
    "core.trace_call_us": (trace_call, 1_000_000),
    "core.task_lifecycle_us": (task_lifecycle, 300_000),
    "core.tick_idle_us": (tick_idle, 20_000),
    "core.tick_overload_us": (tick_overload, 2_000),
}

REPEATS = 3


def run_probes(scale: float) -> Dict[str, float]:
    """Median cost per op of every probe at ``scale`` of its full size.

    Costs are in the unit the catalog gives the metric: us per op, except
    the ``sim.metrics`` pair, which is ms per 100k records.
    """
    out: Dict[str, float] = {}
    for name, (probe, full_n) in FULL_N.items():
        n = max(100, int(full_n * scale))
        costs = []
        for _ in range(REPEATS):
            ops, seconds = probe(n)
            costs.append(seconds / ops)
        per_op = statistics.median(costs)
        out[name] = per_op * (1e3 if name.startswith("sim.metrics.") else 1e6)
    out["sim.kernel_overhead_x"] = (
        out["sim.timeout_us_per_event"] / out["sim.skeleton_us_per_event"]
    )
    return out
