"""Chaos cancellation: random interrupts must never leak resources.

The safe-cancellation claim (§2.4/§3.6) is that cancelling a task at any
checkpoint leaves the application consistent: every lock released, every
buffer page freed, every worker slot returned.  These tests bombard live
applications with randomly timed cancellations of random tasks, stop the
arrivals, run to quiescence and then assert the *drained* invariant over
the application's resource registry: nothing names a task any more.
"""

import pytest

from repro.apps.apache import Apache
from repro.apps.base import Operation
from repro.apps.elasticsearch import Elasticsearch
from repro.apps.etcd import Etcd
from repro.apps.mongodb import MongoDB, doc_mix
from repro.apps.mysql import MySQL, light_mix
from repro.apps.postgres import PostgreSQL
from repro.apps.solr import Solr
from repro.core import AtroposConfig, CancelSignal, NullController
from repro.core.cancellation import CancellationManager
from repro.core.task import CancellableTask
from repro.faults import FaultInjector, FaultPlan, cancel_drop, degrade
from repro.sim import Environment, MetricsCollector, Rng
from repro.workloads import Driver, MixEntry, OpenLoopSource, ScheduledOp, Workload


def assert_drained(app, controller, driver):
    """Arrivals stopped and the run went quiet: no registered resource
    still names a task (holder, waiter, parked grant, running or queued
    slot, resident page or document), and no task or request is left."""
    for sim in app.resources():
        leaked = [o for o in sim.owners() if isinstance(o, CancellableTask)]
        assert leaked == [], f"{sim.name} still names {leaked}"
    assert controller.live_tasks() == []
    assert driver.inflight == 0


class ChaosController(NullController):
    """Interrupts a random live task every `period` seconds."""

    name = "chaos"

    def __init__(self, env, rng, period=0.05):
        super().__init__(env)
        self.rng = rng
        self.period = period
        self.interrupts_sent = 0
        #: The kill path the cancel-* faults corrupt.  Its cooldown is
        #: shorter than the chaos period, so an unfaulted cancel lands
        #: exactly like the direct interrupt.
        self.cancellation = CancellationManager(
            env,
            AtroposConfig(cancel_cooldown=period / 2),
            calm_check=lambda: True,
        )

    def start(self):
        self.env.process(self._chaos_loop())

    def _chaos_loop(self):
        while True:
            yield self.env.timeout(self.period)
            victims = [
                t
                for t in self.tasks.values()
                if t.alive
                and t.process is not None
                and t.process.is_alive
                and t.process is not self.env.active_process
            ]
            if not victims:
                continue
            victim = self.rng.choice(victims)
            if victim.cancellable:
                self.cancellation.cancel(victim, None, 0.0, reason="chaos")
            else:
                # Harsher than any controller: a task already unwinding,
                # or one registered non-cancellable, is hit all the same.
                victim.begin_cancel(CancelSignal(reason="chaos"))
                victim.process.interrupt(victim.cancel_signal)
            self.interrupts_sent += 1

    def reexecution_gate(self, task, arrival_time):
        # Chaos victims are simply dropped; we only care about state.
        return "drop"
        yield  # pragma: no cover


def run_chaos(app_cls, workload_builder, duration=6.0, seed=0, plan=None):
    env = Environment()
    rng = Rng(seed)
    controller = ChaosController(env, rng.fork("chaos"))
    app = app_cls(env, controller, rng)
    controller.start()
    driver = Driver(env, app, controller, MetricsCollector())
    driver.run_workload(workload_builder(app, rng, stop=duration))
    if plan is not None:
        FaultInjector(env, plan, rng.fork("faults")).arm(
            app=app, controller=controller, driver=driver
        )
    # Arrivals stop at `duration`; drain long enough for every surviving
    # task (and every pending chaos interrupt) to unwind.
    env.run(until=duration + 10.0)
    return app, controller, driver


def heavy_mysql_workload(app, rng, stop):
    mix = light_mix(rng)
    mix.append(
        MixEntry(
            factory=lambda: Operation("scan", {"table": 0, "rows": 4e5}),
            weight=0.01,
        )
    )
    mix.append(
        MixEntry(
            factory=lambda: Operation("slow_query", {"duration": 0.5}),
            weight=0.01,
        )
    )
    return Workload(
        [
            OpenLoopSource(rate=300.0, mix=mix, stop_time=stop),
            ScheduledOp(at=1.0, factory=lambda: Operation("backup", {})),
            ScheduledOp(
                at=2.0,
                factory=lambda: Operation(
                    "select_for_update", {"table": 1, "rows": 3e5}
                ),
            ),
        ]
    )




def postgres_workload(app, rng, stop):
    from repro.cases.postgres_cases import pg_mix
    from repro.core.types import TaskKind

    return Workload(
        [
            OpenLoopSource(
                rate=250.0,
                mix=pg_mix(rng, select_weight=0.4),
                stop_time=stop,
            ),
            ScheduledOp(
                at=1.0,
                factory=lambda: Operation(
                    "bulk_update", {"table": 0, "rows": 8e5}
                ),
            ),
            ScheduledOp(
                at=1.5,
                factory=lambda: Operation(
                    "vacuum", {"total_bytes": 100e6},
                    kind=TaskKind.BACKGROUND,
                ),
            ),
        ]
    )


def elasticsearch_workload(app, rng, stop):
    return Workload(
        [
            OpenLoopSource(
                rate=250.0,
                stop_time=stop,
                mix=[
                    MixEntry(
                        factory=lambda: Operation("search", {}),
                        weight=0.9,
                    ),
                    MixEntry(
                        factory=lambda: Operation("indexing", {}),
                        weight=0.1,
                    ),
                ],
            ),
            ScheduledOp(
                at=1.0,
                factory=lambda: Operation(
                    "nested_aggregation", {"blocks": 1200}
                ),
            ),
            ScheduledOp(
                at=2.0, factory=lambda: Operation("large_search", {})
            ),
        ]
    )


def solr_workload(app, rng, stop):
    return Workload(
        [
            OpenLoopSource(rate=300.0, stop_time=stop, mix=[
                MixEntry(factory=lambda: Operation("query", {}), weight=1.0)
            ]),
            ScheduledOp(
                at=1.0,
                factory=lambda: Operation("boolean_query", {"duration": 2.0}),
            ),
        ]
    )


def etcd_workload(app, rng, stop):
    return Workload(
        [
            OpenLoopSource(rate=250.0, stop_time=stop, mix=[
                MixEntry(factory=lambda: Operation("get", {}), weight=0.7),
                MixEntry(factory=lambda: Operation("put", {}), weight=0.3),
            ]),
            ScheduledOp(
                at=1.0,
                factory=lambda: Operation("range_read", {"duration": 2.0}),
            ),
        ]
    )


def apache_workload(app, rng, stop):
    return Workload(
        [
            OpenLoopSource(rate=300.0, stop_time=stop, mix=[
                MixEntry(factory=lambda: Operation("static", {}), weight=0.97),
                MixEntry(
                    factory=lambda: Operation("php_script", {"duration": 1.0}),
                    weight=0.03,
                ),
            ]),
        ]
    )


def mongodb_workload(app, rng, stop):
    """c17's scan storm on the collection lock plus c18's metrics flood
    through the document cache, over the point-read mix."""
    return Workload(
        [
            OpenLoopSource(rate=300.0, mix=doc_mix(rng), stop_time=stop),
            OpenLoopSource(
                rate=3.0,
                start_time=1.0,
                stop_time=stop,
                client_id="analytics",
                mix=[
                    MixEntry(
                        factory=lambda: Operation(
                            "collection_scan", {"collection": 0, "docs": 6e4}
                        ),
                        weight=1.0,
                    )
                ],
            ),
            ScheduledOp(
                at=2.0,
                factory=lambda: Operation("bulk_insert", {"docs": 3e5}),
                client_id="ingest",
            ),
        ]
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mysql_no_leaks_under_chaos(seed):
    app, controller, driver = run_chaos(
        MySQL, heavy_mysql_workload, seed=seed
    )
    assert controller.interrupts_sent > 20
    assert_drained(app, controller, driver)
    # Only the communal hot set stays resident in the buffer pool.
    assert set(app.buffer_pool.owners()) <= {"hot-set"}


def test_postgres_no_leaks_under_chaos():
    assert_drained(*run_chaos(PostgreSQL, postgres_workload))


def test_elasticsearch_no_leaks_under_chaos():
    app, controller, driver = run_chaos(Elasticsearch, elasticsearch_workload)
    assert_drained(app, controller, driver)
    # Heap back to baseline, cache back to the hot filters.
    assert set(app.heap.owners()) <= {"baseline"}
    assert set(app.query_cache.owners()) <= {"hot-filters"}


def test_solr_and_etcd_no_leaks_under_chaos():
    assert_drained(*run_chaos(Solr, solr_workload))
    assert_drained(*run_chaos(Etcd, etcd_workload))


def test_apache_no_leaks_under_chaos():
    assert_drained(*run_chaos(Apache, apache_workload))


def test_mongodb_no_leaks_under_chaos():
    app, controller, driver = run_chaos(MongoDB, mongodb_workload)
    assert controller.interrupts_sent > 20
    assert_drained(app, controller, driver)
    assert set(app.doc_cache.owners()) <= {"hot-set"}


#: Per backend: the chaos workload and the resource a capacity fault
#: hits mid-run (etcd has only its lock, which reports no degrade hook).
FAULTED = [
    (MySQL, heavy_mysql_workload, "buffer_pool"),
    (PostgreSQL, postgres_workload, "disk"),
    (Elasticsearch, elasticsearch_workload, "heap"),
    (Solr, solr_workload, "searchers"),
    (Etcd, etcd_workload, "kv_lock"),
    (Apache, apache_workload, "workers"),
    (MongoDB, mongodb_workload, "doc_cache"),
]


@pytest.mark.parametrize(
    "app_cls,workload,target", FAULTED, ids=[row[0].name for row in FAULTED]
)
def test_no_leaks_under_chaos_with_faults_armed(app_cls, workload, target):
    """The same bombardment while a resource loses half its capacity and
    the kill path loses half its signals."""
    plan = FaultPlan.of(
        degrade(target, 0.5, at=1.5, duration=3.0),
        cancel_drop(0.5, at=1.0, duration=4.0),
    )
    app, controller, driver = run_chaos(app_cls, workload, plan=plan)
    assert controller.cancellation.dropped_signals > 0
    assert_drained(app, controller, driver)
