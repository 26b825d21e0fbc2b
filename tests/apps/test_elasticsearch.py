"""Integration tests for the Elasticsearch model (cases c10-c13)."""

import pytest

from repro.apps.base import Operation
from repro.apps.elasticsearch import Elasticsearch, ElasticsearchConfig
from repro.core import Atropos, AtroposConfig
from repro.experiments import run_simulation
from repro.workloads import MixEntry, OpenLoopSource, ScheduledOp, Workload


def es_factory(config=None):
    def build(env, controller, rng):
        return Elasticsearch(env, controller, rng, config=config)

    return build


def search_workload(rate=300.0, extra=None):
    def build(app, rng):
        sources = [
            OpenLoopSource(
                rate=rate,
                mix=[
                    MixEntry(
                        factory=lambda: Operation("search", {}), weight=1.0
                    )
                ],
            )
        ]
        if extra:
            sources.extend(extra)
        return Workload(sources)

    return build


def atropos_factory(slo=0.02):
    def build(env):
        return Atropos(env, AtroposConfig(slo_latency=slo))

    return build


class TestBaseline:
    def test_searches_fast_with_warm_cache(self):
        result = run_simulation(
            es_factory(), search_workload(), duration=5.0, warmup=1.0
        )
        assert result.p99_latency < 0.02
        assert result.app.gc_pauses == 0


class TestQueryCache:
    def test_large_search_floods_cache(self):
        extra = [
            ScheduledOp(at=1.0, factory=lambda: Operation("large_search", {}))
        ]
        clean = run_simulation(
            es_factory(), search_workload(), duration=8.0, warmup=2.0
        )
        flooded = run_simulation(
            es_factory(), search_workload(extra=extra), duration=8.0,
            warmup=2.0,
        )
        assert flooded.p99_latency > clean.p99_latency * 2

    def test_atropos_cancels_large_search(self):
        extra = [
            ScheduledOp(at=1.0, factory=lambda: Operation("large_search", {}))
        ]
        result = run_simulation(
            es_factory(),
            search_workload(extra=extra),
            controller_factory=atropos_factory(),
            duration=8.0,
            warmup=2.0,
        )
        cancelled = {e.op_name for e in result.controller.cancellation.log}
        assert "large_search" in cancelled
        # Cancellation released the pinned cache entries.
        assert result.app.query_cache.resident_pages("hot-filters") > 500


class TestHeapGC:
    def agg_workload(self):
        extra = [
            ScheduledOp(
                at=1.0,
                factory=lambda: Operation(
                    "nested_aggregation", {"blocks": 1300}
                ),
            )
        ]
        return search_workload(rate=250.0, extra=extra)

    def test_aggregation_triggers_gc_storm(self):
        result = run_simulation(
            es_factory(), self.agg_workload(), duration=8.0, warmup=2.0
        )
        assert result.app.gc_pauses >= 1
        assert result.p99_latency > 0.1

    def test_atropos_cancel_frees_heap_and_stops_gc(self):
        result = run_simulation(
            es_factory(),
            self.agg_workload(),
            controller_factory=atropos_factory(),
            duration=8.0,
            warmup=2.0,
        )
        cancelled = {e.op_name for e in result.controller.cancellation.log}
        assert "nested_aggregation" in cancelled
        # Heap back to the baseline allocation after the cancel.
        assert result.app.heap.used_pages <= 700
        assert result.p99_latency < 0.1


class TestCpuContention:
    def test_long_queries_queue_searches(self):
        extra = [
            OpenLoopSource(
                rate=8.0,
                mix=[
                    MixEntry(
                        factory=lambda: Operation(
                            "long_query", {"cpu_seconds": 3.0}
                        ),
                        weight=1.0,
                    )
                ],
                client_id="analytics",
                start_time=1.0,
            )
        ]
        clean = run_simulation(
            es_factory(), search_workload(rate=450.0), duration=8.0,
            warmup=2.0,
        )
        loaded = run_simulation(
            es_factory(), search_workload(rate=450.0, extra=extra),
            duration=8.0, warmup=2.0,
        )
        assert loaded.p99_latency > clean.p99_latency * 2
        # The long queries burned the extra CPU.  Queued behind them, the
        # loaded run's searches are charged no more CPU in the window than
        # the clean run's, so the difference is a lower bound on the long
        # queries' own seconds (40.67 of their 40.72 here).
        long_query_burn = loaded.app.cpu.cpu_seconds - clean.app.cpu.cpu_seconds
        assert long_query_burn > 5.0


class TestDocLock:
    def test_update_by_query_blocks_indexing(self):
        def build(app, rng):
            return Workload(
                [
                    OpenLoopSource(
                        rate=250.0,
                        mix=[
                            MixEntry(
                                factory=lambda: Operation("search", {}),
                                weight=0.6,
                            ),
                            MixEntry(
                                factory=lambda: Operation("indexing", {}),
                                weight=0.4,
                            ),
                        ],
                    ),
                    ScheduledOp(
                        at=1.0,
                        factory=lambda: Operation(
                            "update_by_query", {"duration": 4.0}
                        ),
                    ),
                ]
            )

        result = run_simulation(es_factory(), build, duration=8.0, warmup=2.0)
        assert result.p99_latency > 0.5
