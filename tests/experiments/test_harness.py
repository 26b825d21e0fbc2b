"""Tests for the experiment harness and result tables."""

import math

import pytest

from repro.experiments import ALL_EXPERIMENTS, normalize, run_simulation
from repro.experiments.tables import ExperimentResult, ExperimentTable


class TestExperimentTable:
    def test_add_row_checks_arity(self):
        t = ExperimentTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_extraction(self):
        t = ExperimentTable("t", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]

    def test_row_map(self):
        t = ExperimentTable("t", ["case", "x"])
        t.add_row("c1", 1.0)
        assert t.row_map()["c1"] == ["c1", 1.0]

    def test_format_renders_all_rows(self):
        t = ExperimentTable("demo", ["name", "value"])
        t.add_row("x", 1.5)
        text = t.format()
        assert "demo" in text
        assert "x" in text and "1.500" in text

    def test_format_handles_nan(self):
        t = ExperimentTable("t", ["v"])
        t.add_row(float("nan"))
        assert "nan" in t.format()


class TestExperimentResult:
    def test_table_lookup_by_fragment(self):
        r = ExperimentResult(
            "fig0", "d", [ExperimentTable("Alpha metrics", ["x"])]
        )
        assert r.table("alpha").title == "Alpha metrics"
        with pytest.raises(KeyError):
            r.table("beta")

    def test_format_includes_header(self):
        r = ExperimentResult("fig0", "demo description", [])
        assert "fig0" in r.format()
        assert "demo description" in r.format()


class TestHarness:
    def test_normalize(self):
        assert normalize(2.0, 4.0) == 0.5
        assert math.isnan(normalize(1.0, 0.0))

    def test_run_simulation_warmup_trims_records(self):
        from repro.apps.mysql import MySQL, light_mix
        from repro.workloads import OpenLoopSource, Workload

        def app_factory(env, controller, rng):
            return MySQL(env, controller, rng)

        def workload(app, rng):
            return Workload([OpenLoopSource(rate=100.0, mix=light_mix(rng))])

        full = run_simulation(app_factory, workload, duration=4.0, warmup=0.0)
        trimmed = run_simulation(
            app_factory, workload, duration=4.0, warmup=2.0
        )
        assert trimmed.summary.completed < full.summary.completed
        # The raw collector still holds everything.
        assert len(trimmed.collector.records) == len(full.collector.records)

    def test_summary_and_timeline_share_the_trimmed_view(self):
        from repro.apps.mysql import MySQL, light_mix
        from repro.workloads import OpenLoopSource, Workload

        result = run_simulation(
            lambda env, ctl, rng: MySQL(env, ctl, rng),
            lambda app, rng: Workload(
                [OpenLoopSource(rate=100.0, mix=light_mix(rng))]
            ),
            duration=4.0,
            warmup=2.0,
        )
        view = result.trimmed_collector
        # The public trimmed view is exactly what the summary was built
        # from...
        assert result.summary.completed == sum(
            1 for r in view.records if r.status.name == "COMPLETED"
        )
        assert all(r.finish_time >= 2.0 for r in view.records)
        # ...and the timeline uses it too: the warm-up windows are empty.
        points = result.timeline(window=1.0)
        assert [p[0] for p in points] == [1.0, 2.0, 3.0, 4.0]
        assert points[0][1] == 0.0 and points[1][1] == 0.0
        assert points[2][1] > 0.0

    def test_trimmed_collector_with_zero_warmup_is_identity(self):
        from repro.apps.mysql import MySQL, light_mix
        from repro.workloads import OpenLoopSource, Workload

        result = run_simulation(
            lambda env, ctl, rng: MySQL(env, ctl, rng),
            lambda app, rng: Workload(
                [OpenLoopSource(rate=100.0, mix=light_mix(rng))]
            ),
            duration=2.0,
        )
        assert result.trimmed_collector is result.collector

    def test_one_run_builds_the_trimmed_view_once(self, monkeypatch):
        """``run_simulation`` summarizes the view it hands to the result,
        and ``extract_extras`` + ``timeline`` reuse it (three builds a
        run before)."""
        from repro.apps.mysql import MySQL, light_mix
        from repro.experiments.harness import extract_extras
        from repro.sim.metrics import MetricsCollector
        from repro.workloads import OpenLoopSource, Workload

        calls = []
        real_trimmed = MetricsCollector.trimmed

        def counting_trimmed(self, cutoff):
            calls.append(cutoff)
            return real_trimmed(self, cutoff)

        monkeypatch.setattr(MetricsCollector, "trimmed", counting_trimmed)
        result = run_simulation(
            lambda env, ctl, rng: MySQL(env, ctl, rng),
            lambda app, rng: Workload(
                [OpenLoopSource(rate=100.0, mix=light_mix(rng))]
            ),
            duration=4.0,
            warmup=2.0,
        )
        extras = extract_extras(result)
        result.timeline(window=1.0)
        assert calls == [2.0]
        assert sum(op["n"] for op in extras["ops"].values()) == (
            result.summary.completed
        )

    def test_registry_covers_every_artifact(self):
        expected = {
            "fig2", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "table1", "table2", "table3", "resilience",
            "ablate-adaptive", "ablate-levers", "cluster", "dag",
            "ablation-cooldown", "ablation-detection", "ablation-reexec",
            "robustness",
        }
        assert set(ALL_EXPERIMENTS) == expected


class TestCsvAndTimeline:
    def test_table_to_csv(self):
        t = ExperimentTable("t", ["case", "value"])
        t.add_row("c1", 1.5)
        csv_text = t.to_csv()
        assert csv_text.splitlines() == ["case,value", "c1,1.5"]

    def test_run_result_timeline(self):
        from repro.apps.mysql import MySQL, light_mix
        from repro.workloads import OpenLoopSource, Workload

        result = run_simulation(
            lambda env, ctl, rng: MySQL(env, ctl, rng),
            lambda app, rng: Workload(
                [OpenLoopSource(rate=200.0, mix=light_mix(rng))]
            ),
            duration=4.0,
        )
        points = result.timeline(window=1.0)
        assert len(points) == 4
        ends = [p[0] for p in points]
        assert ends == [1.0, 2.0, 3.0, 4.0]
        # Steady load: every window sees completions.
        assert all(tput > 100 for _, tput, _ in points)

    def test_timeline_rejects_bad_window(self):
        from repro.apps.mysql import MySQL, light_mix
        from repro.workloads import OpenLoopSource, Workload
        import pytest as _pytest

        result = run_simulation(
            lambda env, ctl, rng: MySQL(env, ctl, rng),
            lambda app, rng: Workload(
                [OpenLoopSource(rate=50.0, mix=light_mix(rng))]
            ),
            duration=1.0,
        )
        with _pytest.raises(ValueError):
            result.timeline(window=0.0)
