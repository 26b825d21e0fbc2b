"""Tests for the CLI (`python -m repro`) and report generation."""

import pytest

from repro.__main__ import build_parser, main
from repro.reporting import DEFAULT_ORDER, render_report, run_experiments


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_flags(self):
        args = build_parser().parse_args(
            ["run", "fig10", "--full", "--seed", "3"]
        )
        assert args.experiment == "fig10"
        assert args.full
        assert args.seed == 3

    def test_case_validates_system_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["case", "c1", "--system", "bogus"])

    def test_run_parses_adaptive_flag(self):
        args = build_parser().parse_args(["run", "fig9", "--adaptive"])
        assert args.adaptive
        assert not build_parser().parse_args(["run", "fig9"]).adaptive
        assert build_parser().parse_args(["all", "--adaptive"]).adaptive

    def test_ablate_adaptive_parses(self):
        args = build_parser().parse_args(
            ["ablate-adaptive", "--seed", "1", "--cases", "c2", "c12"]
        )
        assert args.command == "ablate-adaptive"
        assert args.seed == 1
        assert args.cases == ["c2", "c12"]

    def test_run_parses_campaign_flags(self):
        args = build_parser().parse_args(
            ["run", "fig10", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 4
        assert args.cache is False
        assert args.cache_dir == "/tmp/x"

    def test_campaign_flags_default_to_ambient(self):
        args = build_parser().parse_args(["run", "fig10"])
        assert args.jobs is None
        assert args.cache is None
        assert args.cache_dir is None

    def test_sweep_parses_seeds(self):
        args = build_parser().parse_args(
            ["sweep", "fig10", "--seeds", "0", "1", "2"]
        )
        assert args.seeds == [0, 1, 2]

    def test_cache_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "bogus"])

    def test_regress_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["regress"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["regress", "bogus"])

    def test_regress_baseline_parses(self):
        args = build_parser().parse_args(
            ["regress", "baseline", "--out", "b.json", "--name", "nightly",
             "--targets", "case", "dag", "--cases", "c1", "c2",
             "--seed", "3", "--jobs", "2"]
        )
        assert args.action == "baseline"
        assert args.out == "b.json"
        assert args.name == "nightly"
        assert args.targets == ["case", "dag"]
        assert args.cases == ["c1", "c2"]
        assert args.seed == 3

    def test_regress_baseline_parses_any_target_name(self):
        # Validation happens in cmd_regress against REGRESS_TARGETS, not
        # in argparse (a hard-coded choices list drifts as families are
        # added); see TestCommands.test_regress_unknown_target_exits_2.
        args = build_parser().parse_args(
            ["regress", "baseline", "--targets", "lever"]
        )
        assert args.targets == ["lever"]

    def test_regress_baseline_parses_telemetry_flags(self):
        args = build_parser().parse_args(
            ["regress", "baseline", "--telemetry",
             "--scrape-interval", "0.5"]
        )
        assert args.telemetry
        assert args.scrape_interval == 0.5
        assert not build_parser().parse_args(
            ["regress", "baseline"]
        ).telemetry

    def test_ablate_parses_levers_flag(self):
        args = build_parser().parse_args(
            ["ablate", "--levers", "--cases", "c17", "c18"]
        )
        assert args.command == "ablate"
        assert args.levers
        assert args.cases == ["c17", "c18"]
        assert not build_parser().parse_args(["ablate"]).levers

    def test_regress_check_parses(self):
        args = build_parser().parse_args(
            ["regress", "check", "--baseline", "b.json",
             "--perturb", "slo_slack=0.8", "--rel-tol", "0.1",
             "--report", "diff.html"]
        )
        assert args.action == "check"
        assert args.baseline == "b.json"
        assert args.perturb == ["slo_slack=0.8"]
        assert args.rel_tol == 0.1
        assert args.report == "diff.html"

    def test_regress_defaults(self):
        args = build_parser().parse_args(["regress", "check"])
        assert args.baseline == "REGRESS_BASELINE.json"
        assert args.perturb is None
        assert args.rel_tol == 0.05
        assert build_parser().parse_args(
            ["regress", "baseline"]
        ).out == "REGRESS_BASELINE.json"

    def test_regress_schedule_parses(self):
        args = build_parser().parse_args(
            ["regress", "schedule", "--case", "case:c1"]
        )
        assert args.action == "schedule"
        assert args.case == "case:c1"

    def test_faults_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_faults_run_requires_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "run"])

    def test_faults_matrix_parses_flags(self):
        args = build_parser().parse_args(
            ["faults", "matrix", "--quick", "--kinds", "burst",
             "cancel-drop", "--cases", "c1", "--jobs", "2"]
        )
        assert args.faults_command == "matrix"
        assert args.kinds == ["burst", "cancel-drop"]
        assert args.cases == ["c1"]
        assert not args.full

    def test_run_parses_telemetry_flags(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--telemetry", "out", "--live",
             "--scrape-interval", "0.5"]
        )
        assert args.telemetry == "out"
        assert args.live
        assert args.scrape_interval == 0.5

    def test_telemetry_flags_default_off(self):
        args = build_parser().parse_args(["all"])
        assert args.telemetry is None
        assert not args.live
        assert args.scrape_interval == 0.25

    def test_report_parses(self):
        args = build_parser().parse_args(
            ["report", "fig2", "--out", "r.html", "--seed", "3"]
        )
        assert args.command == "report"
        assert args.experiment == "fig2"
        assert args.out == "r.html"
        assert args.seed == 3

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.command == "cluster"
        assert args.nodes == 3
        assert args.mode == "compare"
        assert args.policy == "least-outstanding"
        assert args.jobs is None
        assert not args.digest

    def test_cluster_parses_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--nodes", "5", "--mode", "coordinated",
             "--policy", "p2c", "--backends", "mysql",
             "--duration", "12", "--warmup", "3", "--epoch", "0.25",
             "--seed", "7", "--jobs", "2", "--digest"]
        )
        assert args.nodes == 5
        assert args.mode == "coordinated"
        assert args.policy == "p2c"
        assert args.backends == ["mysql"]
        assert args.duration == 12.0
        assert args.warmup == 3.0
        assert args.epoch == 0.25
        assert args.seed == 7
        assert args.jobs == 2
        assert args.digest

    def test_cluster_validates_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--mode", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--policy", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--backends", "oracle"])


class TestCommands:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out

    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_resolves_the_module_name_like_sweep_trace_report(self, capsys):
        assert main(["run", "table_experiments"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_list_derives_cases_and_names_the_opt_in_experiments(self, capsys):
        from repro.cases import all_case_ids

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert f"c1..{all_case_ids()[-1]}" in out
        for opt_in in ("resilience", "ablate-adaptive", "ablate-levers",
                       "cluster", "dag"):
            assert opt_in in out

    @pytest.mark.parametrize(
        "experiment, module",
        [("dag", "dag_overload"), ("cluster", "cluster_attribution"),
         ("resilience", "resilience")],
    )
    def test_sweep_hands_each_seed_to_the_runner(
        self, experiment, module, monkeypatch, capsys
    ):
        from importlib import import_module

        from repro.experiments import ExperimentResult

        seen = []

        def run(quick=True, seed=None):
            seen.append(seed)
            return ExperimentResult(experiment, f"ran seed {seed}")

        module = import_module(f"repro.experiments.{module}")
        monkeypatch.setattr(module, "run", run)
        assert main(["sweep", experiment, "--seeds", "0", "1", "2"]) == 0
        assert seen == [0, 1, 2]
        out = capsys.readouterr().out
        assert "ran seed 1" in out and "ran seed 2" in out
        assert main(["run", experiment, "--seed", "7"]) == 0
        assert seen[-1] == 7

    def test_run_table_experiment(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "c16" in out

    def test_case_unknown_exits_2(self):
        assert main(["case", "c99"]) == 2

    def test_case_runs_end_to_end(self, capsys):
        assert main(["case", "c16", "--system", "overload"]) == 0
        out = capsys.readouterr().out
        assert "norm_tput" in out

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:       0" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 0" in out

    @pytest.mark.slow
    def test_regress_baseline_check_report_loop(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["regress", "baseline", "--cases", "c1", "--out", baseline,
             "--cache-dir", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "1 capture(s)" in out
        assert "case:c1" in out

        # Unchanged tree: the check replays from cache and passes.
        assert main(
            ["regress", "check", "--baseline", baseline,
             "--cache-dir", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

        # A seeded detection-threshold perturbation must be flagged
        # with exit code 1 and the drifting series named.
        report_path = str(tmp_path / "diff.html")
        assert main(
            ["regress", "check", "--baseline", baseline,
             "--perturb", "contention_threshold=0.6",
             "--report", report_path, "--cache-dir", cache_dir]
        ) == 1
        out = capsys.readouterr().out
        assert "verdict: DRIFT" in out
        assert "case:c1/" in out
        html_text = open(report_path).read()
        assert "DRIFT" in html_text
        for name in out.split("verdict: DRIFT (", 1)[1] \
                .rsplit(")", 1)[0].split(", "):
            assert name.split("/", 1)[1] in html_text

        # The report action writes HTML and always exits 0.
        assert main(
            ["regress", "report", "--baseline", baseline,
             "--report", str(tmp_path / "report.html"),
             "--cache-dir", cache_dir]
        ) == 0
        assert "PASS" in open(tmp_path / "report.html").read()

    def test_regress_check_missing_baseline_exits_2(self, capsys):
        assert main(
            ["regress", "check", "--baseline", "/no/such/file.json"]
        ) == 2

    def test_regress_unknown_target_exits_2(self, capsys):
        assert main(
            ["regress", "baseline", "--targets", "case", "bogus"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown regress target(s): bogus" in err
        for known in ("case", "dag", "cluster", "lever"):
            assert known in err

    def test_regress_schedule_empty_history(self, tmp_path, capsys):
        from repro.regress.baseline import RegressBaseline

        baseline = tmp_path / "b.json"
        RegressBaseline(name="empty").write(str(baseline))
        assert main(
            ["regress", "schedule", "--baseline", str(baseline)]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "{}"

    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "cancel-drop" in out
        assert "lossy-initiator" in out

    def test_faults_run_unknown_plan_exits_2(self, capsys):
        assert main(["faults", "run", "--plan", "no-such-plan"]) == 2

    def test_faults_run_named_plan(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["faults", "run", "--plan", "lossy-initiator",
             "--cache-dir", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "Fault log" in out
        assert "cancel-drop" in out
        assert "applied" in out

    def test_faults_run_plan_file(self, tmp_path, capsys):
        from repro.faults import FaultPlan, burst

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            FaultPlan.of(burst(2.0, at=4.0, duration=2.0)).to_json()
        )
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["faults", "run", "--plan", str(plan_path),
             "--cache-dir", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "burst" in out

    @pytest.mark.slow
    def test_faults_matrix_cached_rerun_is_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["faults", "matrix", "--quick", "--kinds", "burst",
                "uncancellable", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "Chaos matrix" in cold.out
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "misses=0" in warm.err

    def test_cluster_single_mode_prints_render_and_digest(self, capsys):
        assert main(
            ["cluster", "--mode", "coordinated", "--duration", "8",
             "--warmup", "2", "--digest"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet: 3 nodes" in out
        assert "mode=coordinated" in out
        assert "digest " in out

    def test_report_unknown_experiment_exits_2(self, capsys):
        assert main(["report", "fig99"]) == 2

    def test_report_on_simulation_free_experiment(self, tmp_path, capsys):
        # Tables regenerate from registries without simulating; the
        # report degrades to a valid empty document.
        out = str(tmp_path / "t.html")
        assert main(["report", "table1", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "telemetry report for 0 run(s)" in captured.err
        text = (tmp_path / "t.html").read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "No telemetry captured" in text

    @pytest.mark.slow
    def test_report_writes_sparkline_html(self, tmp_path, capsys):
        out = str(tmp_path / "fig2.html")
        assert main(["report", "fig2", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "Fig 2" in captured.out
        assert "telemetry report for 18 run(s)" in captured.err
        text = (tmp_path / "fig2.html").read_text()
        assert text.count("<svg") >= 4 * 18
        assert "health timeline" in text

    @pytest.mark.slow
    def test_run_telemetry_writes_exports(self, tmp_path, capsys):
        out_dir = tmp_path / "tel"
        assert main(
            ["run", "fig2", "--telemetry", str(out_dir),
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        captured = capsys.readouterr()
        assert "telemetry for" in captured.err
        # Telemetry bypasses the cache entirely: all misses, serial.
        assert "hits=0" in captured.err
        for name in ("metrics.prom", "series.jsonl", "report.html"):
            assert (out_dir / name).exists(), name
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_scrapes_total counter" in prom

    @pytest.mark.slow
    def test_run_reports_campaign_stats_on_stderr(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["run", "fig10", "--cache-dir", cache_dir, "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "Fig 10a" in captured.out
        assert "[campaign]" in captured.err
        assert "[campaign]" not in captured.out

    @pytest.mark.slow
    def test_run_cached_rerun_is_identical(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig10", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr()
        assert main(["run", "fig10", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "misses=0" in warm.err


class TestReporting:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["nope"])

    def test_run_and_render_tables_only(self):
        results = run_experiments(["table1", "table2"], quick=True)
        report = render_report(results)
        assert "151" in report
        assert "c16" in report
        # Order follows the paper's artifact order.
        assert report.index("table1") < report.index("table2")

    def test_progress_callback_invoked(self):
        seen = []
        run_experiments(
            ["table1"], progress=lambda exp, dt: seen.append(exp)
        )
        assert seen == ["table1"]

    def test_default_order_covers_all_paper_artifacts(self):
        assert set(DEFAULT_ORDER) == {
            "fig2", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "table1", "table2", "table3",
        }
