"""Tests for the CLI (`python -m repro`) and report generation."""

import argparse
import inspect
from importlib import import_module

import pytest

from repro.__main__ import build_parser, main
from repro.reporting import DEFAULT_ORDER, render_report, run_experiments


#: (retired spelling, its ``run`` spelling, runner module, the keyword
#: arguments the retired spelling handed the runner per call).
ROUTES = [
    ("ablate-adaptive --cases c2 c12 --seed 1",
     "run ablate-adaptive --cases c2 c12 --seed 1", "ablate_adaptive",
     [dict(quick=True, seed=1, case_ids=["c2", "c12"])]),
    ("ablate", "run ablate-adaptive", "ablate_adaptive",
     [dict(quick=True, seed=0, case_ids=None)]),
    ("ablate --levers --full --cases c17",
     "run ablate-levers --full --cases c17", "ablate_levers",
     [dict(quick=False, seed=0, case_ids=["c17"])]),
    ("faults matrix --kinds cancel-drop burst",
     "run resilience --kinds cancel-drop burst", "resilience",
     [dict(quick=True, seed=0, case_ids=None,
           kinds=["cancel-drop", "burst"])]),
    ("faults matrix --full --cases c1 --seed 2",
     "run resilience --full --cases c1 --seed 2", "resilience",
     [dict(quick=False, seed=2, case_ids=["c1"], kinds=None)]),
    ("sweep fig11 --seeds 0 1", "run fig11 --seeds 0 1", "fig11_drop_rate",
     [dict(quick=True, seed=0), dict(quick=True, seed=1)]),
    ("report fig2 --seed 3 --out F", "run fig2 --seed 3 --telemetry {tmp}",
     "fig2_buffer_pool", [dict(quick=True, seed=3)]),
    ("cluster", "run cluster", "cluster_attribution",
     [dict(quick=True, seed=0, n_nodes=3, policy="least-outstanding")]),
    ("cluster --nodes 5 --policy p2c --full",
     "run cluster --nodes 5 --policy p2c --full", "cluster_attribution",
     [dict(quick=False, seed=0, n_nodes=5, policy="p2c")]),
    ("dag --leaves 3", "run dag --leaves 3", "dag_overload",
     [dict(quick=True, seed=0, n_leaves=3)]),
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_top_level_commands(self):
        (sub,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(sub.choices) == [
            "list", "run", "all", "case", "trace", "faults", "cluster",
            "dag", "regress", "cache",
        ]

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
            ["run", "ablate-adaptive", "--seed", "1", "--cases", "c2", "c12"]
        )
        assert args.experiment == "ablate-adaptive"
        assert args.seed == 1
        assert args.case_ids == ["c2", "c12"]

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
            ["run", "fig10", "--seeds", "0", "1", "2", "--output", "s.txt"]
        )
        assert args.seeds == [0, 1, 2]
        assert args.output == "s.txt"
        assert build_parser().parse_args(["run", "fig10"]).seeds is None

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
        assert args.case_ids == ["c1", "c2"]
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
            ["run", "ablate-levers", "--cases", "c17", "c18"]
        )
        assert args.experiment == "ablate-levers"
        assert args.case_ids == ["c17", "c18"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablate", "--levers"])

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
            ["run", "resilience", "--kinds", "burst",
             "cancel-drop", "--cases", "c1", "--jobs", "2"]
        )
        assert args.experiment == "resilience"
        assert args.kinds == ["burst", "cancel-drop"]
        assert args.case_ids == ["c1"]
        assert args.jobs == 2
        assert not args.full
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "matrix"])

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
        # The HTML report is what `run --telemetry DIR` writes.
        args = build_parser().parse_args(
            ["run", "fig2", "--telemetry", "out", "--seed", "3"]
        )
        assert args.experiment == "fig2"
        assert args.telemetry == "out"
        assert args.seed == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "fig2"])

    def test_cluster_defaults(self):
        # Unset --nodes / --policy keep the scenario's defaults.
        args = build_parser().parse_args(["cluster"])
        assert args.command == "cluster"
        assert args.n_nodes is None
        assert args.mode == "coordinated"
        assert args.policy is None
        assert args.jobs is None
        assert not args.digest
        assert build_parser().parse_args(["dag"]).controller == "atropos"

    def test_cluster_parses_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--nodes", "5", "--mode", "coordinated",
             "--policy", "p2c", "--backends", "mysql",
             "--duration", "12", "--warmup", "3", "--epoch", "0.25",
             "--seed", "7", "--jobs", "2", "--digest"]
        )
        assert args.n_nodes == 5
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
            build_parser().parse_args(["cluster", "--mode", "compare"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--full"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dag", "--controller", "compare"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dag", "--cache-dir", "c"])
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
        assert main(["run", experiment, "--seeds", "0", "1", "2"]) == 0
        assert seen == [0, 1, 2]
        out = capsys.readouterr().out
        assert out.startswith(f"# Sweep: {experiment} (seeds=[0, 1, 2])")
        assert "ran seed 1" in out and "ran seed 2" in out
        assert main(["run", experiment, "--seed", "7"]) == 0
        assert seen[-1] == 7

    @pytest.mark.parametrize(
        "retired, spelling, module, calls", ROUTES, ids=[r[0] for r in ROUTES]
    )
    def test_each_new_spelling_hands_the_runner_what_the_retired_did(
        self, retired, spelling, module, calls, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments import ExperimentResult

        module = import_module(f"repro.experiments.{module}")
        signature = inspect.signature(module.run)

        def effective(kwargs):
            bound = signature.bind(**kwargs)
            bound.apply_defaults()
            return dict(bound.arguments)

        seen = []

        def run(**kwargs):
            seen.append(effective(kwargs))
            return ExperimentResult("routed", "routed")

        run.__signature__ = signature
        monkeypatch.setattr(module, "run", run)
        argv = spelling.format(tmp=tmp_path).split()
        assert main(argv) == 0
        assert seen == [effective(kwargs) for kwargs in calls]

    def test_a_flag_the_runner_does_not_take_exits_2(self, capsys):
        assert main(["run", "fig2", "--kinds", "burst"]) == 2
        assert "--kinds" in capsys.readouterr().err
        assert main(["trace", "table1", "--cases", "c1"]) == 2
        assert "--cases" in capsys.readouterr().err

    def test_trace_runs_serially_and_warms_the_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.campaign import execute
        from repro.experiments import ExperimentResult
        from repro.experiments.case_family import case_spec

        def run(quick=True, seed=0, case_ids=None):
            execute([case_spec("t", "c1", seed, include_culprit=False)])
            return ExperimentResult("fig11", "one run")

        module = import_module("repro.experiments.fig11_drop_rate")
        monkeypatch.setattr(module, "run", run)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert main(["trace", "fig11", "--out", str(tmp_path / "t.json")]) == 0
        assert "misses=1 jobs=1 " in capsys.readouterr().err
        assert main(["run", "fig11"]) == 0
        assert "hits=1 misses=0" in capsys.readouterr().err

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
        argv = ["run", "resilience", "--kinds", "burst",
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

    def test_report_unknown_experiment_exits_2(self, tmp_path, capsys):
        assert main(["run", "fig99", "--telemetry", str(tmp_path)]) == 2

    def test_report_on_simulation_free_experiment(self, tmp_path, capsys):
        # Tables regenerate from registries without simulating; the
        # report degrades to a valid empty document.
        assert main(["run", "table1", "--telemetry", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "telemetry for 0 run(s)" in captured.err
        text = (tmp_path / "report.html").read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "No telemetry captured" in text

    @pytest.mark.slow
    def test_report_writes_sparkline_html(self, tmp_path, capsys):
        assert main(["run", "fig2", "--telemetry", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "Fig 2" in captured.out
        assert "telemetry for 18 run(s)" in captured.err
        text = (tmp_path / "report.html").read_text()
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
        # Telemetry skips cache reads: all misses, serial.
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
