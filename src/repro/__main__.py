"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run fig10 [--full] [--seed N] [--jobs N] [--no-cache]
    python -m repro run fig10 --seeds 0 1 2 [--output FILE]
    python -m repro run fig2 --telemetry out/ [--live] [--scrape-interval S]
    python -m repro run fig9 --adaptive [--cases c1 c2]
    python -m repro run ablate-adaptive [--full] [--seed N] [--cases c1 c2]
    python -m repro run ablate-levers [--full] [--seed N] [--cases c1 c17]
    python -m repro run resilience [--full] [--cases c1] [--kinds burst]
    python -m repro run cluster [--full] [--nodes N] [--policy p2c]
    python -m repro run dag [--full] [--leaves N]
    python -m repro all [--full] [--output FILE] [--jobs N] [--telemetry DIR]
    python -m repro case c5 [--system atropos] [--seed N]
    python -m repro trace fig3 --out trace.json [--util util.csv]
    python -m repro cluster [--mode coordinated|none|local] [--nodes N]
    python -m repro cluster --nodes 3 --mode coordinated --digest [--jobs N]
    python -m repro dag [--controller atropos|none|dagor|autothrottle]
    python -m repro dag --leaves 3 --controller atropos --digest [--jobs N]
    python -m repro faults list
    python -m repro faults run --plan lossy-initiator [--case c1] [--system atropos]
    python -m repro regress baseline [--out FILE] [--targets case dag cluster lever]
    python -m repro regress baseline --telemetry [--scrape-interval S]
    python -m repro regress check [--baseline FILE] [--perturb K=V] [--report FILE]
    python -m repro regress report [--baseline FILE]
    python -m repro regress schedule [--case case:c1]
    python -m repro cache stats
    python -m repro cache clear

``run`` is the one command that runs a registered experiment.  The
flags of :data:`RUNNER_FLAGS` hand their runner keyword through; a flag
whose keyword the experiment's runner does not take exits 2.  ``cluster``
and ``dag`` run one fleet or mesh mode, digestable; ``run cluster`` and
``run dag`` compare the modes.

Experiment output goes to **stdout**; progress and campaign statistics
go to **stderr**, so stdout can be diffed across invocations.  The
``--live`` dashboard and telemetry file notices also go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from . import campaign
from .cluster.routing import policy_names
from .experiments import ALL_EXPERIMENTS, resolve_experiment_id
from .reporting import DEFAULT_ORDER, render_report, run_experiments
from .telemetry import telemetry_session

#: Runner keyword -> its flag and argparse options.  ``run`` and
#: ``trace`` take every one; the experiment named decides which apply.
RUNNER_FLAGS = {
    "case_ids": ("--cases", dict(
        nargs="+", metavar="CID", help="restrict to these case ids")),
    "kinds": ("--kinds", dict(
        nargs="+", metavar="KIND", help="restrict to these fault kinds")),
    "n_nodes": ("--nodes", dict(
        type=int, metavar="N", help="app nodes in the fleet (default 3)")),
    "policy": ("--policy", dict(
        choices=policy_names(),
        help="load-balancer routing policy (default least-outstanding)")),
    "n_leaves": ("--leaves", dict(
        type=int, metavar="N",
        help="fan-out leaf services behind the gateway (default 2)")),
}


def _given(args, *names) -> dict:
    """The named flags actually given; the rest keep their callee's
    defaults."""
    return {
        name: getattr(args, name)
        for name in names
        if getattr(args, name) is not None
    }


def runner_kwargs(args, exp_id: str) -> dict:
    """The :data:`RUNNER_FLAGS` given, as the runner's keywords;
    ValueError names a flag the experiment's runner does not take."""
    kwargs = _given(args, *RUNNER_FLAGS)
    refused = [
        RUNNER_FLAGS[name][0]
        for name in kwargs
        if not ALL_EXPERIMENTS[exp_id].accepts(name)
    ]
    if refused:
        raise ValueError(f"{exp_id} takes no {' '.join(refused)}")
    return kwargs


def _experiment(args):
    """``(exp_id, runner keywords)`` the flags name; None, said on
    stderr, for an unknown experiment or a flag its runner refuses."""
    exp_id = resolve_experiment_id(args.experiment)
    if exp_id is None:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"known: {sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return None
    try:
        return exp_id, runner_kwargs(args, exp_id)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


def _telemetry_session(args):
    """Build a TelemetrySession from CLI flags; None when not requested."""
    if not (args.live or args.telemetry):
        return None
    from .telemetry import TelemetrySession, live_line

    sink = None
    if args.live:
        def sink(run, window):
            print(live_line(run, window), file=sys.stderr)

    return TelemetrySession(interval=args.scrape_interval, live_sink=sink)


def _write_telemetry(session, out_dir) -> None:
    import os

    from .telemetry import write_html_report, write_jsonl, write_prometheus

    os.makedirs(out_dir, exist_ok=True)
    write_prometheus(session.runs, os.path.join(out_dir, "metrics.prom"))
    write_jsonl(session.runs, os.path.join(out_dir, "series.jsonl"))
    write_html_report(session.runs, os.path.join(out_dir, "report.html"))
    print(
        f"telemetry for {len(session.runs)} run(s) written to {out_dir} "
        "(metrics.prom, series.jsonl, report.html)",
        file=sys.stderr,
    )


def _store_flags(args) -> dict:
    """The campaign settings every caching command declares."""
    return dict(jobs=args.jobs, cache=args.cache, cache_dir=args.cache_dir)


def _report_session(args):
    """The session of ``run`` / ``all``: every campaign setting, the
    ``--adaptive`` overlay, and telemetry when asked for."""
    return _session(
        telemetry=_telemetry_session(args),
        export_dir=args.telemetry,
        adaptive=args.adaptive or None,
        **_store_flags(args),
    )


@contextlib.contextmanager
def _session(telemetry=None, export_dir=None, **settings):
    """The scope every simulating command runs in.

    ``settings`` are the :func:`repro.campaign.settings` the command's
    flags give (an observed run resolves to one job,
    :func:`repro.campaign.current_settings`); ``telemetry`` is the
    session to scrape into.  On the way out the telemetry exports are
    written to ``export_dir``, if given, and the campaign statistics go
    to stderr.
    """
    campaign.reset_session_stats()
    with campaign.settings(**settings), telemetry_session(telemetry):
        yield
    if export_dir:
        _write_telemetry(telemetry, export_dir)
    stats = campaign.session_stats()
    if stats.runs:
        print(stats.format(), file=sys.stderr)


def _run(args, exp_id: str, seed=None, **kwargs):
    """Call one experiment's runner with the shared flags."""
    return ALL_EXPERIMENTS[exp_id](
        quick=not args.full,
        seed=args.seed if seed is None else seed,
        **kwargs,
    )


def _emit(text: str, output) -> None:
    """``text`` to stdout, or to the ``--output`` file (one final
    newline)."""
    if output:
        with open(output, "w") as handle:
            handle.write(text.rstrip("\n") + "\n")
        print(f"report written to {output}", file=sys.stderr)
    else:
        print(text)


def _case_range() -> str:
    from .cases import all_case_ids

    ids = all_case_ids()
    return f"{ids[0]}..{ids[-1]}"


def cmd_list(args) -> int:
    print("Available experiments (paper artifact -> runner):")
    for exp_id in DEFAULT_ORDER:
        print(f"  {exp_id}")
    opt_in = [i for i in ALL_EXPERIMENTS if i not in DEFAULT_ORDER]
    print(f"\nOpt-in (`python -m repro run <id>`): {', '.join(opt_in)}")
    print(f"\nAvailable cases: {_case_range()} "
          "(see `python -m repro case <id>`)")
    return 0


def cmd_run(args) -> int:
    """resolve -> session -> runner (once, or once per ``--seeds``) ->
    print -> stats."""
    picked = _experiment(args)
    if picked is None:
        return 2
    exp_id, kwargs = picked
    with _report_session(args):
        if args.seeds:
            sections = []
            for seed in args.seeds:
                print(f"[sweep {exp_id} seed={seed}]", file=sys.stderr)
                result = _run(args, exp_id, seed=seed, **kwargs)
                sections.append(f"## seed={seed}\n\n{result.format()}")
            text = f"# Sweep: {exp_id} (seeds={args.seeds})\n\n" + \
                "\n\n".join(sections)
        else:
            started = time.time()
            text = _run(args, exp_id, **kwargs).format()
            print(
                f"[{exp_id} done in {time.time() - started:.1f}s]",
                file=sys.stderr,
            )
        _emit(text, args.output)
    return 0


def cmd_all(args) -> int:
    def progress(exp_id, elapsed):
        print(f"  {exp_id:<8} done in {elapsed:6.1f}s",
              file=sys.stderr, flush=True)

    print("Running all experiments "
          f"({'full' if args.full else 'quick'} mode)...",
          file=sys.stderr)
    with _report_session(args):
        results = run_experiments(
            quick=not args.full, seed=args.seed, progress=progress
        )
        _emit(render_report(results), args.output)
    return 0


def cmd_case(args) -> int:
    from .baselines import controller_factory
    from .cases import all_case_ids, get_case

    if args.case not in all_case_ids():
        print(
            f"unknown case {args.case!r}; known: {all_case_ids()}",
            file=sys.stderr,
        )
        return 2
    case = get_case(args.case)
    print(f"{case.case_id} ({case.app_name}): {case.trigger}")
    baseline = case.run_baseline(seed=args.seed)
    result = case.run(
        controller_factory=controller_factory(
            args.system,
            case.slo_latency,
            atropos_overrides=case.atropos_overrides,
        ),
        seed=args.seed,
    )
    s = result.summary
    print(
        f"system={args.system}  "
        f"norm_tput={s.throughput / baseline.throughput:.3f}  "
        f"norm_p99={s.p99_latency / baseline.p99_latency:.2f}  "
        f"drop_rate={s.drop_rate:.4f}  "
        f"cancels={result.controller.cancels_issued}"
    )
    decision_log = result.controller.decision_log
    if args.explain and decision_log is not None:
        print("\nDecision timeline:")
        print(decision_log.render(limit=args.explain))
    return 0


def cmd_trace(args) -> int:
    from .obs import (
        Tracer,
        render_trace_summary,
        tracing,
        write_audit_json,
        write_chrome_trace,
        write_utilization_csv,
    )

    picked = _experiment(args)
    if picked is None:
        return 2
    exp_id, kwargs = picked
    out = args.out or f"{exp_id}-trace.json"
    tracer = Tracer(max_runs=None if args.all_runs else 1)
    with _session(), tracing(tracer):
        print(_run(args, exp_id, **kwargs).format())
    print()
    write_chrome_trace(tracer, out)
    print(f"chrome trace written to {out} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    if args.util:
        write_utilization_csv(tracer, args.util)
        print(f"utilization CSV written to {args.util}")
    if args.audit:
        write_audit_json(tracer.audits, args.audit)
        print(f"decision audits written to {args.audit}")
    print()
    print(render_trace_summary(tracer))
    return 0


def cmd_faults(args) -> int:
    from .faults import FAULT_KINDS, named_plans, resolve_plan

    if args.faults_command == "list":
        print("Fault kinds (see docs/RESILIENCE.md for the schema):")
        for kind, (required, optional, description) in sorted(
            FAULT_KINDS.items()
        ):
            params = list(required) + [
                f"{name}={default!r}" for name, default in sorted(
                    optional.items()
                )
            ]
            rendered = ", ".join(params) if params else "-"
            print(f"  {kind:<16} params: {rendered}")
            print(f"  {'':<16} {description}")
        print("\nNamed plans (use with `repro faults run --plan <name>`):")
        for name, plan in sorted(named_plans().items()):
            print(f"  {name:<20} {plan.describe()}")
        return 0

    from .experiments.case_family import case_spec

    try:
        plan = resolve_plan(args.plan)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    spec = case_spec(
        "faults-cli", args.case, seed=args.seed,
        system=args.system, faults=plan,
    )
    with _session(**_store_flags(args)):
        outcome = campaign.execute([spec])[0]
    s = outcome.summary
    print(
        f"case={args.case} system={args.system} seed={args.seed} "
        f"plan={args.plan}"
    )
    print(f"plan: {plan.describe()}")
    print(
        f"tput={s.throughput:.1f}/s  p99={s.p99_latency * 1000:.1f}ms  "
        f"drop_rate={s.drop_rate:.4f}  cancels={outcome.cancels}  "
        f"signals_dropped={outcome.extras['cancel_signals_dropped']}"
    )
    print("\nFault log:")
    for event in outcome.extras.get("fault_events", []):
        marker = "applied" if event["applied"] else "no-op"
        print(
            f"  t={event['time']:7.3f}s  {event['phase']:<7} "
            f"{event['kind']:<16} [{marker}] {event['detail']}"
        )
    cancelled = outcome.extras.get("cancelled_ops", [])
    if cancelled:
        print(f"\nCancelled operations: {', '.join(cancelled)}")
    return 0


def _print_run(args, result) -> int:
    """One fleet or mesh run: its rendering and, asked, its sha256."""
    print(result.render())
    if args.digest:
        print(f"digest {result.digest()}")
    return 0


_HORIZON = ("duration", "warmup", "epoch")


def cmd_cluster(args) -> int:
    from .cluster import demo_fleet, run_fleet

    spec = demo_fleet(
        backends=tuple(args.backends),
        mode=args.mode,
        seed=args.seed,
        **_given(args, "n_nodes", "policy", *_HORIZON),
    )
    return _print_run(args, run_fleet(spec, jobs=args.jobs))


def cmd_dag(args) -> int:
    from .cluster import run_dag
    from .workloads.dag import dag_storm

    spec = dag_storm(seed=args.seed, **_given(args, "n_leaves", *_HORIZON))
    return _print_run(
        args, run_dag(spec, controller=args.controller, jobs=args.jobs)
    )


def cmd_regress(args) -> int:
    from .regress import (
        RegressBaseline,
        capture,
        compare,
        recapture,
        write_diff_report,
    )
    from .regress.capture import parse_perturbations

    if args.action == "baseline":
        from . import __version__
        from .experiments.regressable import (
            REGRESS_CASES,
            REGRESS_TARGETS,
            regress_entries,
        )

        unknown = [t for t in args.targets if t not in REGRESS_TARGETS]
        if unknown:
            print(
                "unknown regress target(s): {}; known targets: {}".format(
                    ", ".join(sorted(unknown)), ", ".join(REGRESS_TARGETS)
                ),
                file=sys.stderr,
            )
            return 2
        cases = list(args.case_ids or REGRESS_CASES)
        entries = regress_entries(
            targets=args.targets, cases=cases, seed=args.seed
        )
        meta = {
            "seed": args.seed,
            "targets": list(args.targets),
            "cases": cases,
            "repro_version": __version__,
        }
        if args.telemetry:
            meta["telemetry_interval"] = args.scrape_interval
        with _session(**_store_flags(args)):
            baseline = capture(
                args.name,
                entries,
                jobs=args.jobs,
                meta=meta,
                telemetry=args.telemetry,
                scrape_interval=args.scrape_interval,
            )
        baseline.write(args.out)
        print(
            f"baseline {args.name!r}: {len(baseline.cases)} capture(s) "
            f"written to {args.out}"
        )
        for case in baseline.cases:
            print(
                f"  {case.name:<24} p99={case.summary['p99_latency']} "
                f"cancelled={case.summary['cancelled']}"
            )
        return 0

    def read_baseline():
        try:
            return RegressBaseline.read(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return None

    if args.action == "schedule":
        import json as _json

        from .regress.schedule import derive_schedules

        baseline = read_baseline()
        if baseline is None:
            return 2
        schedules = derive_schedules(baseline)
        if args.case is not None:
            schedules = {
                name: schedule
                for name, schedule in schedules.items()
                if name == args.case
            }
        print(_json.dumps(schedules, indent=2, sort_keys=True))
        if not schedules:
            print(
                "no sustained p99-ceiling phases in the baseline "
                "history (nothing to schedule)",
                file=sys.stderr,
            )
        return 0

    # check / report share the capture-and-compare path.
    baseline = read_baseline()
    if baseline is None:
        return 2
    try:
        perturb = parse_perturbations(args.perturb or ())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with _session(**_store_flags(args)):
        current = recapture(baseline, jobs=args.jobs, perturb=perturb)
    result = compare(baseline, current, rel_tol=args.rel_tol)
    print(result.format())
    report_path = args.report
    if args.action == "report" and report_path is None:
        report_path = "regress-report.html"
    if report_path is not None:
        write_diff_report(result, baseline, current, report_path)
        print(f"HTML diff written to {report_path}", file=sys.stderr)
    if args.action == "check":
        return 1 if result.drifted else 0
    return 0


def cmd_cache(args) -> int:
    from .campaign.store import ResultStore, default_cache_dir

    root = args.cache_dir or default_cache_dir()
    store = ResultStore(root)
    if args.action == "stats":
        print(store.stats().format())
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached results from {root}")
    return 0


def _parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A flag group other parsers inherit (``parents=``)."""
    return argparse.ArgumentParser(add_help=False, parents=parents)


def _seed(default: int = 0) -> argparse.ArgumentParser:
    parent = _parent()
    parent.add_argument("--seed", type=int, default=default, metavar="N")
    return parent


def _add_horizon_flags(
    parser, duration: int, warmup: int, epoch_help: str
) -> None:
    """What ``cluster`` and ``dag`` share: the run horizon and digest."""
    parser.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help=f"simulated seconds (default {duration})",
    )
    parser.add_argument(
        "--warmup", type=float, default=None, metavar="S",
        help=f"seconds excluded from the report (default {warmup})",
    )
    parser.add_argument(
        "--epoch", type=float, default=None, metavar="S", help=epoch_help
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print the run's canonical sha256 (determinism checks)",
    )


def build_parser() -> argparse.ArgumentParser:
    from .baselines import SYSTEMS
    from .cluster.spec import BACKENDS, MODES
    from .workloads.dag import DAG_CONTROLLERS

    # Each shared flag is spelled once, here, and inherited.
    seed = _seed()
    full = _parent()
    full.add_argument("--full", action="store_true",
                      help="full sweeps instead of quick mode")
    jobs = _parent()
    jobs.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for simulation runs, or node shards for "
        "a fleet / mesh run (default: $REPRO_JOBS or 1; parallel and "
        "serial runs are byte-identical)",
    )
    store = _parent()
    store.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-store location (default: $REPRO_CACHE_DIR "
        "or .repro-cache)",
    )
    campaign_flags = _parent(jobs, store)
    campaign_flags.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="reuse cached run results (default: $REPRO_CACHE or on)",
    )
    scrape = _parent()
    scrape.add_argument(
        "--scrape-interval", type=float, default=0.25, metavar="S",
        help="simulated seconds between telemetry scrapes (default 0.25)",
    )
    telemetry = _parent(scrape)
    telemetry.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="scrape the runs and write metrics.prom / series.jsonl / "
        "report.html into DIR (runs serial; skips cache reads)",
    )
    telemetry.add_argument(
        "--live", action="store_true",
        help="print a live telemetry dashboard line per scrape to stderr",
    )
    runner_flags = {}
    for name, (flag, options) in RUNNER_FLAGS.items():
        runner_flags[name] = _parent()
        runner_flags[name].add_argument(flag, dest=name, **options)
    experiment = _parent(*runner_flags.values())
    experiment.add_argument(
        "experiment", help="id or module name, e.g. fig3 or "
        "fig3_lock_contention (see `list`)",
    )
    report = _parent(seed, full, campaign_flags, telemetry)
    report.add_argument(
        "--adaptive", action="store_true",
        help="run ATROPOS with health-driven adaptive thresholds "
        "(separate cache entries from fixed-threshold runs)",
    )
    report.add_argument(
        "--output", metavar="FILE", help="write the report to a file"
    )
    system = _parent()
    system.add_argument("--system", default="atropos", choices=list(SYSTEMS))

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ATROPOS (SOSP 2025) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list experiments and cases"
    ).set_defaults(func=cmd_list)

    p_run = sub.add_parser(
        "run", parents=[experiment, report], help="run one experiment"
    )
    p_run.add_argument(
        "--seeds", type=int, nargs="+", default=None, metavar="N",
        help="run once per seed into one `# Sweep:` document",
    )
    p_run.set_defaults(func=cmd_run)

    sub.add_parser(
        "all", parents=[report], help="run every report experiment"
    ).set_defaults(func=cmd_all)

    p_case = sub.add_parser(
        "case", parents=[seed, system], help="run one overload case"
    )
    p_case.add_argument("case", help=_case_range())
    p_case.add_argument(
        "--explain", type=int, nargs="?", const=40, default=0, metavar="N",
        help="print the last N decision-timeline events (atropos only)",
    )
    p_case.set_defaults(func=cmd_case)

    p_trace = sub.add_parser(
        "trace", parents=[experiment, seed, full],
        help="run one experiment with tracing enabled",
    )
    p_trace.add_argument(
        "--out", help="chrome-trace output path "
        "(default: <experiment>-trace.json)"
    )
    p_trace.add_argument(
        "--util", metavar="FILE",
        help="also write per-resource utilization counters as CSV",
    )
    p_trace.add_argument(
        "--audit", metavar="FILE",
        help="also write the cancellation decision audits as JSON",
    )
    p_trace.add_argument(
        "--all-runs", action="store_true",
        help="trace every run of the sweep (default: first run only)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_faults = sub.add_parser(
        "faults", help="fault injection: list kinds, run one plan"
    )
    f_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    f_sub.add_parser(
        "list", help="list fault kinds and named plans"
    ).set_defaults(func=cmd_faults)
    f_run = f_sub.add_parser(
        "run", parents=[seed, system, campaign_flags],
        help="run one case with a fault plan injected",
    )
    f_run.add_argument(
        "--plan", required=True, metavar="NAME|FILE",
        help="named plan (see `faults list`) or a FaultPlan JSON file",
    )
    f_run.add_argument("--case", default="c1", help="case id (default c1)")
    f_run.set_defaults(func=cmd_faults)

    p_cluster = sub.add_parser(
        "cluster",
        parents=[seed, jobs, runner_flags["n_nodes"], runner_flags["policy"]],
        help="one fleet run: LB routing + cross-node culprit attribution",
    )
    p_cluster.add_argument(
        "--backends", nargs="+", default=list(BACKENDS), choices=BACKENDS,
        help="backend cycle assigned to nodes (default: mysql postgres)",
    )
    p_cluster.add_argument(
        "--mode", default="coordinated", choices=MODES,
        help="control mode (default coordinated)",
    )
    _add_horizon_flags(
        p_cluster, 30, 5, "coordinator scrape / LB sync interval "
        "(default 0.5)",
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_dag = sub.add_parser(
        "dag", parents=[seed, jobs, runner_flags["n_leaves"]],
        help="one microservice-DAG mesh run under a cross-service storm",
    )
    p_dag.add_argument(
        "--controller", default="atropos", choices=DAG_CONTROLLERS,
        help="per-service controller (default atropos)",
    )
    _add_horizon_flags(
        p_dag, 24, 4, "mesh RPC / feedback sync interval (default 0.25)"
    )
    p_dag.set_defaults(func=cmd_dag)

    p_regress = sub.add_parser(
        "regress",
        help="longitudinal regression observatory (baseline/check)",
    )
    r_sub = p_regress.add_subparsers(dest="action", required=True)

    r_base = r_sub.add_parser(
        "baseline",
        parents=[_seed(1), scrape, campaign_flags, runner_flags["case_ids"]],
        help="capture a named baseline snapshot",
    )
    r_base.add_argument(
        "--out", default="REGRESS_BASELINE.json", metavar="FILE",
        help="snapshot path (default REGRESS_BASELINE.json)",
    )
    r_base.add_argument(
        "--name", default="standard", help="baseline name (default "
        "'standard')",
    )
    r_base.add_argument(
        "--targets", nargs="+", default=["case"], metavar="TARGET",
        help="regressable families to capture (default: case; known "
        "targets come from repro.experiments.regressable)",
    )
    r_base.add_argument(
        "--telemetry", action="store_true",
        help="scrape each capture and snapshot condensed window "
        "summaries into the baseline (serial, cache reads bypassed)",
    )
    r_base.set_defaults(func=cmd_regress)

    baseline = _parent()
    baseline.add_argument(
        "--baseline", default="REGRESS_BASELINE.json", metavar="FILE",
        help="baseline snapshot (default REGRESS_BASELINE.json)",
    )
    for action, helptext in (
        ("check", "re-run a baseline's specs and gate on drift "
         "(exit 1 when anything drifted)"),
        ("report", "like check but always writes the HTML diff; "
         "exit 0"),
    ):
        r_action = r_sub.add_parser(
            action, parents=[baseline, campaign_flags], help=helptext
        )
        r_action.add_argument(
            "--perturb", nargs="+", default=None, metavar="KEY=VALUE",
            help="AtroposConfig overrides merged into case-family "
            "specs (seeded drift, e.g. slo_slack=0.8)",
        )
        r_action.add_argument(
            "--report", default=None, metavar="FILE",
            help="write the HTML diff here (default for `report`: "
            "regress-report.html)",
        )
        r_action.add_argument(
            "--rel-tol", type=float, default=0.05, metavar="R",
            help="relative drift tolerance (default 0.05)",
        )
        r_action.set_defaults(func=cmd_regress)

    r_sched = r_sub.add_parser(
        "schedule", parents=[baseline],
        help="derive per-case threshold schedules from baseline history",
    )
    r_sched.add_argument(
        "--case", default=None, metavar="NAME",
        help="only the named capture (e.g. case:c1)",
    )
    r_sched.set_defaults(func=cmd_regress)

    p_cache = sub.add_parser(
        "cache", parents=[store], help="inspect or clear the result store"
    )
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
