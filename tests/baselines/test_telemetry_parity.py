"""Controllers expose scrape-complete telemetry_snapshot()s.

The telemetry scraper reads ``snapshot["detector"]`` with the keys
``overloaded`` / ``tail_latency`` / ``throughput`` / ``samples``, so the
window-driven baselines must provide that dict.  A snapshot holds
exactly the sections the scraper reads -- ``cancels_issued``,
``detector``, ``signals``, ``blame`` -- and nothing it would drop, and
the scraped exports of every system are pinned by digest.
"""

import hashlib

import pytest

from repro.baselines import SYSTEMS, controller_factory
from repro.core.pipeline import WindowedController
from repro.sim import Environment

DETECTOR_KEYS = {"overloaded", "tail_latency", "throughput", "samples"}


def build(name):
    return controller_factory(name, slo_latency=0.05)(Environment())


ALL_BASELINES = [n for n in SYSTEMS if n not in ("overload", "atropos")]
#: Baselines whose control loop watches a latency window (and therefore
#: report detector-style signals to the scraper).
WINDOWED = [
    n for n in ALL_BASELINES if isinstance(build(n), WindowedController)
]


def test_the_derived_lists_are_the_eight_and_the_five():
    assert len(ALL_BASELINES) == 8
    assert sorted(WINDOWED) == [
        "autothrottle", "breakwater", "dagor", "parties", "seda",
    ]


class TestSnapshotParity:
    @pytest.mark.parametrize("name", ALL_BASELINES)
    def test_snapshot_is_a_dict_with_cancel_counter(self, name):
        snap = build(name).telemetry_snapshot()
        assert isinstance(snap, dict)
        assert "cancels_issued" in snap

    @pytest.mark.parametrize("name", WINDOWED)
    def test_windowed_baselines_report_detector_signals(self, name):
        controller = build(name)
        snap = controller.telemetry_snapshot()
        assert DETECTOR_KEYS <= set(snap["detector"])
        assert snap["detector"]["overloaded"] in (0.0, 1.0)
        assert controller.rejections == 0

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_snapshot_holds_only_what_the_scraper_reads(self, name):
        """Every top-level section of a snapshot is one
        ``Scraper._scrape_controller`` reads: a section it never reads
        is state built each scrape for nobody."""
        from repro.telemetry.scrape import RunTelemetry, Scraper

        controller = build(name)
        snap = _ReadKeys(controller.telemetry_snapshot())
        controller.telemetry_snapshot = lambda: snap
        scraper = Scraper(controller.env, RunTelemetry("guard", 0.25), [])
        scraper._controller = controller
        scraper._scrape_controller({})
        assert set(snap) <= snap.read


class _ReadKeys(dict):
    """A snapshot that remembers which of its top-level keys were read."""

    def __init__(self, snap):
        super().__init__(snap)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestScraperConsumesBaselines:
    def test_scraped_run_has_detector_series_for_seda(self):
        from repro.apps.mysql import MySQL, light_mix
        from repro.experiments import run_simulation
        from repro.telemetry import TelemetrySession, telemetry_session
        from repro.workloads import OpenLoopSource, Workload

        session = TelemetrySession(interval=0.5)
        with telemetry_session(session):
            run_simulation(
                lambda env, ctl, rng: MySQL(env, ctl, rng),
                lambda app, rng: Workload(
                    [OpenLoopSource(rate=100.0, mix=light_mix(rng))]
                ),
                controller_factory("seda", 0.05),
                duration=2.0,
                seed=0,
                label="parity",
            )
        run = session.runs[0]
        names = {name for name, _, _, _ in run.registry.collect()}
        assert "repro_detector_overloaded" in names
        assert "repro_detector_window_samples" in names


#: The systems whose controller declares the SLO it was built with;
#: Breakwater (a queueing-delay target), DARC and the uncontrolled
#: baseline declare none.
DECLARE_SLO = {
    "atropos", "pbox", "protego", "parties", "seda", "dagor", "autothrottle",
}


class TestDeclaredObserverState:
    """What observers read is declared on ``BaseController``: ``None``
    unless the controller has it."""

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_declared_attributes(self, name):
        controller = build(name)
        assert controller.slo_latency == (
            0.05 if name in DECLARE_SLO else None
        )
        for attribute in (
            "cancellation", "decision_log", "detector", "adaptation",
        ):
            declared = getattr(controller, attribute)
            assert (declared is not None) == (name == "atropos"), attribute
        assert (controller.estimator is not None) == (
            name in ("atropos", "pbox")
        )

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_scraped_faulted_run_fills_every_reader(self, name):
        """Two seconds of c1 under the perfect-storm faults, moved into
        the run: the extras, the scrape windows and the fault log are
        all filled in, and each fault applies exactly where the
        controller declares its target."""
        from dataclasses import replace

        from repro.campaign.spec import load_all_families
        from repro.experiments.harness import (
            extract_extras,
            resolve_sim,
            run_simulation,
        )
        from repro.faults import FaultPlan, named_plans
        from repro.telemetry import TelemetrySession, telemetry_session

        plan = FaultPlan.of(*(
            replace(fault, at=0.5, duration=1.0)
            for fault in named_plans()["perfect-storm"]
        ))
        load_all_families()
        build_case = resolve_sim("case")({"case_id": "c1", "system": name})
        session = TelemetrySession(interval=0.25)
        with telemetry_session(session):
            result = run_simulation(
                build_case.app_factory,
                build_case.workload_factory,
                build_case.controller_factory,
                duration=2.0,
                fault_plan=plan,
            )
        controller = result.controller
        extras = extract_extras(result)
        assert result.summary.completed > 0
        assert len(extras["series"]["end"]) > 0
        assert ("decision_mix" in extras) == (name == "atropos")
        assert len(result.telemetry.windows) == 8
        assert result.telemetry.fault_events == extras["fault_events"]
        applied = {
            event["kind"]: event["applied"]
            for event in extras["fault_events"]
            if event["phase"] == "inject"
        }
        assert applied == {
            "burst": True,
            "detector-noise": controller.detector is not None,
            "cancel-drop": controller.cancellation is not None,
        }
        assert len(extras["fault_events"]) == 6


#: sha256 of ``(prometheus_text, jsonl_series)`` of a scraped c1 run
#: (6 s, seed 0, one scrape every 0.25 s) under each system.  The run
#: covers the three scans (2, 3 and 4 s) and the backup (5 s), so each
#: controller has something to act on.  DARC's reservation of the InnoDB
#: queue changes no request of these 6 s, so DARC's run scrapes like the
#: uncontrolled one.
TELEMETRY_GOLDENS = {
    "overload": (
        "ed316fed2ffb544aa3de9d82f5703a9f603ee7ef8bf7d61c1d4549837dea7c4a",
        "9960a2e65a31a51836c725365c630128a3dc81afde154340a3a65212ea3330b9",
    ),
    "atropos": (
        "21732d739ca794a8564df63bfc05362a7a247e2ed722f37bb857cdc44d8dde5b",
        "0a22125d36b8716c55494d78a4a8adba0f29a5be56105d078316599166ac8fd8",
    ),
    "protego": (
        "54f32284796a5412fb3a977436973c293f251a823c4a136a8b7a1228f91d3fbc",
        "fdf7d78e3f2411adb21fc8be7f97307d94424518e6818806433547460d8166a2",
    ),
    "pbox": (
        "5e945d9fb3a3d4fd0980d51753134dc7472de1daeb261216be631e6f311fc0db",
        "e408e9545d8a0c10610e975411160d0cbb0679d0a714b83f559d7c83c07efad1",
    ),
    "darc": (
        "ed316fed2ffb544aa3de9d82f5703a9f603ee7ef8bf7d61c1d4549837dea7c4a",
        "9960a2e65a31a51836c725365c630128a3dc81afde154340a3a65212ea3330b9",
    ),
    "parties": (
        "7c6b1c08656a2ba6363442d3495301d69965da9f7df1317d045959f33433aa0c",
        "6d8926d8cee6dd868f230d5a8c1c2d0d84f032d2bf57b3266bab27eb9f7a19db",
    ),
    "seda": (
        "358ee3d07836143af1b223d868aff2557d896480927c0f8fd0ddf2e2b0117c54",
        "1698468dad0709f47ae6b3ac2a12eb9997dd1d3050c8682e14693a397628cabc",
    ),
    "breakwater": (
        "75d52873eea23de74b7815d7a9d3cd6f6e401ced62e0d0d5ff735ecf01f75dae",
        "f8b14cd556ea70a3c6933d659fc089eef2003494c57e22785635e5ed3367833f",
    ),
    "dagor": (
        "43b0b7724bf9e0b7d81e241bde7f9d37633577bdc562accd7a752888fbed85bc",
        "32f914c80b394e9784128285305d47070f60ee017773b5701c5ac2ef1e2fac7e",
    ),
    "autothrottle": (
        "775c096a939130a36413615b51163bdebb159910cae5dd936f627ef9dcb60b9d",
        "9392275e7585c88f50e7a9eaef226e1872abff853f82dad2886ea205f0e22dbe",
    ),
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_scraped_exports_match_golden(name):
    from repro.campaign.spec import load_all_families
    from repro.experiments.harness import resolve_sim, run_simulation
    from repro.telemetry import (
        TelemetrySession,
        jsonl_series,
        prometheus_text,
        telemetry_session,
    )

    load_all_families()
    build_case = resolve_sim("case")({"case_id": "c1", "system": name})
    session = TelemetrySession(interval=0.25)
    with telemetry_session(session):
        run_simulation(
            build_case.app_factory,
            build_case.workload_factory,
            build_case.controller_factory,
            duration=6.0,
        )
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (
            prometheus_text(session.runs), jsonl_series(session.runs),
        )
    )
    assert digests == TELEMETRY_GOLDENS[name]
