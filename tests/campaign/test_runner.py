"""Tests for settings resolution and the execute() pipeline."""

import contextlib
import os
import signal

import pytest

from repro.campaign import (
    CampaignWorkerError,
    RunSpec,
    current_settings,
    execute,
    reset_session_stats,
    session_stats,
    settings,
)
from repro.campaign.runner import CACHE_ENV, JOBS_ENV
from repro.experiments import harness
from repro.experiments.case_family import case_spec
from repro.obs import Tracer, dumps_chrome_trace, tracing


#: One cheap deterministic run (c1 baseline, no controller).
def _spec(seed=0, experiment="test"):
    return case_spec(experiment, "c1", seed, include_culprit=False)


class TestSettingsResolution:
    def test_defaults(self, monkeypatch, tmp_path):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.delenv(CACHE_ENV, raising=False)
        cfg = current_settings()
        assert cfg.jobs == 1
        assert cfg.cache is True

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        monkeypatch.setenv(CACHE_ENV, "off")
        cfg = current_settings()
        assert cfg.jobs == 3
        assert cfg.cache is False

    def test_overlay_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(JOBS_ENV, "3")
        with settings(jobs=2, cache_dir=tmp_path):
            cfg = current_settings()
            assert cfg.jobs == 2
            assert cfg.cache_dir == tmp_path

    def test_explicit_beats_overlay(self, tmp_path):
        with settings(jobs=2):
            assert current_settings(jobs=5).jobs == 5

    def test_overlays_nest_and_unwind(self):
        with settings(jobs=2):
            with settings(jobs=4):
                assert current_settings().jobs == 4
            assert current_settings().jobs == 2

    def test_jobs_floor_is_one(self):
        assert current_settings(jobs=0).jobs == 1


class TestExecute:
    def test_empty_batch(self):
        assert execute([]) == []

    def test_outcomes_in_spec_order(self, tmp_path):
        specs = [_spec(seed=0), _spec(seed=1)]
        reset_session_stats()
        outcomes = execute(specs, cache_dir=tmp_path)
        assert [o.spec for o in outcomes] == specs
        assert all(not o.cache_hit for o in outcomes)
        assert session_stats().misses == len(specs)

    def test_duplicate_specs_run_once(self, tmp_path):
        reset_session_stats()
        outcomes = execute([_spec(), _spec()], cache_dir=tmp_path)
        stats = session_stats()
        assert stats.runs == 2
        assert stats.misses == 1  # deduplicated within the batch
        assert outcomes[0].to_payload() == outcomes[1].to_payload()

    def test_cache_hit_on_second_call(self, tmp_path):
        cold = execute([_spec()], cache_dir=tmp_path)
        warm = execute([_spec()], cache_dir=tmp_path)
        assert not cold[0].cache_hit
        assert warm[0].cache_hit
        assert warm[0].summary == cold[0].summary
        assert warm[0].extras == cold[0].extras

    def test_experiment_field_shares_cache(self, tmp_path):
        cold = execute([_spec(experiment="fig9")], cache_dir=tmp_path)
        warm = execute([_spec(experiment="fig10")], cache_dir=tmp_path)
        assert warm[0].cache_hit
        assert warm[0].summary == cold[0].summary

    def test_no_cache_skips_store(self, tmp_path):
        execute([_spec()], cache=False, cache_dir=tmp_path)
        again = execute([_spec()], cache=False, cache_dir=tmp_path)
        assert not again[0].cache_hit
        assert not (tmp_path / "index.jsonl").exists()

    def test_session_stats_accumulate_and_reset(self, tmp_path):
        reset_session_stats()
        execute([_spec()], cache_dir=tmp_path)
        execute([_spec()], cache_dir=tmp_path)
        stats = session_stats()
        assert stats.runs == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert 0 < stats.hit_rate < 1
        assert "runs=2" in stats.format()
        reset_session_stats()
        assert session_stats().runs == 0

    def test_parallel_matches_serial(self, tmp_path):
        serial = execute(
            [_spec(seed=0), _spec(seed=1), _spec(seed=2)],
            jobs=1, cache_dir=tmp_path / "a",
        )
        parallel = execute(
            [_spec(seed=0), _spec(seed=1), _spec(seed=2)],
            jobs=3, cache_dir=tmp_path / "b",
        )
        for s, p in zip(serial, parallel):
            assert s.summary == p.summary
            assert s.extras == p.extras


@contextlib.contextmanager
def _deadline(seconds):
    """Fail (not hang) if the body outlives ``seconds``; works without
    the pytest-timeout plugin."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerFailure:
    """Parallel paths fail loudly and by name, never hang."""

    def _register(self, monkeypatch, name, builder):
        # Fork-started workers inherit the patched registry.
        monkeypatch.setitem(harness._SIM_BUILDERS, name, builder)
        return RunSpec("test", name, {}, seed=0, duration=1.0)

    def test_dead_worker_is_a_named_error_not_a_hang(self, monkeypatch):
        doomed = self._register(
            monkeypatch, "test.dies", lambda params: os._exit(13)
        )
        specs = [_spec(seed=0), doomed, _spec(seed=1)]
        with _deadline(60):
            with pytest.raises(CampaignWorkerError) as raised:
                execute(specs, jobs=2, cache=False)
        error = raised.value
        assert error.exitcode == 13
        assert error.spec == doomed.label()
        assert doomed.label() in error.unfinished
        assert "test.dies" in str(error) and "13" in str(error)

    def test_worker_exception_is_reraised_in_the_parent(self, monkeypatch):
        def builder(params):
            raise ValueError("boom in the builder")

        broken = self._register(monkeypatch, "test.raises", builder)
        with _deadline(60):
            with pytest.raises(ValueError, match="boom in the builder"):
                execute([_spec(seed=0), broken], jobs=2, cache=False)


class TestTracingInterplay:
    def test_traced_runs_bypass_cache_reads(self, tmp_path):
        execute([_spec()], cache_dir=tmp_path)  # warm the cache
        tracer = Tracer(max_runs=None)
        with tracing(tracer):
            outcomes = execute([_spec()], jobs=4, cache_dir=tmp_path)
        # Not served from cache: the run truly executed and was traced.
        assert not outcomes[0].cache_hit
        assert tracer.events

    def test_traced_cold_run_still_warms_cache(self, tmp_path):
        tracer = Tracer(max_runs=None)
        with tracing(tracer):
            execute([_spec()], cache_dir=tmp_path)
        warm = execute([_spec()], cache_dir=tmp_path)
        assert warm[0].cache_hit

    def test_campaign_instant_emitted(self, tmp_path):
        tracer = Tracer(max_runs=None)
        with tracing(tracer):
            execute([_spec()], cache_dir=tmp_path)
        assert any(e.get("cat") == "campaign" for e in tracer.events)

    def test_traced_campaign_is_deterministic(self, tmp_path):
        """Two traced executions of one spec write the same trace bytes:
        the ``campaign.run`` instant carries no host wall clock."""
        traces = []
        for _ in range(2):
            tracer = Tracer()
            with tracing(tracer):
                execute([_spec()], cache=False)
            traces.append(dumps_chrome_trace(tracer))
        assert traces[0] == traces[1]
