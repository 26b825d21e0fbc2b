"""Microservice-DAG mesh: parity, contrast, and hash-seed determinism.

``run_dag`` shards per-service simulations across fork-started workers;
the epoch-synchronized execution model promises the *same bytes* as the
serial path.  The contrast tests pin the headline claim of the DAG
tier: cancellation (ATROPOS) beats admission shedding (DAGOR) and
concurrency throttling (Autothrottle) on both victim tail latency and
goodput, because only cancellation reclaims resources already held by
an in-flight storm.
"""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.cluster import run_dag
from repro.workloads.dag import dag_storm

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded path requires the fork start method",
)


def small_spec():
    # Two storms land (t=6, t=10); short enough to keep tests quick.
    return dag_storm(n_leaves=2, duration=12.0, warmup=3.0)


@pytest.fixture(scope="module")
def results():
    spec = small_spec()
    return {
        name: run_dag(spec, controller=name, jobs=1)
        for name in ("none", "atropos", "dagor", "autothrottle")
    }


class TestContrast:
    def test_atropos_strictly_best_on_both_axes(self, results):
        atropos = results["atropos"]
        for rival in ("none", "dagor", "autothrottle"):
            assert atropos.victim_p99 < results[rival].victim_p99, rival
            assert atropos.goodput > results[rival].goodput, rival

    def test_each_controller_acts_through_its_own_lever(self, results):
        assert results["atropos"].cancelled_shards > 0
        assert results["dagor"].shed_upstream > 0
        assert results["autothrottle"].tower_moves
        # ... and not through each other's.
        assert results["dagor"].cancelled_shards == 0
        assert results["autothrottle"].cancelled_shards == 0
        assert results["none"].cancelled_shards == 0

    def test_result_accounting_is_consistent(self, results):
        for result in results.values():
            for name, counts in result.classes.items():
                settled = (
                    counts["completed"]
                    + counts["shed_upstream"]
                    + counts["cancelled"]
                    + counts["unfinished"]
                )
                assert settled == counts["offered"], (
                    f"{result.controller}/{name}: {counts}"
                )


@needs_fork
class TestShardParity:
    @pytest.mark.parametrize(
        "controller", ["atropos", "dagor", "autothrottle"]
    )
    def test_sharded_matches_serial_bytes(self, results, controller):
        serial = results[controller]
        spec = small_spec()
        for jobs in (2, 3):
            sharded = run_dag(spec, controller=controller, jobs=jobs)
            assert sharded.digest() == serial.digest(), (
                f"jobs={jobs} diverged from serial for {controller}"
            )


_SCRIPT = """
from repro.cluster import run_dag
from repro.workloads.dag import dag_storm

spec = dag_storm(n_leaves=2, duration=12.0, warmup=3.0)
print(run_dag(spec, controller="atropos", jobs=1).digest())
"""


def _digest(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    digest = proc.stdout.strip()
    assert len(digest) == 64, proc.stderr
    return digest


def test_dag_digest_identical_across_hash_seeds():
    digests = {_digest(seed) for seed in ("0", "1", "9973")}
    assert len(digests) == 1


def test_an_unknown_controller_fails_by_name_before_any_epoch(monkeypatch):
    from repro.cluster import mesh

    def plan(*_):
        pytest.fail("an epoch ran")

    monkeypatch.setattr(mesh._MeshDriver, "plan", plan)
    with pytest.raises(ValueError, match="'bogus'"):
        run_dag(small_spec(), controller="bogus", jobs=1)


def test_a_controller_name_has_one_spelling(results):
    """The mesh matches a controller name as ``controller_factory``
    does: ``"DAGOR"`` sheds upstream like ``"dagor"`` and reports the
    same bytes."""
    shouted = run_dag(small_spec(), controller="DAGOR", jobs=1)
    assert shouted.shed_upstream == results["dagor"].shed_upstream > 0
    assert shouted.controller == "dagor"
    assert shouted.digest() == results["dagor"].digest()


@needs_fork
def test_an_unknown_controller_fails_by_name_in_a_shard_worker():
    """A shard worker whose setup raises replies with that error: the
    parent raises a ``ShardError`` chained to it, not a broken pipe, and
    no worker is left running."""
    from repro.cluster import ShardError

    with pytest.raises(ShardError, match="'bogus'") as caught:
        run_dag(small_spec(), controller="bogus", jobs=2)
    assert type(caught.value.__cause__) is ValueError
    assert "'bogus'" in str(caught.value.__cause__)
    assert caught.value.epoch == 0
    assert not multiprocessing.active_children()
