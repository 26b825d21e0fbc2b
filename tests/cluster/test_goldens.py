"""Tier-3/4 goldens: full result digests of short fleet and mesh runs.

Every mesh controller on a 12 s ``dag_storm`` and every fleet mode on an
8 s 3-node ``demo_fleet``, at seed 0 and at a seed nothing else in the
repo uses.  The digests were captured before the mesh planner moved to
flat per-service state and index tables resolved once per run; a
refactor of the planner, the epoch runtime or the node glue must leave
them all alone.  The runs are serial (``jobs=1``): the parity tests
already pin sharded == serial.  A coordinated fleet with ``node-1``
partitioned over 6-16 s of a 20 s run pins the directive path (queued
while partitioned, delivered after the heal); its digests were captured
before a node's directive sweep replaced the task tree.
"""

import pytest

from repro.cluster import demo_fleet, run_dag, run_fleet
from repro.workloads.dag import dag_storm

#: (seed, controller) -> ``run_dag(dag_storm(duration=12.0)).digest()``.
MESH_GOLDENS = {
    (0, "none"):
        "9b902f53f44a214a05c9b9ecfdb82ea18b1a22cdce2bf9200c3ab8e6ce50b0ef",
    (0, "atropos"):
        "477eba78d4b022146a6b0d140ab930d6adf371735c7e680226070cf3f38c974f",
    (0, "dagor"):
        "3e1e46a4375b9707764482051543e0ad5bddd0b9b4a94642bcfeb4c929c2746a",
    (0, "autothrottle"):
        "313892808eef64727f6ec04b961126d1c7aa8c392211497b22543d82f9bd1990",
    (5, "none"):
        "187c71bd44551a36985a2fa920e31a0dadd29bef1d1a6ad95696a9d6de7c935f",
    (5, "atropos"):
        "0db5b48e3de005bab27bd67cd01445ffa98ce3e33f22e3465f3b4f1f7ba224ac",
    (5, "dagor"):
        "e68e84aa6cc3899cf83422542e7a12703eb26a9b42cd7eab4a6839b72d43e347",
    (5, "autothrottle"):
        "400118970cfcd8077bca066954c7931912996bdffbb5901fabb089243f7786de",
}

#: (seed, mode) -> ``run_fleet(demo_fleet(n_nodes=3, duration=8.0)).digest()``.
FLEET_GOLDENS = {
    (0, "coordinated"):
        "30525071bbbaa563fcd501c6ba16f1aca6738558a93b695247ae5632d3441f7c",
    (0, "local"):
        "7ddf52d5ba8cc10e24fc6c1adc4a7eb7e9b76ad5be3a3a63590d271320e5a620",
    (0, "none"):
        "cbc67ba16c227d04ee34967c84a09f8676f51a3958c3229f7e34acec024d5dc7",
    (5, "coordinated"):
        "10393b240221854ba1947245e552dd29d578bced4037366b4587f12e12db9a9e",
    (5, "local"):
        "962fb40de89328a298c720bcb09c14b21ac84d6e96fcc09f699235914790c882",
    (5, "none"):
        "b5da21ce3af92d5085b74ee4a7e6c9b0e67f602508dbc23110e06190126fdb3d",
}

#: Partitioned node and its window in :data:`PARTITIONED_FLEET_GOLDENS`.
PARTITION = ("node-1", 6.0, 16.0)

#: seed -> ``run_fleet(demo_fleet(n_nodes=3, duration=20.0,
#: partitions=(PARTITION,))).digest()``, mode coordinated.
PARTITIONED_FLEET_GOLDENS = {
    0: "6d8d8534dea6d9d1f18bc37fbcaec1a9c982f9fae05a7559af2f62c85cbb08f4",
    5: "6b24df8d107a101813a1b6ae4926adb9bb04997d4fa59a8fede6e89cb2832f10",
}


@pytest.mark.parametrize("seed, controller", sorted(MESH_GOLDENS))
def test_mesh_digest(seed, controller):
    spec = dag_storm(duration=12.0, seed=seed)
    result = run_dag(spec, controller, jobs=1)
    assert result.digest() == MESH_GOLDENS[seed, controller]


@pytest.mark.parametrize("seed, mode", sorted(FLEET_GOLDENS))
def test_fleet_digest(seed, mode):
    spec = demo_fleet(
        n_nodes=3, duration=8.0, warmup=2.0, mode=mode, seed=seed
    )
    assert run_fleet(spec, jobs=1).digest() == FLEET_GOLDENS[seed, mode]


@pytest.mark.parametrize("seed", sorted(PARTITIONED_FLEET_GOLDENS))
def test_partitioned_fleet_digest(seed):
    spec = demo_fleet(
        n_nodes=3, duration=20.0, warmup=2.0, mode="coordinated",
        seed=seed, partitions=(PARTITION,),
    )
    assert run_fleet(spec, jobs=1).digest() == PARTITIONED_FLEET_GOLDENS[seed]
