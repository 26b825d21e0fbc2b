"""``owners()``: one question every resource primitive answers alike.

Who does this resource still know about -- holding it, waiting for it,
parked on it, running in it, resident in it?  The drained-run check of
``tests/property/test_chaos_cancellation.py`` asks it of every registered
resource, so each primitive must count every place an owner can sit.
"""

from repro.sim import Environment
from repro.sim.resources import (
    CPU,
    DiskIO,
    DocumentBuffer,
    MemoryPool,
    SyncLock,
    ThreadPool,
)


def test_lock_names_holders_waiters_and_parked():
    env = Environment()
    lock = SyncLock(env, "lock")
    held = lock.acquire(owner="holder")
    queued = lock.acquire(owner="waiter")
    lock.acquire(owner="parked")
    assert lock.reshape_queue(lambda grant: grant.owner == "parked") == 1
    assert lock.owners() == ["holder", "waiter", "parked"]
    held.close()
    queued.close()
    # The idle lock readmits and grants the parked waiter.
    assert lock.owners() == ["parked"]
    lock.holders[0].close()
    assert lock.owners() == []


def test_threadpool_names_running_and_queued():
    env = Environment()
    pool = ThreadPool(env, "pool", workers=1)
    running = pool.submit(owner="running")
    queued = pool.submit(owner="queued")
    assert pool.owners() == ["running", "queued"]
    queued.close()  # abandoned while waiting
    assert pool.owners() == ["running"]
    running.close()
    assert pool.owners() == []


def test_cpu_and_disk_name_their_inner_pools_owners():
    env = Environment()
    cpu = CPU(env, "cpu", cores=1, slice_time=0.01)
    disk = DiskIO(
        env, "disk", bandwidth_bytes_per_sec=100.0, op_latency=0.01,
        queue_depth=1,
    )
    for owner in ("a", "b"):
        env.process(cpu.execute(owner, 0.05))
        env.process(disk.io(owner, 10.0))
    env.run(until=0.005)
    assert sorted(cpu.owners()) == ["a", "b"]  # one on the core, one queued
    assert sorted(disk.owners()) == ["a", "b"]
    env.run()
    assert cpu.owners() == [] and disk.owners() == []


def test_memory_pool_and_document_buffer_name_residents():
    env = Environment()
    pool = MemoryPool(env, "pool", capacity_pages=10)
    pool.acquire("a", 3)
    pool.acquire("b", 2)
    assert pool.owners() == ["a", "b"]
    pool.release("a")
    assert pool.owners() == ["b"]

    docs = DocumentBuffer(env, "docs", capacity_pages=4, page_size_bytes=100)
    docs.register_collection("c", 50)
    docs.access("a", "c", range(2))
    docs.access("b", "c", range(2, 4))
    assert docs.owners() == ["a", "b"]
    docs.release_owner("a")
    assert docs.owners() == ["b"]
    docs.access("z", "c", range(10, 18))  # evicts every document of b
    assert docs.owners() == ["z"]
