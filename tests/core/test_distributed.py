"""Tests for the distributed-cancellation extension (paper §4 sketch)."""

import pytest

from repro.core import BaseController, CancelSignal
from repro.core.distributed import Delivery, Node, TaskTree
from repro.sim import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def controller(env):
    return BaseController(env)


def spawn(env, controller, name, log):
    """Spawn a live task that records its cancellation."""
    holder = {}

    def body(env):
        task = controller.create_cancel(op_name=name)
        holder["task"] = task
        try:
            yield env.timeout(1000.0)
        except Interrupt as exc:
            log.append((name, env.now, exc.cause.reason))
        finally:
            controller.free_cancel(task)

    env.process(body(env))
    env.run(until=env.now + 1e-6)
    return holder["task"]


def run_cancel(env, tree, signal=None):
    result = {}

    def driver(env):
        deliveries = yield from tree.cancel_all(signal)
        result["deliveries"] = deliveries

    env.process(driver(env))
    env.run(until=env.now + 1.0)
    return result["deliveries"]


def test_cancel_propagates_to_all_children(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root)
    node_a, node_b = Node("a"), Node("b")
    for i, node in enumerate([node_a, node_b, node_b]):
        tree.add_child(spawn(env, controller, f"child{i}", log), node)

    deliveries = run_cancel(env, tree)
    assert all(d.delivered for d in deliveries)
    assert {name for name, _, _ in log} == {"root", "child0", "child1", "child2"}
    assert tree.fully_cancelled()


def test_propagation_pays_per_hop_delay(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root, propagation_delay=0.01)
    for i in range(3):
        tree.add_child(spawn(env, controller, f"c{i}", log), Node(f"n{i}"))
    start = env.now
    run_cancel(env, tree)
    child_times = sorted(t for name, t, _ in log if name != "root")
    assert child_times[0] == pytest.approx(start + 0.01, abs=1e-6)
    assert child_times[2] == pytest.approx(start + 0.03, abs=1e-6)


def test_partitioned_node_misses_signal(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root)
    healthy = spawn(env, controller, "healthy", log)
    stranded = spawn(env, controller, "stranded", log)
    bad_node = Node("bad")
    tree.add_child(healthy, Node("good"))
    tree.add_child(stranded, bad_node)
    bad_node.partition()

    deliveries = run_cancel(env, tree)
    outcomes = {d.task.op_name: d.delivered for d in deliveries}
    assert outcomes == {"healthy": True, "stranded": False}
    assert not tree.fully_cancelled()
    assert [d.task.op_name for d in tree.undelivered()] == ["stranded"]


def test_retry_after_heal_completes_cancellation(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root)
    stranded = spawn(env, controller, "stranded", log)
    bad_node = Node("bad")
    tree.add_child(stranded, bad_node)
    bad_node.partition()
    run_cancel(env, tree)
    assert not tree.fully_cancelled()

    bad_node.heal()

    def retry(env):
        yield from tree.retry_undelivered()

    env.process(retry(env))
    env.run(until=env.now + 1.0)
    assert tree.fully_cancelled()
    assert ("stranded", pytest.approx(env.now, abs=1.0), "distributed-cancel-retry") in [
        (n, t, r) for n, t, r in log
    ]


def test_already_finished_child_is_fine(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root)
    child = spawn(env, controller, "quick", log)
    tree.add_child(child, Node("n"))
    child.process.interrupt(CancelSignal(reason="pre-finished"))
    env.run(until=env.now + 0.1)
    deliveries = run_cancel(env, tree)
    assert deliveries[0].delivered
    assert deliveries[0].reason == "already-finished"


def test_root_cannot_be_its_own_child(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root)
    with pytest.raises(ValueError):
        tree.add_child(root, Node("n"))


def test_children_tagged_with_root_key(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root)
    child = spawn(env, controller, "child", log)
    tree.add_child(child, Node("n"))
    assert child.root_key == root.key


def test_remove_child_excludes_from_propagation(env, controller):
    log = []
    root = spawn(env, controller, "root", log)
    tree = TaskTree(env, root)
    kept = spawn(env, controller, "kept", log)
    removed = spawn(env, controller, "removed", log)
    tree.add_child(kept, Node("n"))
    tree.add_child(removed, Node("n"))
    tree.remove_child(removed)
    run_cancel(env, tree)
    cancelled = {name for name, _, _ in log}
    assert "kept" in cancelled
    assert "removed" not in cancelled


def test_children_of_two_controllers_are_reached_once_each(env):
    """Each controller numbers its own tasks, so children fanned out from
    two of them share ``seq`` 1 and 2: the tree keys them by the task."""
    log = []
    root = spawn(env, BaseController(env), "root", log)
    tree = TaskTree(env, root)
    node_a, node_b = Node("a"), Node("b")
    children = []
    for node in (node_a, node_b):
        controller = BaseController(env)
        for i in (1, 2):
            child = spawn(env, controller, f"{node.name}{i}", log)
            tree.add_child(child, node)
            children.append(child)
    assert [c.seq for c in children] == [1, 2, 1, 2]
    assert tree.children == children
    node_b.partition()

    deliveries = run_cancel(env, tree)
    assert [d.task.op_name for d in deliveries] == ["a1", "a2", "b1", "b2"]
    assert [d.task.op_name for d in tree.undelivered()] == ["b1", "b2"]

    node_b.heal()
    retried = {}

    def retry(env):
        retried["deliveries"] = yield from tree.retry_undelivered()

    env.process(retry(env))
    env.run(until=env.now + 1.0)
    assert [d.task.op_name for d in retried["deliveries"]] == ["b1", "b2"]
    assert all(d.delivered for d in retried["deliveries"])
    assert tree.undelivered() == []
    assert sorted(name for name, _, _ in log) == ["a1", "a2", "b1", "b2", "root"]
    assert tree.fully_cancelled()
