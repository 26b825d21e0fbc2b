"""Tests for processes, joining, and interrupt semantics."""

import pytest

from repro.sim import Environment, Interrupt


def test_process_return_value_is_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 41 + 1

    p = env.process(proc(env))
    env.run()
    assert p.value == 42


def test_join_waits_for_child():
    env = Environment()

    def child(env):
        yield env.timeout(5.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (5.0, "child-result")


def test_is_alive_reflects_state():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            seen.append((env.now, exc.cause))

    def killer(env, target):
        yield env.timeout(3.0)
        target.interrupt(cause="too-slow")

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert seen == [(3.0, "too-slow")]


def test_interrupt_detaches_from_waited_event():
    """After an interrupt, the original timeout must not resume the process."""
    env = Environment()
    resumes = []

    def victim(env):
        try:
            yield env.timeout(10.0)
            resumes.append("timeout-fired")
        except Interrupt:
            resumes.append("interrupted")
        yield env.timeout(20.0)
        resumes.append("second-wait-done")

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert resumes == ["interrupted", "second-wait-done"]
    assert env.now == 21.0


def test_interrupt_finished_process_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    env.run()
    with pytest.raises(RuntimeError, match="terminated"):
        p.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()
    errors = []

    def proc(env):
        try:
            env.active_process.interrupt()
        except RuntimeError as exc:
            errors.append(str(exc))
        yield env.timeout(0)

    env.process(proc(env))
    env.run()
    assert errors and "interrupt itself" in errors[0]


def test_uncaught_interrupt_kills_process():
    env = Environment()

    def victim(env):
        yield env.timeout(100.0)

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt("die")

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert target.triggered
    assert not target.ok
    assert isinstance(target.value, Interrupt)


def test_finally_runs_on_interrupt():
    """try/finally cleanup is the cancellation-safety mechanism."""
    env = Environment()
    cleanup = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        finally:
            cleanup.append(env.now)

    def killer(env, target):
        yield env.timeout(2.5)
        target.interrupt()

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert cleanup == [2.5]


def test_interrupt_race_with_completion_is_ignored():
    """If the victim finishes at the same instant, the interrupt is a no-op."""
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)
        return "finished"

    def killer(env, target):
        yield env.timeout(1.0)
        if target.is_alive:
            target.interrupt()

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert target.value == "finished"


def test_multiple_interrupts_queue_up():
    env = Environment()
    causes = []

    def victim(env):
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as exc:
                causes.append(exc.cause)

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt("first")
        target.interrupt("second")

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert causes == ["first", "second"]


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_nested_subgenerator_with_yield_from():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return "inner-value"

    def outer(env):
        value = yield from inner(env)
        yield env.timeout(1.0)
        return value + "-seen"

    p = env.process(outer(env))
    env.run()
    assert p.value == "inner-value-seen"
    assert env.now == 2.0


def test_any_of_wakes_on_first():
    env = Environment()

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(10.0, value="slow")
        result = yield env.any_of([fast, slow])
        return list(result.values())

    p = env.process(proc(env))
    env.run()
    assert p.value == ["fast"]


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        a = env.timeout(1.0, value="a")
        b = env.timeout(5.0, value="b")
        result = yield env.all_of([a, b])
        return (env.now, sorted(result.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (5.0, ["a", "b"])


# ----------------------------------------------------------------------
# Completion rule: a completion nobody joined never reaches the heap; a
# joined one resumes its joiner through the heap, in schedule order.
# ----------------------------------------------------------------------
def _worker(env, delay, value):
    yield env.timeout(delay)
    return value


def test_unjoined_process_is_processed_the_moment_it_finishes():
    env = Environment()
    seen = []

    def watcher(env, target):
        yield env.timeout(1.0)
        # Same instant as the worker's last event, which was scheduled
        # first: the worker has finished and -- nobody having joined it
        # -- is already processed, with no completion event pending.
        seen.append((target.triggered, target.processed, env.queue_depth))

    worker = env.process(_worker(env, 1.0, "done"))
    env.process(watcher(env, worker))
    env.run()
    assert seen == [(True, True, 0)]
    assert worker.ok and worker.value == "done"


def test_late_join_of_finished_process_reads_its_value_at_once():
    env = Environment()

    def late_joiner(env, target):
        yield env.timeout(5.0)
        before = env.events_scheduled
        value = yield target
        # No event was needed to deliver the value, and no time passed.
        return (env.now, value, env.events_scheduled - before)

    worker = env.process(_worker(env, 1.0, "early"))
    joiner = env.process(late_joiner(env, worker))
    env.run()
    assert joiner.value == (5.0, "early", 0)


def test_run_until_finished_process_returns_its_value():
    env = Environment()
    worker = env.process(_worker(env, 1.0, "early"))
    env.run(until=3.0)
    assert worker.processed
    assert env.run(until=worker) == "early"
    assert env.now == 3.0


def test_joined_process_resumes_its_joiner_through_the_heap():
    """The joiner runs after events already scheduled for that instant
    (the completion takes the next sequence number), not inside the
    worker's last step."""
    env = Environment()
    order = []

    def joiner(env, target):
        value = yield target
        order.append(("joiner", env.now, value))

    def bystander(env):
        yield env.timeout(1.0)
        order.append(("bystander", env.now))

    worker = env.process(_worker(env, 1.0, "w"))
    env.process(joiner(env, worker))
    env.process(bystander(env))
    before = env.events_scheduled
    env.run()
    assert order == [("bystander", 1.0), ("joiner", 1.0, "w")]
    # worker timeout + bystander timeout + the worker's completion: the
    # joined completion is a scheduled event like any other.
    assert env.events_scheduled - before == 3


def test_all_of_over_processes_joins_them_through_the_heap():
    env = Environment()
    order = []

    def parent(env, children):
        result = yield env.all_of(children)
        order.append("parent")
        return (env.now, [result[child] for child in children])

    def bystander(env):
        yield env.timeout(2.0)
        order.append("bystander")

    children = [
        env.process(_worker(env, 1.0, "a")),
        env.process(_worker(env, 2.0, "b")),
    ]
    parent_proc = env.process(parent(env, children))
    env.process(bystander(env))
    env.run()
    assert parent_proc.value == (2.0, ["a", "b"])
    assert order == ["bystander", "parent"]


def test_all_of_accepts_already_finished_unjoined_processes():
    env = Environment()

    def parent(env, children):
        yield env.timeout(5.0)
        result = yield env.all_of(children)
        return (env.now, [result[child] for child in children])

    children = [
        env.process(_worker(env, 1.0, "a")),
        env.process(_worker(env, 2.0, "b")),
    ]
    parent_proc = env.process(parent(env, children))
    env.run()
    assert parent_proc.value == (5.0, ["a", "b"])


def test_closed_loop_client_resumes_in_schedule_order():
    """A client starts a request process (as ``Driver.submit`` returns
    one) and joins it before it ends.  Two clients whose requests end at
    the same instant resume in the order those requests finished."""
    env = Environment()
    order = []

    def client(env, name, service):
        for _ in range(2):
            value = yield env.process(_worker(env, service, name))
            order.append((env.now, value))

    env.process(client(env, "first", 1.0))
    env.process(client(env, "second", 1.0))
    env.run()
    assert order == [
        (1.0, "first"), (1.0, "second"), (2.0, "first"), (2.0, "second"),
    ]


def test_unjoined_process_dying_of_an_exception_still_crashes_the_run():
    env = Environment()

    def broken(env):
        yield env.timeout(1.0)
        raise ValueError("model bug")

    proc = env.process(broken(env))
    with pytest.raises(ValueError, match="model bug"):
        env.run()
    assert proc.triggered and not proc.ok


def test_unjoined_process_unwound_by_interrupt_does_not_crash_the_run():
    env = Environment()

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt("cancelled")

    target = env.process(_worker(env, 100.0, "never"))
    env.process(killer(env, target))
    before = env.events_scheduled
    env.run()
    assert target.processed and not target.ok
    assert isinstance(target.value, Interrupt)
    # The two timeouts + the interruption; no completion event for
    # either process.
    assert env.events_scheduled - before == 3


def test_late_join_of_interrupted_process_raises_in_the_joiner():
    env = Environment()

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt("cancelled")

    def late_joiner(env, target):
        yield env.timeout(5.0)
        try:
            yield target
        except Interrupt as exc:
            return ("raised", exc.cause)

    target = env.process(_worker(env, 100.0, "never"))
    env.process(killer(env, target))
    joiner = env.process(late_joiner(env, target))
    env.run()
    assert joiner.value == ("raised", "cancelled")


# ----------------------------------------------------------------------
# Inline start (Environment.process_now)
# ----------------------------------------------------------------------
def test_process_now_runs_to_the_first_yield_without_an_event():
    env = Environment()
    steps = []

    def body(env):
        steps.append(("started", env.now, env.active_process))
        yield env.timeout(1.0)
        steps.append(("resumed", env.now))

    proc = None

    def starter(event):
        nonlocal proc
        proc = env.process_now(body(env))
        steps.append("returned")

    env.timeout(2.0).callbacks.append(starter)
    env.run(until=2.5)
    # Started inside the caller, before it returned; only the two
    # timeouts were scheduled.
    assert steps == [("started", 2.0, proc), "returned"]
    assert env.events_scheduled == 2
    assert env.active_process is None
    env.run()
    assert steps[-1] == ("resumed", 3.0)
    assert proc.processed and proc.ok


def test_process_now_matches_process_when_initialize_pops_next():
    """Started from the callback of a NORMAL event, as the arrival pump
    does: the same interleaving as ``env.process``, whose ``Initialize``
    is the next event popped, with one event fewer."""

    def trace(start):
        env = Environment()
        order = []

        def request(env, name):
            order.append((env.now, name, "start"))
            yield env.timeout(0.0)
            order.append((env.now, name, "step"))

        def arrive(name, also_at_now):
            def callback(event):
                if also_at_now:
                    env.timeout(0.0).callbacks.append(
                        lambda e: order.append((env.now, name, "neighbour"))
                    )
                start(env)(request(env, name))
            return callback

        for name, at, also in (("a", 1.0, True), ("b", 1.0, False),
                               ("c", 2.0, True)):
            env.timeout(at).callbacks.append(arrive(name, also))
        env.run()
        return order, env.events_scheduled

    inline, inline_events = trace(lambda env: env.process_now)
    deferred, deferred_events = trace(lambda env: env.process)
    assert inline == deferred
    assert inline_events == deferred_events - 3
