"""Unit tests for the tracer core: spans, tracks, null fast path."""

from repro.obs import (
    ACTIVE,
    NULL_TRACER,
    NullTracer,
    Tracer,
    owner_label,
    tracing,
)


class TestOwnerLabel:
    def test_none_is_anon(self):
        assert owner_label(None) == "anon"

    def test_string_passes_through(self):
        assert owner_label("client-3") == "client-3"

    def test_task_like_uses_op_and_key(self):
        class FakeTask:
            op_name = "select"
            key = 7

        assert owner_label(FakeTask()) == "select#7"

    def test_named_object_uses_name(self):
        class Named:
            name = "buffer_pool"

        assert owner_label(Named()) == "buffer_pool"

    def test_fallback_is_type_name(self):
        assert owner_label(3.5) == "float"


class TestSpans:
    def test_complete_span_emits_x_event(self):
        tracer = Tracer()
        span = tracer.begin(1.0, "process", "worker", "proc:worker", w=1)
        span.end(3.5, outcome="finished")
        events = [e for e in tracer.events if e["ph"] == "X"]
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "worker"
        assert event["ts"] == 1_000_000.0
        assert event["dur"] == 2_500_000.0
        assert event["args"] == {"w": 1, "outcome": "finished"}

    def test_span_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin(0.0, "process", "p", "t")
        span.end(1.0)
        span.end(2.0)
        assert len([e for e in tracer.events if e["ph"] == "X"]) == 1

    def test_nested_spans_close_independently(self):
        tracer = Tracer()
        outer = tracer.begin(0.0, "process", "outer", "t")
        inner = tracer.begin(1.0, "process", "inner", "t")
        inner.end(2.0)
        outer.end(4.0)
        xs = {e["name"]: e for e in tracer.events if e["ph"] == "X"}
        assert xs["inner"]["dur"] == 1_000_000.0
        assert xs["outer"]["dur"] == 4_000_000.0
        # Inner closed first, so it appears first.
        names = [e["name"] for e in tracer.events if e["ph"] == "X"]
        assert names == ["inner", "outer"]

    def test_close_open_spans_flags_unfinished(self):
        tracer = Tracer()
        tracer.begin(2.0, "process", "b", "t")
        tracer.begin(1.0, "process", "a", "t")
        tracer.close_open_spans(5.0)
        xs = [e for e in tracer.events if e["ph"] == "X"]
        # Deterministic order: by start time.
        assert [e["name"] for e in xs] == ["a", "b"]
        assert all(e["args"]["unfinished"] for e in xs)
        tracer.close_open_spans(9.0)  # second call is a no-op
        assert len([e for e in tracer.events if e["ph"] == "X"]) == 2

    def test_async_ids_are_sequential(self):
        tracer = Tracer()
        a = tracer.async_begin(0.0, "request", "r1", "req")
        b = tracer.async_begin(0.0, "request", "r2", "req")
        assert (a, b) == (1, 2)
        tracer.async_end(1.0, "request", "r1", "req", a)
        begins = [e for e in tracer.events if e["ph"] == "b"]
        ends = [e for e in tracer.events if e["ph"] == "e"]
        assert [e["id"] for e in begins] == [1, 2]
        assert [e["id"] for e in ends] == [1]


class TestRunsAndTracks:
    def test_runs_become_processes_with_metadata(self):
        tracer = Tracer()
        pid1 = tracer.new_run("first")
        tracer.instant(0.0, "misc", "x", "track-a")
        pid2 = tracer.new_run("second")
        tracer.instant(0.0, "misc", "y", "track-a")
        assert (pid1, pid2) == (1, 2)
        assert tracer.runs == ["first", "second"]
        metas = [e for e in tracer.events if e["ph"] == "M"]
        names = [(e["name"], e["args"]["name"]) for e in metas]
        assert ("process_name", "first") in names
        assert ("process_name", "second") in names
        # track-a gets a fresh tid in each run.
        instants = [e for e in tracer.events if e["ph"] == "i"]
        assert [(e["pid"], e["tid"]) for e in instants] == [(1, 1), (2, 1)]

    def test_run_view_writes_under_its_pid_until_ended(self):
        tracer = Tracer()
        first = tracer.open_run("first")
        first.instant(0.0, "misc", "x", "track-a")
        assert first.async_begin(0.0, "req", "r", "track-a") == 1
        second = tracer.open_run("second")
        assert second.async_begin(0.0, "req", "r", "track-a") == 2
        first.end_run()
        first.instant(1.0, "misc", "late", "track-b")
        first.counter(1.0, "depth", "track-b", queued=1)
        tracer.instant(2.0, "campaign", "campaign.run", "campaign")
        assert tracer.runs == ["first", "second"]
        assert [e["name"] for e in tracer.events if e["ph"] == "i"] == [
            "x", "campaign.run"]
        assert [e["pid"] for e in tracer.events if e["ph"] != "M"] == [
            1, 1, 2, 2]
        assert tracer.counts == {"misc": 1, "req": 2, "campaign": 1}

    def test_implicit_run_when_event_precedes_new_run(self):
        tracer = Tracer()
        tracer.counter(0.0, "depth", "lock:t", queued=1)
        assert tracer.runs == ["run"]

    def test_max_runs_gates_accepting_runs(self):
        tracer = Tracer(max_runs=1)
        assert tracer.accepting_runs
        tracer.new_run("only")
        assert not tracer.accepting_runs
        assert Tracer().accepting_runs  # unlimited by default

    def test_counts_by_category(self):
        tracer = Tracer()
        tracer.instant(0.0, "lock", "a", "t")
        tracer.instant(0.0, "lock", "b", "t")
        tracer.counter(0.0, "d", "t", x=1)
        assert tracer.counts == {"lock": 2, "counter": 1}


class TestRecords:
    def test_each_event_is_one_flat_tuple(self):
        tracer = Tracer()
        tracer.new_run("r")
        span = tracer.begin(0.5, "process", "p", "proc:p", w=1)
        aid = tracer.async_begin(1.0, "lock", "wait", "lock:t", key=3)
        tracer.async_end(2.0, "lock", "wait", "lock:t", aid)
        tracer.instant(2.5, "mem", "evict", "mem:b", pages=4)
        tracer.counter(3.0, "depth", "lock:t", queued=2)
        span.end(4.0, outcome="done")
        assert tracer.records == [
            ("M", 1, 0.0, None, "r", None, None, None),
            ("b", 1, 1.0, "lock", "wait", "lock:t", {"key": 3}, aid),
            ("e", 1, 2.0, "lock", "wait", "lock:t", {}, aid),
            ("i", 1, 2.5, "mem", "evict", "mem:b", {"pages": 4}, None),
            ("C", 1, 3.0, "counter", "depth", "lock:t", {"queued": 2}, None),
            ("X", 1, 0.5, "process", "p", "proc:p",
             {"w": 1, "outcome": "done"}, 4.0),
        ]


class TestNullTracer:
    def test_everything_is_a_noop(self):
        null = NullTracer()
        assert not null.enabled
        assert not null.accepting_runs
        span = null.begin(0.0, "c", "n", "t")
        span.end(1.0)
        null.instant(0.0, "c", "n", "t")
        null.async_end(1.0, "c", "n", "t", null.async_begin(0.0, "c", "n", "t"))
        null.counter(0.0, "n", "t", v=1)
        null.close_open_spans(9.0)
        null.end_run()
        assert null.events == []

    def test_active_tracer_defaults_to_null(self):
        assert ACTIVE.tracer is NULL_TRACER
        assert ACTIVE.telemetry is NULL_TRACER

    def test_tracing_context_installs_and_restores(self):
        tracer = Tracer()
        with tracing(tracer) as active:
            assert active is tracer
            assert ACTIVE.tracer is tracer
            assert ACTIVE.telemetry is NULL_TRACER
        assert ACTIVE.tracer is NULL_TRACER

    def test_tracing_none_installs_null(self):
        tracer = Tracer()
        with tracing(tracer):
            with tracing(None):
                assert ACTIVE.tracer is NULL_TRACER
            assert ACTIVE.tracer is tracer
        assert ACTIVE.tracer is NULL_TRACER
