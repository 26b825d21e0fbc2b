"""Structured simulation tracer: spans, instants, and counters.

The tracer is the telemetry backbone of the reproduction: the DES kernel,
the resource primitives, the workload driver, and the ATROPOS controller
all emit events through it, and the exporters in :mod:`repro.obs.export`
turn the event stream into Chrome-trace JSON (loadable in
``chrome://tracing`` / Perfetto) or per-resource utilization CSVs.

Design constraints:

* **A trace is a record, rendered at export** -- emitting an event
  appends one flat tuple (:data:`Record`); the Chrome-trace dicts, the
  ``tid`` numbering and the ``thread_name`` metadata are built by
  :func:`render` only when :attr:`Tracer.events` is read.
* **Determinism** -- events carry only simulated time and names derived
  from simulation state (task keys, resource names), never wall-clock
  time or ``id()`` addresses, so two runs with the same seed produce
  byte-identical traces.
* **Null fast path** -- untraced runs go through :class:`NullTracer`,
  whose ``enabled`` flag is a class attribute checked before any event is
  built; the hot paths pay one attribute load and one branch.
* **One active-session slot** -- :data:`ACTIVE` holds the tracer and the
  telemetry session (:mod:`repro.telemetry`) harness runs attach to;
  :func:`tracing` and ``telemetry_session`` install one for a ``with``
  block through the same :func:`active` scope.

Event vocabulary (mirrors the Trace Event Format):

* *complete* spans (``ph="X"``): an interval on one named track, e.g. a
  simulated process's lifetime.
* *async* spans (``ph="b"``/``ph="e"``): overlapping intervals that share
  a track, e.g. many tasks waiting on one lock at once.  Paired by id.
* *instants* (``ph="i"``): point events -- evictions, cancellations,
  detector triggers.
* *counters* (``ph="C"``): numeric series -- queue depths, pool
  occupancy, busy workers.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ACTIVE",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "active",
    "owner_label",
    "tracing",
]


def owner_label(owner: Any) -> str:
    """Deterministic display label for a grant/span owner.

    Never includes memory addresses: labels are built from task keys,
    operation names, resource names, or type names only.
    """
    if owner is None:
        return "anon"
    if isinstance(owner, str):
        return owner
    op_name = getattr(owner, "op_name", None)
    key = getattr(owner, "key", None)
    if op_name is not None and key is not None:
        return f"{op_name}#{key}"
    name = getattr(owner, "name", None)
    if isinstance(name, str):
        return name
    return type(owner).__name__


class Span:
    """Handle for an open complete-span; finish it with :meth:`end`."""

    __slots__ = ("_tracer", "cat", "name", "track", "start", "args")

    def __init__(
        self,
        tracer: "Tracer",
        cat: str,
        name: str,
        track: str,
        start: float,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self._tracer = tracer
        self.cat = cat
        self.name = name
        self.track = track
        self.start = start
        self.args = args

    def end(self, ts: float, **extra: Any) -> None:
        """Close the span at simulated time ``ts``."""
        tracer = self._tracer
        if tracer is None:
            return
        self._tracer = None
        tracer._open.discard(self)
        args = self.args
        if extra:
            args = {**args, **extra} if args else extra
        tracer.records.append(
            ("X", tracer._pid or tracer.new_run("run"), self.start,
             self.cat, self.name, self.track, args, ts)
        )


#: One trace event as the tracer holds it: ``(ph, pid, ts, cat, name,
#: track, args, extra)``, ``ts`` in simulated seconds; ``extra`` is a
#: complete span's end time and an async span's pairing id.  A run's
#: ``process_name`` metadata is ``("M", pid, 0.0, None, label, None,
#: None, None)``.  A ``decision`` instant's ``args`` are ``{"audit":
#: audit}``, the decision audit the controller's log keeps; the trace
#: shows its ``to_payload()`` dict, rendered when read.
Record = Tuple[str, int, float, Optional[str], str, Optional[str], Any, Any]


def render(records: List[Record]) -> List[Dict[str, Any]]:
    """The Chrome-trace event dicts of ``records``, in order.

    The one place the Trace Event Format layout is spelled: times in
    microseconds (3-decimal fixed), tracks numbered per run (``tid``) in
    order of first use, each announced by a ``thread_name`` metadata
    event just before the first event on it.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[Tuple[int, Optional[str]], int] = {}
    per_run: Dict[int, int] = {}
    for ph, pid, ts, cat, name, track, args, extra in records:
        if ph == "M":
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": name}})
            continue
        tid = tids.get((pid, track))
        if tid is None:
            tid = tids[pid, track] = per_run[pid] = per_run.get(pid, 0) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": track}})
        event = {"ph": ph, "cat": cat, "name": name,
                 "ts": round(ts * 1e6, 3), "pid": pid, "tid": tid}
        if ph == "X":
            event["dur"] = round((extra - ts) * 1e6, 3)
        elif ph == "i":
            event["s"] = "t"
            if cat == "decision":
                args = {"audit": args["audit"].to_payload()}
        elif ph != "C":
            event["id"] = extra
        if args or ph == "C":
            event["args"] = args
        events.append(event)
    return events


class Tracer:
    """Collects structured trace events from one or more simulation runs.

    One tracer may span several :func:`run_simulation` calls (an
    experiment sweep); each run is a separate Chrome-trace *process*
    (``pid``), named via :meth:`new_run`, and tracks within a run are
    *threads* (``tid``) numbered on first use.  Emitting appends one
    :data:`Record`; the Chrome-trace dicts are built only when
    :attr:`events` is read.
    """

    enabled = True

    def __init__(self, max_runs: Optional[int] = None) -> None:
        """
        Args:
            max_runs: cap on the number of runs this tracer accepts; once
                reached, further harness runs execute untraced.  ``None``
                = unlimited.  The trace CLI defaults to tracing only the
                first run of an experiment sweep to keep files loadable.
        """
        #: The emitted events as :data:`Record` tuples, in order.
        self.records: List[Record] = []
        self.max_runs = max_runs
        self._pid = 0
        self._run_labels: List[str] = []
        self._async_ids = itertools.count(1)
        self._open: set = set()

    # ------------------------------------------------------------------
    # Views over the records
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, Any]]:
        """The Chrome-trace event dicts (:func:`render`)."""
        return render(self.records)

    @property
    def counts(self) -> Dict[str, int]:
        """Events per category (surfaced by reporting)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            if record[0] != "M":
                counts[record[3]] = counts.get(record[3], 0) + 1
        return counts

    @property
    def runs(self) -> List[str]:
        """Labels of the runs recorded so far."""
        return list(self._run_labels)

    @property
    def audits(self) -> List[Dict[str, Any]]:
        """The decision-audit payloads, rendered from the audits the
        ``decision`` instants of the mitigation levers refer to (the
        controller's decision log is the record of truth; this is the
        trace's view of it)."""
        return [
            record[6]["audit"].to_payload()
            for record in self.records
            if record[3] == "decision"
        ]

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    @property
    def accepting_runs(self) -> bool:
        """Whether a new harness run should attach to this tracer."""
        return self.max_runs is None or len(self._run_labels) < self.max_runs

    def new_run(self, label: str) -> int:
        """Start a new run (Chrome-trace process); returns its pid.

        An event emitted before any run starts one labelled ``run``."""
        self._pid += 1
        self._run_labels.append(label)
        self.records.append(("M", self._pid, 0.0, None, label, None, None, None))
        return self._pid

    def open_run(self, label: str) -> "Tracer":
        """Start a run and return the tracer its components emit through:
        a view sharing this tracer's records, writing under the new
        run's pid until :meth:`end_run` detaches it."""
        self.new_run(label)
        view = copy.copy(self)
        view._open = set()
        return view

    def end_run(self) -> None:
        """Detach a run's view (see :meth:`open_run`) from the store.

        A run's objects can emit after the run ends: a suspended
        process's ``finally`` blocks run when its environment is closed
        (``Environment.close``, once the run's result is dropped), at a
        point no simulated event orders.  A detached view writes into a
        private list nothing reads, so those emissions never reach the
        trace.
        """
        self.records = []
        self._async_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Event API (ts is always simulated seconds)
    # ------------------------------------------------------------------
    def begin(
        self, ts: float, cat: str, name: str, track: str, **args: Any
    ) -> Span:
        """Open a complete-span; close it with ``span.end(ts)``."""
        span = Span(self, cat, name, track, ts, args or None)
        self._open.add(span)
        return span

    def instant(
        self, ts: float, cat: str, name: str, track: str, **args: Any
    ) -> None:
        """Record a point event."""
        self.records.append(
            ("i", self._pid or self.new_run("run"), ts, cat, name, track,
             args, None)
        )

    def async_begin(
        self, ts: float, cat: str, name: str, track: str, **args: Any
    ) -> int:
        """Open an overlapping (async) span; returns the pairing id."""
        aid = next(self._async_ids)
        self.records.append(
            ("b", self._pid or self.new_run("run"), ts, cat, name, track,
             args, aid)
        )
        return aid

    def async_end(
        self, ts: float, cat: str, name: str, track: str, aid: int, **args: Any
    ) -> None:
        """Close the async span opened with id ``aid``."""
        self.records.append(
            ("e", self._pid or self.new_run("run"), ts, cat, name, track,
             args, aid)
        )

    def counter(self, ts: float, name: str, track: str, **values: float) -> None:
        """Record a counter sample (one or more named series)."""
        self.records.append(
            ("C", self._pid or self.new_run("run"), ts, "counter", name,
             track, values, None)
        )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def close_open_spans(self, ts: float) -> None:
        """Close spans still open at end of simulation (time ``ts``)."""
        for span in sorted(
            self._open, key=lambda s: (s.start, s.track, s.name)
        ):
            span.end(ts, unfinished=True)
        self._open.clear()


class NullTracer:
    """Disabled tracer: every call is a no-op.

    Hook sites check ``tracer.enabled`` (a class attribute, so the check
    is one LOAD_ATTR + jump) before building event arguments; the methods
    below exist so that unconditional calls are still safe.
    """

    enabled = False
    accepting_runs = False
    events: List[Dict[str, Any]] = []
    counts: Dict[str, int] = {}

    def new_run(self, label: str) -> int:
        return 0

    def begin(self, ts, cat, name, track, **args) -> Span:
        return _NULL_SPAN

    def instant(self, ts, cat, name, track, **args) -> None:
        pass

    def async_begin(self, ts, cat, name, track, **args) -> int:
        return 0

    def async_end(self, ts, cat, name, track, aid, **args) -> None:
        pass

    def counter(self, ts, name, track, **values) -> None:
        pass

    def close_open_spans(self, ts: float) -> None:
        pass

    def end_run(self) -> None:
        pass


class _NullSpan(Span):
    """Shared inert span returned by :class:`NullTracer`."""

    def __init__(self) -> None:  # noqa: D107 - trivially inert
        super().__init__(None, "", "", "", 0.0, None)  # type: ignore[arg-type]

    def end(self, ts: float, **extra: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: Process-wide disabled tracer; the default for every Environment, and
#: the null session of both :data:`ACTIVE` slots.
NULL_TRACER = NullTracer()


class _Active:
    """The sessions harness runs attach to: a tracer and a telemetry
    session, each :data:`NULL_TRACER` (``enabled`` is ``False``) unless a
    ``with`` block installed one."""

    __slots__ = ("tracer", "telemetry")

    def __init__(self) -> None:
        self.tracer = self.telemetry = NULL_TRACER


#: The one active-session slot, read by
#: ``experiments.harness.run_simulation`` and ``campaign.execute``.
ACTIVE = _Active()


@contextlib.contextmanager
def active(kind: str, session: Any) -> Iterator[Any]:
    """Install ``session`` as the active ``kind`` (``"tracer"`` or
    ``"telemetry"``) for a ``with`` block; None installs the null one."""
    previous = getattr(ACTIVE, kind)
    setattr(ACTIVE, kind, NULL_TRACER if session is None else session)
    try:
        yield session
    finally:
        setattr(ACTIVE, kind, previous)


def tracing(tracer: Optional[Tracer]) -> ContextManager[Optional[Tracer]]:
    """Context manager scoping an active tracing session::

        tracer = Tracer()
        with tracing(tracer):
            run_experiments(["fig3"])
        write_chrome_trace(tracer, "trace.json")
    """
    return active("tracer", tracer)
