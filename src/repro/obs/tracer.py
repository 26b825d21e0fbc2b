"""Structured simulation tracer: spans, instants, and counters.

The tracer is the telemetry backbone of the reproduction: the DES kernel,
the resource primitives, the workload driver, and the ATROPOS controller
all emit events through it, and the exporters in :mod:`repro.obs.export`
turn the event stream into Chrome-trace JSON (loadable in
``chrome://tracing`` / Perfetto) or per-resource utilization CSVs.

Design constraints:

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
        args = dict(self.args) if self.args else {}
        args.update(extra)
        tracer._emit(
            {
                "ph": "X",
                "cat": self.cat,
                "name": self.name,
                "ts": tracer._us(self.start),
                "dur": tracer._us(ts - self.start),
                **tracer._track(self.track),
                **({"args": args} if args else {}),
            },
            self.cat,
        )


class Tracer:
    """Collects structured trace events from one or more simulation runs.

    One tracer may span several :func:`run_simulation` calls (an
    experiment sweep); each run is a separate Chrome-trace *process*
    (``pid``), named via :meth:`new_run`, and tracks within a run are
    *threads* (``tid``) allocated on first use.
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
        #: Chrome-trace-ready event dicts, in emission order.
        self.events: List[Dict[str, Any]] = []
        #: Per-category event counts (surfaced by reporting).
        self.counts: Dict[str, int] = {}
        self.max_runs = max_runs
        self._pid = 0
        self._run_labels: List[str] = []
        self._track_ids: Dict[Tuple[int, str], int] = {}
        self._next_async_id = 1
        self._open: set = set()

    # ------------------------------------------------------------------
    # Runs and tracks
    # ------------------------------------------------------------------
    @property
    def runs(self) -> List[str]:
        """Labels of the runs recorded so far."""
        return list(self._run_labels)

    @property
    def audits(self) -> List[Dict[str, Any]]:
        """The decision-audit payloads, read back from the ``decision``
        instants the mitigation levers emit (the controller's decision
        log is the record of truth; this is the trace's view of it)."""
        return [
            event["args"]["audit"]
            for event in self.events
            if event.get("cat") == "decision"
        ]

    @property
    def accepting_runs(self) -> bool:
        """Whether a new harness run should attach to this tracer."""
        return self.max_runs is None or len(self._run_labels) < self.max_runs

    def new_run(self, label: str) -> int:
        """Start a new run (Chrome-trace process); returns its pid."""
        self._pid += 1
        self._run_labels.append(label)
        self.events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": self._pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        return self._pid

    def _track(self, track: str) -> Dict[str, int]:
        if self._pid == 0:
            # Events emitted before any run was declared: implicit run.
            self.new_run("run")
        key = (self._pid, track)
        tid = self._track_ids.get(key)
        if tid is None:
            tid = len([k for k in self._track_ids if k[0] == self._pid]) + 1
            self._track_ids[key] = tid
            self.events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": self._pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return {"pid": self._pid, "tid": tid}

    @staticmethod
    def _us(seconds: float) -> float:
        """Simulated seconds -> trace microseconds (3-decimal fixed)."""
        return round(seconds * 1e6, 3)

    def _emit(self, event: Dict[str, Any], cat: str) -> None:
        self.events.append(event)
        self.counts[cat] = self.counts.get(cat, 0) + 1

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
        self._emit(
            {
                "ph": "i",
                "s": "t",
                "cat": cat,
                "name": name,
                "ts": self._us(ts),
                **self._track(track),
                **({"args": args} if args else {}),
            },
            cat,
        )

    def async_begin(
        self, ts: float, cat: str, name: str, track: str, **args: Any
    ) -> int:
        """Open an overlapping (async) span; returns the pairing id."""
        aid = self._next_async_id
        self._next_async_id += 1
        self._emit(
            {
                "ph": "b",
                "cat": cat,
                "name": name,
                "id": aid,
                "ts": self._us(ts),
                **self._track(track),
                **({"args": args} if args else {}),
            },
            cat,
        )
        return aid

    def async_end(
        self, ts: float, cat: str, name: str, track: str, aid: int, **args: Any
    ) -> None:
        """Close the async span opened with id ``aid``."""
        self._emit(
            {
                "ph": "e",
                "cat": cat,
                "name": name,
                "id": aid,
                "ts": self._us(ts),
                **self._track(track),
                **({"args": args} if args else {}),
            },
            cat,
        )

    def counter(self, ts: float, name: str, track: str, **values: float) -> None:
        """Record a counter sample (one or more named series)."""
        self._emit(
            {
                "ph": "C",
                "cat": "counter",
                "name": name,
                "ts": self._us(ts),
                **self._track(track),
                "args": values,
            },
            "counter",
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

    def __len__(self) -> int:
        return len(self.events)


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

    def __len__(self) -> int:
        return 0


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
