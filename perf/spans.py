"""In-memory spans around the calls the benchmark itself makes.

One :class:`Spans` recorder lives for one traced run.  Every span is a
``{name, start, end, parent, run_id}`` record kept in a list and written
once, at exit, as a Chrome-trace JSON (``chrome://tracing`` / Perfetto).
Spans record host time (``time.perf_counter``), never simulated time.

A disabled recorder hands out a shared no-op context, so the untraced
passes run the same code without recording anything.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Dict, Iterator, List, Optional

_NULL = contextlib.nullcontext()


class Spans:
    """Span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def span(self, name: str, run_id: Optional[str] = None):
        """Context manager timing one call; nests under the open span.

        ``run_id`` defaults to the enclosing span's, so the spans of one
        simulation run share an identifier.
        """
        if not self.enabled:
            return _NULL
        return self._record(name, run_id)

    @contextlib.contextmanager
    def _record(self, name: str, run_id: Optional[str]) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if run_id is None and parent is not None:
            run_id = self.records[parent]["run_id"]
        index = len(self.records)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "run_id": run_id,
        }
        self.records.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def durations(self, name: str, under: Optional[str] = None) -> List[float]:
        """Host seconds of every finished span called ``name`` (with an
        ancestor called ``under``, when given)."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and r["end"] is not None
            and (under is None or self._has_ancestor(r, under))
        ]

    def _has_ancestor(self, record: Dict[str, Any], name: str) -> bool:
        while record["parent"] is not None:
            record = self.records[record["parent"]]
            if record["name"] == name:
                return True
        return False

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus its direct children."""
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None and record["end"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = {}
        for record, children in zip(self.records, child_time):
            if record["end"] is None:
                continue
            own = record["end"] - record["start"] - children
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def coverage(self, parent_name: str, child_names) -> float:
        """Smallest share of a ``parent_name`` span its named direct
        children cover (1.0 when there is no such parent)."""
        wanted = set(child_names)
        covered: Dict[int, float] = {}
        for record in self.records:
            parent = record["parent"]
            if (
                parent is not None
                and record["name"] in wanted
                and self.records[parent]["name"] == parent_name
            ):
                covered[parent] = covered.get(parent, 0.0) + (
                    record["end"] - record["start"]
                )
        shares = [
            covered.get(i, 0.0) / (r["end"] - r["start"])
            for i, r in enumerate(self.records)
            if r["name"] == parent_name and r["end"] > r["start"]
        ]
        return min(shares, default=1.0)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """Complete ("X") events, one Chrome-trace thread per run id."""
        if not self.records:
            return {"traceEvents": []}
        origin = min(r["start"] for r in self.records)
        tids: Dict[Optional[str], int] = {}
        events: List[Dict[str, Any]] = []
        for record in self.records:
            if record["end"] is None:
                continue
            tid = tids.setdefault(record["run_id"], len(tids) + 1)
            events.append(
                {
                    "name": record["name"],
                    "cat": "perf",
                    "ph": "X",
                    "ts": (record["start"] - origin) * 1e6,
                    "dur": (record["end"] - record["start"]) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {"run_id": record["run_id"]},
                }
            )
        for run_id, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": str(run_id)},
                }
            )
        return {"traceEvents": events}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
