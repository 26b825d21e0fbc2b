"""Request metrics: completion records, throughput windows, percentiles.

The collector is shared by the workload driver (which records outcomes),
overload detectors (which watch recent windows), and the experiment harness
(which computes the normalized series the paper's figures report).
"""

from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple


class RequestStatus(enum.Enum):
    """Terminal outcome of a request."""

    COMPLETED = "completed"
    #: Cancelled by an overload controller and *not* retried to completion.
    CANCELLED = "cancelled"
    #: Rejected before execution (admission control) or dropped mid-flight.
    DROPPED = "dropped"
    #: Exceeded its SLO deadline and was abandoned by the client.
    TIMED_OUT = "timed_out"


@dataclass(slots=True)
class RequestRecord:
    """Terminal record for one request."""

    request_id: int
    op_name: str
    client_id: str
    arrival_time: float
    finish_time: float
    status: RequestStatus
    #: Number of times the request was cancelled and re-executed.
    retries: int = 0

    @property
    def latency(self) -> float:
        """End-to-end sojourn time (arrival to terminal outcome)."""
        return self.finish_time - self.arrival_time

    @property
    def completed(self) -> bool:
        return self.status is RequestStatus.COMPLETED


def percentile(values: Sequence[float], pct: float) -> float:
    """Exact percentile by linear interpolation (numpy-compatible).

    Returns ``nan`` for an empty sequence.  An out-of-range ``pct``
    raises even then -- a bad percentile is a caller bug regardless of
    how many samples happen to be in the window.
    """
    return _sorted_percentile(sorted(values), pct)


def _sorted_percentile(ordered: Sequence[float], pct: float) -> float:
    """:func:`percentile` of an ascending sequence."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if not ordered:
        return float("nan")
    return _percentile_of_sorted(ordered, pct)


def _percentile_of_sorted(ordered: Sequence[float], pct: float) -> float:
    """:func:`percentile` of a non-empty ascending sequence, ``pct``
    already validated (lets one sort serve several percentiles)."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    return _interpolate(ordered[low], ordered[math.ceil(rank)], rank - low)


def _interpolate(below: float, above: float, frac: float) -> float:
    """The value ``frac`` of the way from order statistic ``below`` to
    the next one, ``above`` (``frac`` 0 means the rank hit ``below``)."""
    if frac == 0.0:
        return below
    # Interpolate as base + delta*frac: exact when both points are equal
    # (a*(1-f) + b*f can drift by one ulp for tiny magnitudes).
    return below + (above - below) * frac


def window_count(end_time: float, window: float) -> int:
    """Number of fixed windows covering ``[0, end_time]`` (ceil, min 1).

    The single window convention shared by every per-window series in
    the repo (:func:`completion_windows`, the telemetry scraper, fault
    recovery timelines): the last window may be partial, and a series
    always has at least one window.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    return max(1, int(math.ceil(end_time / window)))


def completion_windows(
    records: Sequence[RequestRecord], window: float, end_time: float
) -> List[Tuple[float, List[float]]]:
    """Bucket completed records by finish time into fixed windows.

    Returns ``[(window_end, [latencies...]), ...]`` covering
    ``[0, end_time]`` with :func:`window_count` windows.  Window ``i``
    spans ``[i*window, (i+1)*window)`` -- a completion exactly on a
    boundary lands in the *following* window -- except the last window,
    which is closed on the right (records finishing at or after the
    nominal end are clamped into it, so no completion is ever dropped).

    This is the one windowing helper shared by
    :meth:`MetricsCollector.throughput_series`, the harness timeline
    (fault recovery plots, ``fig*`` series), and the telemetry layer,
    so per-window numbers cannot drift between consumers.
    """
    n_windows = window_count(end_time, window)
    buckets: List[List[float]] = [[] for _ in range(n_windows)]
    last = n_windows - 1
    completed = RequestStatus.COMPLETED
    for record in records:
        if record.status is not completed:
            continue
        finish = record.finish_time
        idx = int(finish // window)
        buckets[idx if idx < last else last].append(
            finish - record.arrival_time
        )
    return [
        ((i + 1) * window, buckets[i]) for i in range(n_windows)
    ]


class MetricsCollector:
    """Accumulates terminal request records for a simulation run."""

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []
        self._offered = 0
        #: Offered counts per operation name (only populated by callers
        #: that pass ``op_name``; the total stays authoritative).
        self.offered_by_op: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def note_offered(self, n: int = 1, op_name: Optional[str] = None) -> None:
        """Count requests offered to the system (including rejected ones)."""
        self._offered += n
        if op_name is not None:
            self.offered_by_op[op_name] = (
                self.offered_by_op.get(op_name, 0) + n
            )

    def record(self, record: RequestRecord) -> None:
        self.records.append(record)

    def take(self) -> List[RequestRecord]:
        """Hand over the records collected since the last ``take`` (or
        since the start) and forget them.

        The offered counts stay: they keep counting the whole run.  An
        epoch node takes one epoch's records at a time and folds them
        (:class:`SummaryFold`), so its memory does not grow with the
        run's length.
        """
        records, self.records = self.records, []
        return records

    def trimmed(self, cutoff: float) -> "MetricsCollector":
        """A collector view excluding records finishing before ``cutoff``.

        Used by the harness to drop the warm-up transient: the offered
        count is carried over unchanged (offered load does not stop
        during warm-up), while only records with ``finish_time >=
        cutoff`` are kept.  ``cutoff <= 0`` returns ``self`` (no copy).
        """
        if cutoff <= 0:
            return self
        view = MetricsCollector()
        view._offered = self._offered
        view.offered_by_op = dict(self.offered_by_op)
        view.records = [
            record for record in self.records if record.finish_time >= cutoff
        ]
        return view

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def offered(self) -> int:
        return self._offered

    def completed_records(
        self, op_name: Optional[str] = None
    ) -> List[RequestRecord]:
        return [
            r
            for r in self.records
            if r.completed and (op_name is None or r.op_name == op_name)
        ]

    def throughput(
        self, duration: float, op_name: Optional[str] = None
    ) -> float:
        """Completed requests per second over ``duration``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return len(self.completed_records(op_name)) / duration

    def goodput(self, duration: float, slo: float) -> float:
        """Completions under the latency SLO, per second."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        good = sum(
            1 for r in self.records if r.completed and r.latency <= slo
        )
        return good / duration

    def latency_percentile(
        self, pct: float, op_name: Optional[str] = None
    ) -> float:
        """Latency percentile over completed requests."""
        lats = [r.latency for r in self.completed_records(op_name)]
        return percentile(lats, pct)

    def mean_latency(self, op_name: Optional[str] = None) -> float:
        lats = [r.latency for r in self.completed_records(op_name)]
        return sum(lats) / len(lats) if lats else float("nan")

    def drop_rate(self) -> float:
        """Fraction of terminal requests that were dropped/cancelled/timed out.

        This matches the paper's "drop rate": a request that was cancelled
        but successfully re-executed counts as completed, not dropped.
        """
        terminal = len(self.records)
        if terminal == 0:
            return 0.0
        dropped = sum(1 for r in self.records if not r.completed)
        return dropped / terminal

    def status_counts(self) -> Dict[RequestStatus, int]:
        counts: Dict[RequestStatus, int] = {s: 0 for s in RequestStatus}
        for r in self.records:
            counts[r.status] += 1
        return counts

    def throughput_series(
        self, window: float, end_time: float
    ) -> List[Tuple[float, float]]:
        """(window_end, completions/sec) series over [0, end_time]."""
        return [
            (end, len(latencies) / window)
            for end, latencies in completion_windows(
                self.records, window, end_time
            )
        ]


class SlidingWindow:
    """Recent-completions window used by online overload detectors.

    Keeps (finish_time, latency) pairs within a trailing horizon; supports
    cheap throughput and tail-latency queries over that horizon.  The
    window's latencies are also kept sorted, so a percentile reads two
    order statistics instead of selecting them on every query.

    Boundary convention: the window is *closed* on both ends -- an entry
    whose finish time is exactly ``now - horizon`` is still counted, and
    only entries strictly older are evicted.  Detector thresholds were
    calibrated against this convention (tests/property pin it down), so
    do not "fix" the eviction comparison to ``<=``.
    """

    def __init__(self, horizon: float) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon
        #: Arrival order: the sums below depend on it.
        self._entries: Deque[Tuple[float, float]] = deque()
        #: The same latencies, ascending.
        self._sorted: List[float] = []

    def observe(self, finish_time: float, latency: float) -> None:
        entries = self._entries
        ordered = self._sorted
        entries.append((finish_time, latency))
        insort(ordered, latency)
        # _evict, inlined: this runs once per completion.
        cutoff = finish_time - self.horizon
        while entries[0][0] < cutoff:
            del ordered[bisect_left(ordered, entries.popleft()[1])]

    def _evict(self, now: float) -> None:
        cutoff = now - self.horizon
        entries = self._entries
        ordered = self._sorted
        while entries and entries[0][0] < cutoff:
            del ordered[bisect_left(ordered, entries.popleft()[1])]

    def count(self, now: float) -> int:
        self._evict(now)
        return len(self._entries)

    def throughput(self, now: float) -> float:
        self._evict(now)
        return len(self._entries) / self.horizon

    def latency_percentile(self, now: float, pct: float) -> float:
        """:func:`percentile` of the window's latencies, read from the
        sorted copy (one call per detector tick)."""
        self._evict(now)
        return _sorted_percentile(self._sorted, pct)

    def mean_latency(self, now: float) -> float:
        self._evict(now)
        if not self._entries:
            return float("nan")
        return sum(lat for _, lat in self._entries) / len(self._entries)


@dataclass
class Summary:
    """Condensed result of one simulation run (one experiment data point)."""

    duration: float
    throughput: float
    p50_latency: float
    p99_latency: float
    mean_latency: float
    drop_rate: float
    completed: int
    dropped: int
    cancelled: int
    timed_out: int

    @classmethod
    def from_collector(
        cls, collector: MetricsCollector, duration: float
    ) -> "Summary":
        """One pass over the records and one sort.

        Field for field what the per-metric methods of
        :class:`MetricsCollector` return (``throughput``,
        ``latency_percentile(50 / 99)``, ``mean_latency``, ``drop_rate``,
        ``status_counts``) -- those stay the public API and the
        reference the tests compare this against.
        """
        fold = SummaryFold()
        fold.add(collector.records)
        return fold.summary(duration)


class SummaryFold:
    """The inputs of a :class:`Summary`, folded as records arrive.

    Status counts plus the completed latencies in record order: records
    fed in any number of windows give the summary the concatenated
    records would (:meth:`Summary.from_collector` is one ``add`` of
    them all).  A positive ``cutoff`` drops each record finishing before
    it as it arrives, as :meth:`MetricsCollector.trimmed` does, so
    ``SummaryFold(cutoff)`` over a run's windows summarises its
    warm-up-trimmed view without keeping any record.
    """

    __slots__ = ("cutoff", "counts", "latencies")

    def __init__(self, cutoff: float = 0.0) -> None:
        self.cutoff = cutoff
        self.counts: Dict[RequestStatus, int] = {s: 0 for s in RequestStatus}
        #: Completed latencies, in record order.
        self.latencies = array("d")

    def add(self, records: Iterable[RequestRecord]) -> None:
        """Fold one window of records."""
        cutoff = self.cutoff
        if cutoff > 0:
            records = [r for r in records if r.finish_time >= cutoff]
        counts = self.counts
        completed = RequestStatus.COMPLETED
        append = self.latencies.append
        for record in records:
            status = record.status
            counts[status] += 1
            if status is completed:
                append(record.finish_time - record.arrival_time)

    def summary(self, duration: float) -> Summary:
        """The :class:`Summary` of everything folded so far."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        latencies = self.latencies
        n = len(latencies)
        counts = self.counts
        terminal = sum(counts.values())
        nan = float("nan")
        # Sum in record order, before sorting: float addition is not
        # associative and mean_latency() adds in this order.
        mean = sum(latencies) / n if n else nan
        ordered = sorted(latencies)
        return Summary(
            duration=duration,
            throughput=n / duration,
            p50_latency=_percentile_of_sorted(ordered, 50) if n else nan,
            p99_latency=_percentile_of_sorted(ordered, 99) if n else nan,
            mean_latency=mean,
            drop_rate=(terminal - n) / terminal if terminal else 0.0,
            completed=n,
            dropped=counts[RequestStatus.DROPPED],
            cancelled=counts[RequestStatus.CANCELLED],
            timed_out=counts[RequestStatus.TIMED_OUT],
        )
