"""Window-series serialization: one JSON payload per run.

:func:`window_series` condenses a run's completion records (plus the
delivered-cancellation times) into fixed per-window arrays on the
shared ceil-based window grid (:func:`repro.sim.metrics.window_count`),
so cached campaign extras carry the same per-window p99 / goodput /
cancel-rate shape the telemetry scraper would have produced -- without
requiring a telemetered run (serial, and never served from the cache).  ``repro regress``
snapshots and diffs exactly this payload.

All floats are rounded to 9 decimals and every list is windows-ordered,
so the payload is byte-identical across interpreters and hash seeds.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from ..sim.metrics import completion_windows, percentile, window_count

#: The canonical window width used by campaign extras (matches the
#: harness timeline and the fault-recovery series).
DEFAULT_WINDOW = 0.5

#: The per-window value keys a serialized series carries, in order.
SERIES_KEYS = ("throughput", "p99", "goodput", "cancels")


def window_series(
    records: Iterable[Any],
    duration: float,
    slo: Optional[float] = None,
    cancel_times: Sequence[float] = (),
    window: float = DEFAULT_WINDOW,
) -> Dict[str, Any]:
    """Serialize per-window series over ``[0, duration]``.

    Args:
        records: completion records (``RequestRecord``-shaped: needs
            ``status``, ``arrival_time``, ``finish_time``); typically the
            warm-up-trimmed collector records so the series matches the
            run summary.
        duration: run horizon covered by the window grid.
        slo: goodput counts completions with latency <= ``slo``; with
            no SLO every completion is "good" (goodput == throughput).
        cancel_times: delivery times of cancellations, bucketed on the
            same grid (the cancel-rate series).
        window: window width in simulated seconds.

    Returns a dict with ``window``, ``slo``, ``end`` (window ends) and
    one windows-aligned list per :data:`SERIES_KEYS` (``p99`` is None
    for empty windows; everything else is a number).
    """
    windows = completion_windows(records, window, duration)
    n = window_count(duration, window)
    cancels = [0] * n
    for t in cancel_times:
        idx = min(int(t // window), n - 1)
        cancels[idx] += 1
    ends = []
    throughput = []
    p99s = []
    goodput = []
    for end, latencies in windows:
        ends.append(round(end, 9))
        throughput.append(round(len(latencies) / window, 9))
        if latencies:
            p99s.append(round(percentile(latencies, 99), 9))
        else:
            p99s.append(None)
        good = (
            len(latencies)
            if slo is None
            else sum(1 for lat in latencies if lat <= slo)
        )
        goodput.append(round(good / window, 9))
    return {
        "window": round(window, 9),
        "slo": None if slo is None else round(slo, 9),
        "end": ends,
        "throughput": throughput,
        "p99": p99s,
        "goodput": goodput,
        "cancels": cancels,
    }
