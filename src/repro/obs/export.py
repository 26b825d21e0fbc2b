"""Deterministic writers the observation planes share.

* :func:`compact_json` -- the canonical compact JSON behind the Chrome
  trace and the telemetry JSONL series;
* the trace exporters: Chrome-trace JSON, utilization CSV, audit JSON;
* the HTML page kit both reports (:mod:`repro.telemetry.report`,
  :mod:`repro.regress.report`) are built from: one stylesheet, one
  document shell (:func:`page`), the sparkline geometry, panels and
  bordered tables.

Output depends only on its input (simulated time, names derived from
simulation state, fixed float formatting), so two runs with the same
seed export byte-identical files.
"""

from __future__ import annotations

import csv
import html
import io
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .tracer import Tracer

__all__ = [
    "chrome_trace_payload",
    "compact_json",
    "render_trace_summary",
    "utilization_rows",
    "write_audit_json",
    "write_chrome_trace",
    "write_utilization_csv",
]


def compact_json(obj: Any) -> str:
    """Canonical compact JSON: sorted keys, no spaces, NaN refused."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def chrome_trace_payload(tracer: Tracer) -> Dict[str, Any]:
    """Build the Chrome-trace JSON object for ``tracer``'s events.

    Loadable in ``chrome://tracing`` and Perfetto (legacy JSON format).
    """
    return {
        "traceEvents": tracer.events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "runs": tracer.runs,
        },
    }


def dumps_chrome_trace(tracer: Tracer) -> str:
    """Serialize deterministically (:func:`compact_json`)."""
    return compact_json(chrome_trace_payload(tracer))


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Chrome-trace JSON to ``path``; returns the event count."""
    payload = chrome_trace_payload(tracer)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(compact_json(payload))
        handle.write("\n")
    return len(payload["traceEvents"])


# ----------------------------------------------------------------------
# Utilization timeline CSV
# ----------------------------------------------------------------------
def utilization_rows(tracer: Tracer) -> List[List[Any]]:
    """Flatten counter records into (run, time_s, track, series, value) rows.

    One row per counter series sample, in emission (simulated-time) order;
    the per-resource utilization timeline of a run.  ``time_s`` is the
    trace's microsecond timestamp read back in seconds.
    """
    runs = tracer.runs
    rows: List[List[Any]] = []
    for ph, pid, ts, _, _, track, values, _ in tracer.records:
        if ph != "C":
            continue
        time_s = f"{round(ts * 1e6, 3) / 1e6:.6f}"
        for series, value in sorted(values.items()):
            rows.append([runs[pid - 1], time_s, track, series, value])
    return rows


def write_utilization_csv(tracer: Tracer, path: str) -> int:
    """Write the per-resource utilization timeline CSV; returns row count."""
    rows = utilization_rows(tracer)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["run", "time_s", "resource", "series", "value"])
        writer.writerows(rows)
    return len(rows)


# ----------------------------------------------------------------------
# Decision-audit JSON
# ----------------------------------------------------------------------
def write_audit_json(audits: List[Dict[str, Any]], path: str) -> int:
    """Write decision-audit payloads (``tracer.audits``) as JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(
            {"audits": audits},
            handle,
            sort_keys=True,
            indent=2,
            allow_nan=False,
        )
        handle.write("\n")
    return len(audits)


# ----------------------------------------------------------------------
# Human-readable summary (surfaced by reporting / the trace CLI)
# ----------------------------------------------------------------------
def render_trace_summary(tracer: Tracer) -> str:
    """Counter table: runs traced and events per category."""
    out = io.StringIO()
    out.write(f"runs traced:       {len(tracer.runs)}\n")
    out.write(f"trace events:      {len(tracer.events)}\n")
    out.write(f"decision audits:   {len(tracer.audits)}\n")
    counts = tracer.counts
    if counts:
        out.write("events by category:\n")
        for cat, count in sorted(counts.items()):
            out.write(f"  {cat:<12} {count}\n")
    return out.getvalue().rstrip("\n")


# ----------------------------------------------------------------------
# HTML page kit: self-contained (inline CSS and SVG, no external
# reference), deterministic (no wall clock, fixed float formatting)
# ----------------------------------------------------------------------
SPARK_W = 260
SPARK_H = 48
_PAD = 3.0

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 1080px; color: #1c2733; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em;
     border-bottom: 1px solid #d8dee6; padding-bottom: .2em; }
.meta { color: #5a6b7b; font-size: .85em; }
.panels { display: flex; flex-wrap: wrap; gap: 14px; }
.panel { border: 1px solid #d8dee6; border-radius: 6px;
         padding: 8px 10px; background: #fbfcfe; }
.panel .title { font-size: .8em; color: #44525f; margin-bottom: 2px; }
.panel .last { font-size: .85em; }
table.grid { border-collapse: collapse; font-size: .82em;
             margin-top: .6em; }
table.grid th, table.grid td { border: 1px solid #d8dee6;
             padding: 3px 8px; text-align: left; }
table.grid th { background: #eef2f7; }
.sev-warn { color: #9a6b00; } .sev-critical { color: #b00020; }
.healthlist { font-size: .85em; }
.verdict-pass { color: #2e7d32; font-weight: 600; }
.verdict-drift, .panel .title.drift, tr.drifted td:first-child {
       color: #b00020; font-weight: 600; }
.legend { font-size: .8em; color: #5a6b7b; }
.legend .base { color: #8a97a5; } .legend .cur { color: #2255a4; }
"""


def page(heading: str, body: str) -> str:
    """A complete HTML document: ``heading`` as title and ``<h1>``."""
    title = html.escape(heading)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{title}</title><style>{_CSS}</style></head><body>"
        f"<h1>{title}</h1>{body}</body></html>\n"
    )


def fmt(value: float, digits: int = 3) -> str:
    """A number for report text; NaN reads ``--``."""
    return "--" if value != value else f"{value:.{digits}g}"


def spark_x(t: float, duration: float) -> float:
    """Sparkline x coordinate of simulated time ``t``."""
    return _PAD + (SPARK_W - 2 * _PAD) * min(t / duration, 1.0)


def spark_points(
    series: Sequence[Tuple[float, float]],
    duration: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """SVG polyline points of a (t, value) series, NaNs skipped; the
    value range defaults to the series' own, and a fixed ``lo`` / ``hi``
    overlays two series on one scale."""
    finite = [(t, v) for t, v in series if v == v]
    if not finite or duration <= 0:
        return ""
    lo = min(v for _, v in finite) if lo is None else lo
    hi = max(v for _, v in finite) if hi is None else hi
    span = (hi - lo) or 1.0
    return " ".join(
        f"{spark_x(t, duration):.1f},"
        f"{SPARK_H - _PAD - (SPARK_H - 2 * _PAD) * ((v - lo) / span):.1f}"
        for t, v in finite
    )


def polyline(points: str, colour: str, width: str) -> str:
    """One sparkline stroke ("" for no points)."""
    if not points:
        return ""
    return (
        f'<polyline points="{points}" fill="none" stroke="{colour}" '
        f'stroke-width="{width}"/>'
    )


def svg(content: str, width: int = SPARK_W, height: int = SPARK_H) -> str:
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">{content}</svg>'
    )


def panel(title: str, body: str, drifted: bool = False) -> str:
    """A bordered panel: the (escaped) ``title`` over ``body``."""
    cls = "title drift" if drifted else "title"
    return (
        f'<div class="panel"><div class="{cls}">{html.escape(title)}</div>'
        f"{body}</div>"
    )


def row(*cells: str, drifted: bool = False) -> str:
    """One table row of cell HTML; a drifted row is flagged red."""
    attr = ' class="drifted"' if drifted else ""
    return f"<tr{attr}>" + "".join(f"<td>{c}</td>" for c in cells) + "</tr>"


def table(header: Sequence[str], rows: Iterable[str]) -> str:
    """A bordered table: the ``header`` labels over :func:`row` rows."""
    head = "".join(f"<th>{label}</th>" for label in header)
    return f'<table class="grid"><tr>{head}</tr>{"".join(rows)}</table>'
