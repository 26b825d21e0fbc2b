"""Self-contained HTML run reports with inline-SVG sparklines.

:func:`render_html_report` turns a telemetry session's runs into one
HTML document built from the :mod:`repro.obs.export` page kit: per run,
sparkline panels for throughput / p99 / per-resource utilization /
kernel queue depth / cancellations, a colour-banded health timeline,
fault inject/restore markers, and the decision-audit table.
"""

from __future__ import annotations

import html
from typing import List, Optional, Sequence, Tuple

from ..obs.export import (
    SPARK_H,
    SPARK_W,
    fmt,
    page,
    panel,
    polyline,
    row,
    spark_points,
    spark_x,
    svg,
    table,
)
from .health import worst_severity
from .scrape import RunTelemetry


def _sparkline(
    title: str,
    series: Sequence[Tuple[float, float]],
    duration: float,
    fault_times: Sequence[Tuple[float, str]] = (),
    unit: str = "",
) -> str:
    pts = spark_points(series, duration)
    finite = [v for _, v in series if v == v]
    lo, hi = (min(finite), max(finite)) if pts else (float("nan"),) * 2
    markers = []
    for t, phase in fault_times if duration > 0 else ():
        x = spark_x(t, duration)
        colour = "#b00020" if phase == "inject" else "#2e7d32"
        markers.append(
            f'<line x1="{x:.1f}" y1="1" x2="{x:.1f}" y2="{SPARK_H - 1}" '
            f'stroke="{colour}" stroke-width="1" stroke-dasharray="2,2"/>'
        )
    last = finite[-1] if finite else float("nan")
    return panel(
        title,
        svg("".join(markers) + polyline(pts, "#2255a4", "1.3"))
        + f'<div class="last">last {fmt(last)}{unit} '
        f'<span class="meta">(min {fmt(lo)}, max {fmt(hi)})</span></div>',
    )


def _health_timeline(run: RunTelemetry) -> str:
    """Colour strip: one cell per scrape window, worst severity wins."""
    if not run.windows:
        return '<p class="meta">no scrape windows</p>'
    width = SPARK_W * 2
    cell = width / len(run.windows)
    colours = {"critical": "#d32f2f", "warn": "#f9a825"}
    cells = "".join(
        f'<rect x="{i * cell:.1f}" y="0" width="{cell:.2f}" height="14" '
        f'fill="{colours.get(worst_severity(window.health), "#7cb342")}"/>'
        for i, window in enumerate(run.windows)
    )
    return panel(
        "health timeline (green ok / amber warn / red critical)",
        svg(cells, width, 14),
    )


def _health_list(run: RunTelemetry, limit: int = 40) -> str:
    if not run.health_events:
        return '<p class="meta">no health events</p>'
    items = []
    for event in run.health_events[:limit]:
        items.append(
            f'<li class="sev-{html.escape(event.severity)}">'
            f"t={event.time:.2f}s <b>{html.escape(event.rule)}</b>: "
            f"{html.escape(event.message)}</li>"
        )
    extra = len(run.health_events) - limit
    more = f'<li class="meta">... {extra} more</li>' if extra > 0 else ""
    return f'<ul class="healthlist">{"".join(items)}{more}</ul>'


def _audit_table(run: RunTelemetry, limit: int = 25) -> str:
    if not run.audits:
        return '<p class="meta">no decision audits recorded</p>'
    rows = []
    for audit in run.audits[:limit]:
        tail = (audit.get("detector") or {}).get("tail_latency")
        rows.append(row(
            f"{audit.get('time', 0):.2f}s",
            html.escape(str(audit.get("verdict", "?"))),
            html.escape(str(audit.get("culprit_resource") or "-")),
            html.escape(str(audit.get("cancelled_op_name") or "-")),
            f"{tail * 1000:.1f}ms" if isinstance(tail, (int, float)) else "--",
        ))
    extra = len(run.audits) - limit
    more = (
        f'<p class="meta">... {extra} more audits</p>' if extra > 0 else ""
    )
    header = ("t", "verdict", "culprit resource", "cancelled op",
              "tail latency")
    return table(header, rows) + more


def _run_section(run: RunTelemetry) -> str:
    duration = run.duration or (
        run.windows[-1].t if run.windows else 0.0
    )
    faults = [
        (f.get("time", 0.0), f.get("phase", ""))
        for f in run.fault_events
        if f.get("applied", True)
    ]
    panels = [
        _sparkline("throughput (req/s)", run.series("throughput"),
                   duration, faults),
        _sparkline(
            "p99 latency (ms)",
            [(t, v * 1000 if v == v else v)
             for t, v in run.series("p99")],
            duration, faults, unit="ms",
        ),
        _sparkline("event-queue depth", run.series("event_queue_depth"),
                   duration, faults),
        _sparkline("cancellations (cumulative)",
                   run.series("cancels_total"), duration, faults),
    ]
    for name in run.resource_names:
        series = run.series(f"util:{name}")
        if series:
            panels.append(
                _sparkline(f"utilization {name}", series, duration, faults)
            )
    fault_note = ""
    if faults:
        fault_note = (
            '<p class="meta">fault markers: red dashes = inject, '
            "green dashes = restore</p>"
        )
    return (
        f"<h2>{html.escape(run.label)}</h2>"
        f'<p class="meta">duration {duration:.2f}s · '
        f"scrape interval {run.interval:g}s · "
        f"{len(run.windows)} windows · "
        f"{len(run.health_events)} health events · "
        f"{len(run.audits)} audits</p>"
        f'<div class="panels">{"".join(panels)}</div>'
        f"{fault_note}"
        f"{_health_timeline(run)}"
        "<h3>Health events</h3>"
        f"{_health_list(run)}"
        "<h3>Decision audits</h3>"
        f"{_audit_table(run)}"
    )


def render_html_report(
    runs: List[RunTelemetry], title: Optional[str] = None
) -> str:
    """Render a complete, self-contained HTML report for the runs."""
    sections = "".join(_run_section(run) for run in runs)
    if not runs:
        sections = "<p>No telemetry captured (no runs executed).</p>"
    total_events = sum(len(run.health_events) for run in runs)
    return page(
        title or "repro telemetry report",
        f'<p class="meta">{len(runs)} run(s) · '
        f"{total_events} health event(s) · generated by repro.telemetry"
        f"</p>{sections}",
    )


def write_html_report(
    runs: List[RunTelemetry], path, title: Optional[str] = None
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_html_report(runs, title))
