"""Self-contained HTML diff report for a regress check.

One section per capture: sparkline panels overlaying the baseline
(grey) and current (blue) window series on a shared value scale, plus
the count/scalar drift tables, all built from the
:mod:`repro.obs.export` page kit the telemetry run reports use.
Drifting panels are titled in red and the drifting series are named up
front, so a CI failure links straight to what moved.
"""

from __future__ import annotations

import html
from typing import Any, Dict, List, Optional, Tuple

from ..obs.export import (
    fmt,
    page,
    panel,
    polyline,
    row,
    spark_points,
    svg,
    table,
)
from ..telemetry.series import SERIES_KEYS
from .baseline import RegressBaseline
from .compare import CaseDrift, RegressReport

_BASE_COLOUR = "#8a97a5"
_CUR_COLOUR = "#2255a4"


def _series_pairs(
    series: Optional[Dict[str, Any]], key: str
) -> List[Tuple[float, float]]:
    if not series:
        return []
    ends = series.get("end", ())
    values = series.get(key, ())
    return [
        (float(end), float("nan") if value is None else float(value))
        for end, value in zip(ends, values)
    ]


def _diff_panel(
    key: str,
    base_series: Optional[Dict[str, Any]],
    cur_series: Optional[Dict[str, Any]],
    drift: Optional[Dict[str, Any]],
) -> str:
    base_pairs = _series_pairs(base_series, key)
    cur_pairs = _series_pairs(cur_series, key)
    finite = [v for _, v in base_pairs + cur_pairs if v == v]
    if not finite:
        return ""
    duration = max(
        [t for t, _ in base_pairs + cur_pairs] or [0.0]
    )
    lo = min(finite)
    hi = max(finite)
    polylines = "".join(
        polyline(spark_points(pairs, duration, lo=lo, hi=hi), colour, width)
        for pairs, colour, width in (
            (base_pairs, _BASE_COLOUR, "1.1"),
            (cur_pairs, _CUR_COLOUR, "1.4"),
        )
    )
    drifted = bool(drift and drift.get("drifted"))
    detail = ""
    if drift and drift.get("base_mean") is not None:
        detail = (
            f'<div class="last">mean {fmt(drift["base_mean"])} &rarr; '
            f'{fmt(drift["cur_mean"])}'
            + (
                f' &middot; rel {fmt(drift["rel_change"])}'
                if drift.get("rel_change") is not None else ""
            )
            + "</div>"
        )
    title = key + (" (drift)" if drifted else "")
    return panel(title, svg(polylines) + detail, drifted=drifted)


def _drift_table(case: CaseDrift) -> str:
    checks = [(key, case.counts[key]) for key in sorted(case.counts)] + [
        (f"summary:{key}", case.scalars[key]) for key in sorted(case.scalars)
    ]
    rows = [
        _check_row(label, _fmt_cell(result.get("base")),
                   _fmt_cell(result.get("cur")), result.get("drifted"))
        for label, result in checks
    ]
    if case.digest:
        base, cur = (
            html.escape(str(case.digest.get(side))[:12])
            for side in ("base", "cur")
        )
        rows.append(
            _check_row("digest", base, cur, case.digest.get("drifted"))
        )
    if not rows:
        return ""
    return table(("check", "baseline", "current", "verdict"), rows)


def _check_row(label: str, base: str, cur: str, drifted: Any) -> str:
    return row(
        html.escape(label), base, cur, "drift" if drifted else "ok",
        drifted=bool(drifted),
    )


def _fmt_cell(value: Any) -> str:
    if value is None:
        return "--"
    if isinstance(value, float):
        return fmt(value)
    return html.escape(str(value))


def _case_section(
    case: CaseDrift,
    baseline: RegressBaseline,
    current: RegressBaseline,
) -> str:
    base_capture = baseline.case(case.name)
    cur_capture = current.case(case.name)
    drifting = case.drifting()
    verdict = (
        f'<span class="verdict-drift">DRIFT: '
        f"{html.escape(', '.join(drifting))}</span>"
        if drifting
        else '<span class="verdict-pass">ok</span>'
    )
    if case.missing:
        return (
            f"<h2>{html.escape(case.name)}</h2>"
            f"<p>{verdict} &middot; no matching capture in the current "
            "run</p>"
        )
    base_series = base_capture.series if base_capture else None
    cur_series = cur_capture.series if cur_capture else None
    panels = "".join(
        _diff_panel(key, base_series, cur_series, case.series.get(key))
        for key in SERIES_KEYS
    )
    panels_html = (
        f'<div class="panels">{panels}</div>' if panels else
        '<p class="meta">no window series (digest-compared family)</p>'
    )
    return (
        f"<h2>{html.escape(case.name)}</h2>"
        f"<p>{verdict}</p>"
        f"{panels_html}"
        f"{_drift_table(case)}"
    )


def render_diff_report(
    report: RegressReport,
    baseline: RegressBaseline,
    current: RegressBaseline,
    title: Optional[str] = None,
) -> str:
    """Render the complete, self-contained HTML diff."""
    heading = title or (
        f"repro regress: {report.baseline_name or 'baseline'} vs current"
    )
    if report.drifted:
        names = ", ".join(report.drifting_names())
        verdict = (
            f'<p class="verdict-drift">DRIFT &middot; '
            f"{html.escape(names)}</p>"
        )
    else:
        verdict = '<p class="verdict-pass">PASS &middot; no drift</p>'
    sections = "".join(
        _case_section(case, baseline, current) for case in report.cases
    )
    return page(
        heading,
        f"{verdict}"
        '<p class="legend"><span class="base">&#9644; baseline</span> '
        '&middot; <span class="cur">&#9644; current</span> &middot; '
        f"rel tol {report.rel_tol:.0%} &middot; "
        f"{len(report.cases)} capture(s) &middot; "
        f"generated by repro.regress</p>{sections}",
    )


def write_diff_report(
    report: RegressReport,
    baseline: RegressBaseline,
    current: RegressBaseline,
    path: str,
    title: Optional[str] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            render_diff_report(report, baseline, current, title)
        )
