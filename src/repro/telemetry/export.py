"""Telemetry exporters: Prometheus text format and JSONL time series.

Both formats are deterministic: families sorted by name, children by
label key, windows in simulated-time order, floats rendered with
``repr`` (shortest round-trip, platform-stable for IEEE doubles), and
JSON in the canonical compact form the Chrome trace uses
(:func:`repro.obs.export.compact_json`).  Same seed -> byte-identical
files.
"""

from __future__ import annotations

from typing import List, Union

from ..obs.export import compact_json
from .registry import LabelKey
from .scrape import RunTelemetry

#: Sketch quantiles exported as Prometheus summary lines.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


def _fmt(value: float) -> str:
    """Prometheus-style number rendering (deterministic)."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(runs: List[RunTelemetry]) -> str:
    """Render every run's final registry in Prometheus text format.

    Each run's metrics carry a ``run`` label, so a multi-run campaign
    exports as one well-formed exposition document.
    """
    lines: List[str] = []
    seen_header = set()
    for run in runs:
        run_label = f'run="{run.label}"'
        for name, kind, help_text, children in run.registry.collect():
            if name not in seen_header:
                seen_header.add(name)
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            for key, metric in children:
                base = list(key) + [("run", run.label)]
                base_key: LabelKey = tuple(sorted(base))
                if kind in ("counter", "gauge"):
                    lines.append(
                        f"{name}{_labels(base_key)} {_fmt(metric.value)}"
                    )
                elif kind == "histogram":
                    for bound, cum in metric.cumulative():
                        le = 'le="' + _fmt(bound) + '"'
                        lines.append(
                            f"{name}_bucket{_labels(base_key, le)} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_labels(base_key)} {_fmt(metric.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_labels(base_key)} {metric.count}"
                    )
                elif kind == "summary":
                    for q in SUMMARY_QUANTILES:
                        qlabel = 'quantile="' + str(q) + '"'
                        lines.append(
                            f"{name}{_labels(base_key, qlabel)}"
                            f" {_fmt(metric.quantile(q))}"
                        )
                    lines.append(
                        f"{name}_sum{_labels(base_key)} {_fmt(metric.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_labels(base_key)} {metric.count}"
                    )
    return "\n".join(lines) + "\n" if lines else ""


def _clean(value: float) -> Union[float, None]:
    """JSON-safe value: NaN/inf become null (json allow_nan=False)."""
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return round(value, 9)


def jsonl_series(runs: List[RunTelemetry]) -> str:
    """One JSON line per run header / scrape window / health event."""
    lines: List[str] = []
    for run in runs:
        lines.append(compact_json({
            "kind": "run",
            "run": run.label,
            "interval": round(run.interval, 9),
            "duration": round(run.duration, 9),
            "resources": run.resource_names,
            "windows": len(run.windows),
        }))
        for window in run.windows:
            lines.append(compact_json({
                "kind": "window",
                "run": run.label,
                "t": round(window.t, 9),
                "values": {
                    key: _clean(val)
                    for key, val in sorted(window.values.items())
                },
            }))
        for event in run.health_events:
            payload = event.to_dict()
            payload.update({"kind": "health", "run": run.label})
            lines.append(compact_json(payload))
        for fault in run.fault_events:
            payload = dict(fault)
            payload.update({"kind": "fault", "run": run.label})
            lines.append(compact_json(payload))
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(runs: List[RunTelemetry], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(runs))


def write_jsonl(runs: List[RunTelemetry], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(jsonl_series(runs))
