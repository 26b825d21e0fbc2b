#!/usr/bin/env python3
"""Compare two result files written by ``perf/run.py``.

    python3 perf/compare.py A.json B.json     # A = parent, B = change

One row per workload x end-to-end metric: both medians with their
quartiles, the ratio B/A (base: A's median), the bound ``BENCHMARK.json``
fixes, and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- not worse, but either run's spread (q3 - q1 over its
  median) is wider than the bound and the two quartile ranges overlap,
  so "unchanged" cannot be told from "changed";
* ``ok``         -- otherwise.

Metrics marked *exact* (simulated counts and ratios) must be equal.
Exit status is 1 on any ``worse`` row, exact mismatch, or failed
operation in B; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load_bounds() -> Dict[str, Dict[str, Any]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def spread(metric: Dict[str, Any]) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    if metric.get("n", 1) < 2 or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    ratio = b["value"] / a["value"]
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return "worse"
    overlap = (
        a.get("q1", a["value"]) <= b.get("q3", b["value"])
        and b.get("q1", b["value"]) <= a.get("q3", a["value"])
    )
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved"
    return "ok"


def _cell(metric: Dict[str, Any]) -> str:
    text = f"{metric['value']:.5g}"
    if metric.get("n", 1) > 1:
        text += f" [{metric['q1']:.5g}, {metric['q3']:.5g}] n={metric['n']}"
    return text


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows for every workload x metric present in both documents."""
    bounds = load_bounds()
    rows = []
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            continue
        if result_b["failed"]:
            rows.append({
                "workload": workload, "metric": "failed operations",
                "a": str(result_a["failed"]), "b": str(result_b["failed"]),
                "ratio": "", "bound": "0", "verdict": "worse",
            })
        for name, metric_a in result_a["metrics"].items():
            metric_b = result_b["metrics"].get(name)
            if metric_b is None:
                continue
            if name in bounds:
                bound = bounds[name]["bound"]
                rows.append({
                    "workload": workload, "metric": name,
                    "a": _cell(metric_a), "b": _cell(metric_b),
                    "ratio": f"{metric_b['value'] / metric_a['value']:.4f}"
                             " x A",
                    "bound": f"{bound:.0%} {bounds[name]['better']}",
                    "verdict": verdict(metric_a, metric_b,
                                       bounds[name]["better"], bound),
                })
            elif metric_a.get("exact"):
                same = metric_a["value"] == metric_b["value"]
                rows.append({
                    "workload": workload, "metric": name,
                    "a": repr(metric_a["value"]),
                    "b": repr(metric_b["value"]),
                    "ratio": "", "bound": "exact",
                    "verdict": "ok" if same else "mismatch",
                })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    columns = ["workload", "metric", "a", "b", "ratio", "bound", "verdict"]
    titles = dict(zip(columns, ["workload", "metric", "A (median [q1, q3])",
                                "B (median [q1, q3])", "B/A", "bound",
                                "verdict"]))
    widths = {
        c: max(len(titles[c]), *(len(row[c]) for row in rows))
        for c in columns
    }
    lines = ["  ".join(titles[c].ljust(widths[c]) for c in columns)]
    lines += [
        "  ".join(row[c].ljust(widths[c]) for c in columns) for row in rows
    ]
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    if not rows:
        print("no workload and metric in common", file=sys.stderr)
        return 2
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "mismatch")]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(rows)} rows: {len(bad)} worse or mismatched, "
          f"{unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
