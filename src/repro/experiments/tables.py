"""Tabular results: the common output format of every experiment.

Each experiment returns one or more :class:`ExperimentTable` objects
holding exactly the rows/series the corresponding paper figure or table
reports; ``format()`` renders them for the CLI report and the
EXPERIMENTS.md record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence


def _fmt_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # nan
            return "nan"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class ExperimentTable:
    """One table of results (one figure panel or paper table)."""

    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, expected {len(self.columns)}"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def row_map(self, key_column: str = None) -> dict:
        """Rows keyed by the first (or named) column."""
        key_idx = 0 if key_column is None else self.columns.index(key_column)
        return {row[key_idx]: row for row in self.rows}

    def to_csv(self) -> str:
        """Render as CSV (for plotting pipelines)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def format(self) -> str:
        cells = [[_fmt_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment_id: str
    description: str
    tables: List[ExperimentTable] = field(default_factory=list)

    def table(self, title_fragment: str) -> ExperimentTable:
        for table in self.tables:
            if title_fragment.lower() in table.title.lower():
                return table
        raise KeyError(f"no table matching {title_fragment!r}")

    def format(self) -> str:
        header = f"### {self.experiment_id}: {self.description}"
        return "\n\n".join([header] + [t.format() for t in self.tables])
