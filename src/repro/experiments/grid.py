"""The sweep grid: rows x columns of runs, every row against a reference.

The paper's whole evaluation (§5, Figs 9-13) and the extension
experiments share one shape -- cases (or loads) down, systems (or knob
values) across, each cell normalized to the row's non-overloaded run.
:class:`Sweep` runs that shape as **one** campaign batch and hands the
outcomes back by ``(row, column)``, so experiment modules declare what a
cell *is* and what a table *shows* and never walk the outcome list
themselves.

Spec order is part of the contract: row-major, each row's reference
first.  Cache hit counts, in-batch dedupe and worker assignment all
follow the order ``execute`` sees, so it must not depend on how a
figure happens to build its tables.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..campaign import RunOutcome, RunSpec, execute
from .case_family import case_spec
from .harness import normalize
from .tables import ExperimentTable

#: A table cell: ``cell(outcome, reference) -> value`` (``reference`` is
#: None for sweeps without one).
Cell = Callable[[RunOutcome, Optional[RunOutcome]], Any]


class Sweep:
    """One executed rows x columns grid of runs.

    Args:
        key: header of the row-key column (``case``, ``offered_load``).
        rows: row keys (case ids, offered loads, app names); each is
            also the first cell of its table row.
        columns: column keys (system names, knob values, variants).
        spec_for: ``spec_for(row, column)`` -> the cell's RunSpec.
        reference: ``reference(row)`` -> the RunSpec every cell of the
            row is compared against, run in the same batch ahead of the
            row's cells.
        label: column key -> table header.

    Attributes:
        cells: ``(row, column)`` -> RunOutcome.
        references: row -> RunOutcome, or None without ``reference``
            (fig12 assigns them: its goal sweep derives its specs from
            its reference runs, so those come from an earlier batch).
    """

    def __init__(
        self,
        key: str,
        rows: Sequence[Any],
        columns: Sequence[Any],
        spec_for: Callable[[Any, Any], RunSpec],
        reference: Optional[Callable[[Any], RunSpec]] = None,
        label: Callable[[Any], str] = str,
    ) -> None:
        self.key = key
        self.rows = list(rows)
        self.columns = list(columns)
        self.labels = [label(column) for column in self.columns]
        specs = []
        for row in self.rows:
            if reference is not None:
                specs.append(reference(row))
            specs.extend(spec_for(row, column) for column in self.columns)
        outcomes = iter(execute(specs))
        self.references: Dict[Any, Optional[RunOutcome]] = {}
        self.cells: Dict[Tuple[Any, Any], RunOutcome] = {}
        for row in self.rows:
            self.references[row] = next(outcomes) if reference else None
            for column in self.columns:
                self.cells[row, column] = next(outcomes)

    def table(self, title: str, cell: Cell) -> ExperimentTable:
        """One table row per grid row: the row key, then ``cell`` of
        each column's outcome and the row's reference."""
        table = ExperimentTable(title, [self.key] + self.labels)
        for row in self.rows:
            reference = self.references[row]
            table.add_row(
                row,
                *(cell(self.cells[row, c], reference) for c in self.columns),
            )
        return table


def case_sweep(
    experiment: str,
    case_ids: Sequence[str],
    columns: Sequence[Any],
    seed: int,
    variant: Callable[[Any], Dict[str, Any]],
    label: Callable[[Any], str] = str,
    baseline: bool = True,
) -> Sweep:
    """The paper's grid: cases down, variants of the overloaded run
    across (``variant(column)`` -> that column's ``case_spec`` keywords),
    each case against its non-overloaded ``baseline`` run."""

    def reference(cid):
        return case_spec(experiment, cid, seed, include_culprit=False)

    def spec_for(cid, column):
        return case_spec(experiment, cid, seed, **variant(column))

    return Sweep(
        "case", case_ids, columns, spec_for,
        reference=reference if baseline else None, label=label,
    )


def attr(name: str) -> Cell:
    """The cell that reports one outcome attribute as is."""
    return lambda outcome, _reference: getattr(outcome, name)


def norm_tput(outcome: RunOutcome, reference: RunOutcome) -> float:
    """Throughput relative to the reference run."""
    return normalize(outcome.throughput, reference.throughput)


def norm_p99(outcome: RunOutcome, reference: RunOutcome) -> float:
    """99th-percentile latency relative to the reference run."""
    return normalize(outcome.p99_latency, reference.p99_latency)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def column_means(title: str, key: str, **tables: ExperimentTable):
    """Per-column averages: one row per data column the ``tables``
    share, one ``name=table`` mean each (the §5.2-style summaries)."""
    summary = ExperimentTable(title, [key] + list(tables))
    for label in next(iter(tables.values())).columns[1:]:
        summary.add_row(
            label, *(mean(t.column(label)) for t in tables.values())
        )
    return summary
