"""The sweep grid with a stubbed ``execute``: order, positions, labels."""

from types import SimpleNamespace

import pytest

from repro.campaign import RunSpec
from repro.experiments import grid
from repro.experiments.grid import Sweep, attr, column_means, norm_p99, norm_tput


def spec(row, column):
    return RunSpec("t", "stub", {"row": row, "column": column})


def outcome(of: RunSpec):
    """A stand-in outcome whose numbers name the spec that produced it."""
    row, column = of.params["row"], of.params["column"]
    return SimpleNamespace(
        spec=of,
        throughput=float(row * 10 + (column or 0)),
        p99_latency=float(row * 100 + (column or 0)),
    )


@pytest.fixture
def batches(monkeypatch):
    """Every spec list handed to ``execute``, one entry per batch."""
    handed = []

    def execute(specs):
        handed.append(list(specs))
        return [outcome(s) for s in specs]

    monkeypatch.setattr(grid, "execute", execute)
    return handed


def test_one_batch_row_major_reference_first(batches):
    Sweep("row", [1, 2], [3, 4], spec, reference=lambda row: spec(row, None))
    assert batches == [
        [spec(1, None), spec(1, 3), spec(1, 4),
         spec(2, None), spec(2, 3), spec(2, 4)]
    ]


def test_cells_reference_and_labels_land_in_their_positions(batches):
    sweep = Sweep(
        "row", [1, 2], [3, 4], spec,
        reference=lambda row: spec(row, None),
        label="col_{}".format,
    )
    assert sweep.cells[2, 3].spec == spec(2, 3)
    assert sweep.references[2].spec == spec(2, None)
    table = sweep.table(
        "pairs", lambda o, ref: (o.spec.params, ref.spec.params)
    )
    assert table.columns == ["row", "col_3", "col_4"]
    assert table.rows == [
        [row] + [
            (spec(row, column).params, spec(row, None).params)
            for column in (3, 4)
        ]
        for row in (1, 2)
    ]


def test_without_a_reference_cells_see_none(batches):
    sweep = Sweep("row", [1], [3, 4], spec)
    assert batches == [[spec(1, 3), spec(1, 4)]]
    assert sweep.references == {1: None}
    seen = []
    sweep.table("t", lambda o, ref: seen.append(ref))
    assert seen == [None, None]


def test_references_from_an_earlier_batch_can_be_assigned(batches):
    earlier = {1: outcome(spec(1, None)), 2: outcome(spec(2, None))}
    sweep = Sweep("row", [1, 2], [3], spec)
    sweep.references = earlier  # fig12: phase 2 against phase 1
    assert batches == [[spec(1, 3), spec(2, 3)]]
    assert sweep.table("t", norm_tput).rows == [[1, 1.3], [2, 23.0 / 20.0]]


def test_case_sweep_is_cases_by_variants_against_the_baseline(monkeypatch):
    from repro.experiments.case_family import case_spec
    from repro.experiments.grid import case_sweep

    handed = []
    monkeypatch.setattr(
        grid, "execute", lambda specs: handed.append(specs) or list(specs)
    )
    sweep = case_sweep(
        "t", ["c1", "c2"], ["atropos", "pbox"], 3,
        lambda system: {"system": system},
    )
    assert sweep.key == "case"
    assert handed == [[
        case_spec("t", cid, 3, **kwargs)
        for cid in ("c1", "c2")
        for kwargs in ({"include_culprit": False},
                       {"system": "atropos"}, {"system": "pbox"})
    ]]
    case_sweep("t", ["c1"], ["x"], 0, lambda _: {}, baseline=False)
    assert handed[-1] == [case_spec("t", "c1", 0)]


def test_shared_cells_and_column_means(batches):
    sweep = Sweep("row", [1, 3], [5], spec, reference=lambda r: spec(r, None))
    tput = sweep.table("tput", norm_tput)
    p99 = sweep.table("p99", norm_p99)
    assert tput.rows == [[1, 15.0 / 10.0], [3, 35.0 / 30.0]]
    assert p99.rows == [[1, 105.0 / 100.0], [3, 305.0 / 300.0]]
    assert sweep.table("raw", attr("throughput")).column("5") == [15.0, 35.0]
    means = column_means("avg", "column", avg_tput=tput, avg_p99=p99)
    assert means.columns == ["column", "avg_tput", "avg_p99"]
    assert means.rows == [
        ["5", (1.5 + 35.0 / 30.0) / 2, (1.05 + 305.0 / 300.0) / 2]
    ]
