"""The paper's claims as tests: one ``(experiment id, check)`` table.

Each row regenerates one paper artifact at the quick scale (the scale
``repro all`` and ``experiment_results.txt`` use) and asserts the
paper's ordering -- who wins, on which side of which bar -- never an
absolute number.  ``test_figures.py`` checks shapes on reduced sweeps;
this module checks the claims on the configurations the report prints.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS

pytestmark = pytest.mark.slow


def _renders(result):
    assert result.tables and result.tables[0].rows


def _fig9(result):
    # §5.2: Atropos averages 96% normalized throughput; Protego / pBox /
    # DARC / PARTIES average 50.7 / 53.9 / 36.3 / 37.8%.
    summary = result.table("summary").row_map()
    atropos_tput, atropos_p99 = summary["atropos"][1:3]
    assert atropos_tput > 0.9
    for system in ("protego", "pbox", "darc", "parties"):
        assert atropos_tput >= summary[system][1], system
    # Protego can match Atropos on raw p99, but only by shedding ~20%
    # of all requests (fig11's comparison), so it is excluded here.
    for system in ("pbox", "darc", "parties"):
        assert atropos_p99 <= summary[system][2], system


def _fig10(result):
    summary = result.table("summary").row_map()
    assert summary["avg_norm_throughput"][1] > 0.9
    assert summary["avg_drop_rate"][1] < 0.01
    for case, overload, atropos in result.table("10b").rows:
        assert atropos < overload, case


def _fig11(result):
    # Atropos drops < 0.01% of requests; Protego averages ~25%.
    summary = result.table("summary").row_map()
    assert summary["Protego"][1] > summary["Atropos"][1] * 10
    assert summary["Atropos"][1] < 0.01


def _fig13(result):
    summary = result.table("summary").row_map()
    moo_tput = summary["Multi-Objective"][1]
    assert moo_tput > 0.9
    for other in ("Heuristic", "Current Usage"):
        assert moo_tput >= summary[other][1] - 0.05, other
    # The late-culprit scenario exposes the current-usage failure mode:
    # it cancels the nearly-done report instead of the fresh dump.
    late = result.table("late-culprit").row_map()
    assert late["Multi-Objective"][3] == "dump"
    assert late["Current Usage"][3] == "report_query"
    assert late["Current Usage"][2] > late["Multi-Objective"][2]


def _fig14(result):
    # <= 1.95% throughput overhead under normal load.
    tput = result.table("14a")
    for row in tput.rows:
        cells = dict(zip(tput.columns, row))
        assert cells["Read"] > 0.9 and cells["Write"] > 0.9, row[0]


def _cooldown(result):
    # A longer cancellation cooldown must not *improve* the tail.
    p99 = result.table("p99")
    fastest = p99.column(p99.columns[1])
    slowest = p99.column(p99.columns[-1])
    assert sum(fastest) <= sum(slowest) * 1.2


def _reexecution(result):
    # Without re-execution every cancellation is a loss.
    for case, with_reexec, without in result.tables[0].rows:
        assert without >= with_reexec - 1e-9, case


def _robustness(result):
    table = result.tables[0]
    for row in table.rows:
        cells = dict(zip(table.columns, row))
        assert cells["tput_min"] > 0.85, row[0]
        assert cells["drop_max"] < 0.03, row[0]


def _table1(result):
    text = result.format()
    assert "151" in text and "76%" in text


def _rows(expected):
    def check(result):
        assert len(result.tables[0].rows) == expected

    return check


CLAIMS = [
    ("fig2", _renders),
    ("fig3", _renders),
    ("fig4", _renders),
    ("fig9", _fig9),
    ("fig10", _fig10),
    ("fig11", _fig11),
    ("fig12", _renders),
    ("fig13", _fig13),
    ("fig14", _fig14),
    ("ablation-cooldown", _cooldown),
    ("ablation-detection", _renders),
    ("ablation-reexec", _reexecution),
    ("robustness", _robustness),
    ("table1", _table1),
    ("table2", _rows(16)),
    ("table3", _rows(6)),
]


@pytest.mark.parametrize(
    "experiment, check", CLAIMS, ids=[claim[0] for claim in CLAIMS]
)
def test_paper_claim(experiment, check):
    check(ALL_EXPERIMENTS[experiment](quick=True))
