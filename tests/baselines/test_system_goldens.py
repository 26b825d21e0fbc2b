"""Trajectory goldens: every system in ``baselines.SYSTEMS``, pinned.

Seda, Breakwater, and Dagor / Autothrottle as single-node controllers
appear in no experiment, no regress target and not in
``experiment_results.txt``, so this table is what pins their behaviour.
Four short cases at seed 0 and at a seed nothing else in the repo uses:

* c2: a MySQL worker-pool case where DARC and Breakwater bite;
* c5: a MySQL lock case where the admission controllers shed;
* c12: Elasticsearch CPU contention, the only case on the time-sliced
  CPU;
* c16: an etcd lock case of plain pumped requests, run past the end of
  its 5 s culprit so the recovery is pinned too.

The tuples are ``(completed, dropped, cancelled, round(p99, 9),
rejections)``, with ``None`` for the p99 of a run that completed
nothing.  The c2 / c5 rows were captured at the commit *before* the
pipeline stages were folded into their controllers, the c12 / c16 rows
at the commit before CPU slices handed their cores on without grant
events; a refactor must leave them all alone.
"""

import pytest

from repro.baselines import SYSTEMS, controller_factory
from repro.cases import get_case

#: case id -> simulated seconds (2 s of it is warm-up).
DURATIONS = {"c2": 6.0, "c5": 5.0, "c12": 6.0, "c16": 9.0}

GOLDENS = {
    ("c2", 0, "overload"): (1387, 0, 0, 0.620018289, 0),
    ("c2", 0, "atropos"): (1605, 0, 4, 0.055618648, 0),
    ("c2", 0, "protego"): (1282, 324, 0, 0.019835049, 0),
    ("c2", 0, "pbox"): (1347, 0, 0, 0.673472267, 0),
    ("c2", 0, "darc"): (1605, 0, 0, 0.007641422, 0),
    ("c2", 0, "parties"): (1330, 243, 0, 0.599055808, 243),
    ("c2", 0, "seda"): (1387, 0, 0, 0.620018289, 0),
    ("c2", 0, "breakwater"): (1387, 194, 0, 0.620018289, 194),
    ("c2", 0, "dagor"): (1387, 21, 0, 0.620018289, 21),
    ("c2", 0, "autothrottle"): (1142, 0, 0, 0.014870488, 0),
    ("c2", 7, "overload"): (1604, 0, 0, 0.081009667, 0),
    ("c2", 7, "atropos"): (1637, 0, 1, 0.019835698, 0),
    ("c2", 7, "protego"): (1551, 84, 0, 0.017704331, 0),
    ("c2", 7, "pbox"): (1598, 0, 0, 0.10442953, 0),
    ("c2", 7, "darc"): (1642, 0, 0, 0.006349076, 0),
    ("c2", 7, "parties"): (1604, 0, 0, 0.081009667, 0),
    ("c2", 7, "seda"): (1604, 0, 0, 0.081009667, 0),
    ("c2", 7, "breakwater"): (1604, 0, 0, 0.081009667, 0),
    ("c2", 7, "dagor"): (1604, 0, 0, 0.081009667, 0),
    ("c2", 7, "autothrottle"): (1538, 0, 0, 0.041200464, 0),
    ("c5", 0, "overload"): (888, 0, 0, 0.055259526, 0),
    ("c5", 0, "atropos"): (896, 0, 1, 0.016012, 0),
    ("c5", 0, "protego"): (834, 53, 0, 0.03820257, 0),
    ("c5", 0, "pbox"): (890, 0, 0, 0.032455441, 0),
    ("c5", 0, "darc"): (888, 0, 0, 0.055259526, 0),
    ("c5", 0, "parties"): (786, 110, 0, 0.041649273, 110),
    ("c5", 0, "seda"): (643, 256, 0, 0.041036383, 256),
    ("c5", 0, "breakwater"): (888, 0, 0, 0.055259526, 0),
    ("c5", 0, "dagor"): (747, 146, 0, 0.034553846, 146),
    ("c5", 0, "autothrottle"): (245, 0, 0, 1.517569796, 0),
    ("c5", 7, "overload"): (934, 0, 0, 0.084546999, 0),
    ("c5", 7, "atropos"): (945, 0, 1, 0.017224, 0),
    ("c5", 7, "protego"): (877, 67, 0, 0.038376249, 0),
    ("c5", 7, "pbox"): (944, 0, 0, 0.030224438, 0),
    ("c5", 7, "darc"): (934, 0, 0, 0.084546999, 0),
    ("c5", 7, "parties"): (830, 114, 0, 0.029397454, 114),
    ("c5", 7, "seda"): (682, 263, 0, 0.028461329, 263),
    ("c5", 7, "breakwater"): (934, 0, 0, 0.084546999, 0),
    ("c5", 7, "dagor"): (792, 153, 0, 0.029822243, 153),
    ("c5", 7, "autothrottle"): (269, 0, 0, 1.517271861, 0),
    ("c12", 0, "overload"): (1839, 0, 0, 0.0110612, 0),
    ("c12", 0, "atropos"): (1846, 0, 6, 0.007877503, 0),
    ("c12", 0, "protego"): (1844, 11, 0, 0.005842689, 0),
    ("c12", 0, "pbox"): (1839, 0, 0, 0.01089737, 0),
    ("c12", 0, "darc"): (1839, 0, 0, 0.0110612, 0),
    ("c12", 0, "parties"): (1839, 0, 0, 0.0110612, 0),
    ("c12", 0, "seda"): (1839, 0, 0, 0.0110612, 0),
    ("c12", 0, "breakwater"): (1839, 0, 0, 0.0110612, 0),
    ("c12", 0, "dagor"): (1839, 0, 0, 0.0110612, 0),
    ("c12", 0, "autothrottle"): (1839, 0, 0, 0.0110612, 0),
    ("c12", 7, "overload"): (1827, 0, 0, 0.009977752, 0),
    ("c12", 7, "atropos"): (1830, 0, 5, 0.006939285, 0),
    ("c12", 7, "protego"): (1829, 9, 0, 0.005587531, 0),
    ("c12", 7, "pbox"): (1827, 0, 0, 0.009408838, 0),
    ("c12", 7, "darc"): (1827, 0, 0, 0.009977752, 0),
    ("c12", 7, "parties"): (1827, 0, 0, 0.009977752, 0),
    ("c12", 7, "seda"): (1827, 0, 0, 0.009977752, 0),
    ("c12", 7, "breakwater"): (1827, 0, 0, 0.009977752, 0),
    ("c12", 7, "dagor"): (1827, 0, 0, 0.009977752, 0),
    ("c12", 7, "autothrottle"): (1827, 0, 0, 0.009977752, 0),
    ("c16", 0, "overload"): (1392, 0, 0, 4.926602941, 0),
    ("c16", 0, "atropos"): (1758, 0, 1, 0.011733687, 0),
    ("c16", 0, "protego"): (981, 778, 0, 0.025746838, 0),
    ("c16", 0, "pbox"): (0, 0, 0, None, 0),
    ("c16", 0, "darc"): (1392, 0, 0, 4.926602941, 0),
    ("c16", 0, "parties"): (535, 1224, 0, 4.960836125, 1224),
    ("c16", 0, "seda"): (1392, 82, 0, 4.926602941, 82),
    ("c16", 0, "breakwater"): (853, 906, 0, 4.946429029, 906),
    ("c16", 0, "dagor"): (1657, 102, 0, 4.926050696, 102),
    ("c16", 0, "autothrottle"): (624, 0, 0, 4.957793341, 0),
    ("c16", 7, "overload"): (1413, 0, 0, 4.96449052, 0),
    ("c16", 7, "atropos"): (1805, 0, 1, 0.014790247, 0),
    ("c16", 7, "protego"): (1032, 774, 0, 0.025774433, 0),
    ("c16", 7, "pbox"): (1, 0, 0, 0.005633892, 0),
    ("c16", 7, "darc"): (1413, 0, 0, 4.96449052, 0),
    ("c16", 7, "parties"): (565, 1241, 0, 4.979485789, 1241),
    ("c16", 7, "seda"): (1413, 31, 0, 4.96449052, 31),
    ("c16", 7, "breakwater"): (815, 991, 0, 4.972604698, 991),
    ("c16", 7, "dagor"): (1413, 80, 0, 4.96449052, 80),
    ("c16", 7, "autothrottle"): (790, 0, 0, 4.972847747, 0),
}


def test_every_system_is_pinned_on_every_row():
    assert {name for _, _, name in GOLDENS} == set(SYSTEMS)
    assert len(GOLDENS) == len(DURATIONS) * 2 * len(SYSTEMS)


def test_each_system_differs_from_uncontrolled_somewhere():
    # A golden equal to the uncontrolled run on every row would pin
    # nothing about the controller.
    for name in SYSTEMS:
        if name == "overload":
            continue
        assert any(
            GOLDENS[case, seed, name] != GOLDENS[case, seed, "overload"]
            for case, seed, other in GOLDENS
            if other == name
        ), name


@pytest.mark.parametrize(
    "case_id,seed,name", list(GOLDENS), ids=lambda v: str(v)
)
def test_trajectory_matches_golden(case_id, seed, name):
    case = get_case(case_id)
    result = case.run(
        controller_factory(
            name, case.slo_latency, atropos_overrides=case.atropos_overrides
        ),
        seed=seed,
        duration=DURATIONS[case_id],
    )
    s = result.summary
    p99 = round(s.p99_latency, 9)
    assert (
        s.completed,
        s.dropped,
        s.cancelled,
        p99 if p99 == p99 else None,  # NaN: nothing completed
        getattr(result.controller, "rejections", 0),
    ) == GOLDENS[case_id, seed, name]
