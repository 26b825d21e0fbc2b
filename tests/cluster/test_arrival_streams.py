"""The tier-3/4 planners pull their arrivals when due.

The load balancer and the mesh planner each hold one lazy arrival
stream (``balancer.arrival_stream``, ``dag.arrival_stream``) and pull
from it as each epoch is planned: after planning the epoch that ends
at ``t_end`` they have pulled every arrival before ``t_end`` and at
most one more.  Concatenated over the epochs, the pulls are
``build_arrivals(spec)``, which is the stream a fully built, stably
sorted list gave (the reference builders below): ties between
components keep component order, and mesh request ids follow the
merge order.
"""

import pytest

from repro.cluster import balancer, mesh
from repro.cluster.balancer import LoadBalancer
from repro.cluster.spec import demo_fleet
from repro.sim.rng import Rng
from repro.workloads.dag import build_arrivals as build_dag_arrivals
from repro.workloads.dag import dag_storm
from repro.workloads.spec import periodic_times, poisson_times


def sorted_fleet_arrivals(spec):
    """The fleet stream built whole, then stably sorted by time."""
    rng = Rng(spec.seed).fork("cluster:arrivals")
    table_rng = Rng(spec.seed).fork("cluster:tables")
    out = []
    for t in poisson_times(
        rng, lambda: spec.arrival_rate, 0.0, spec.duration
    ):
        op = "point" if rng.random() < spec.point_weight else "write"
        params = {"table": table_rng.randint(0, spec.tables - 1)}
        out.append((t, op, params, "lb"))
    for at in periodic_times(
        spec.report_start, spec.report_period, spec.duration
    ):
        out.append((at, "heavy_report", {}, "report"))
    for at in periodic_times(spec.scan_start, spec.scan_period, spec.duration):
        out.append((at, "fanout_scan", {"rows": spec.scan_rows}, "scan"))
    out.sort(key=lambda a: a[0])
    return out


def sorted_dag_arrivals(spec):
    """The mesh stream built whole, sorted, then numbered."""
    raw = []
    for cls in spec.classes:
        rng = Rng(spec.seed).fork(f"dag:arrivals:{cls.name}")
        if cls.rate > 0:
            for t in poisson_times(
                rng, lambda: cls.rate, cls.start, spec.duration
            ):
                user = rng.randint(0, cls.users - 1)
                raw.append((t, cls.name, f"{cls.name}-{user}"))
        else:
            for k, t in enumerate(
                periodic_times(cls.start, cls.period, spec.duration)
            ):
                raw.append((t, cls.name, f"{cls.name}-{k % cls.users}"))
    raw.sort(key=lambda item: (item[0], item[1], item[2]))
    return [(t, rid, name, client) for rid, (t, name, client) in enumerate(raw)]


def recording(monkeypatch, module):
    """Replace ``module.arrival_stream`` with one that notes each pull."""
    pulled = []
    stream = module.arrival_stream

    def recorded(spec):
        for arrival in stream(spec):
            pulled.append(arrival)
            yield arrival

    monkeypatch.setattr(module, "arrival_stream", recorded)
    return pulled


def assert_pulled_when_due(spec, plan, pulled, whole):
    for epoch in range(spec.epoch_count()):
        t_end = spec.epoch_end(epoch)
        plan(epoch, t_end)
        due = sum(1 for arrival in whole if arrival[0] < t_end)
        assert pulled == whole[:due + 1], (epoch, t_end)
    assert pulled == whole


def test_fleet_ties_keep_component_order(monkeypatch):
    spec = demo_fleet(
        n_nodes=3, duration=20.0, warmup=1.0,
        report_start=2.0, report_period=2.0,
        scan_start=2.0, scan_period=4.0,
    )
    whole = balancer.build_arrivals(spec)
    assert whole == sorted_fleet_arrivals(spec)
    ties = [
        (t, op) for t, op, _, _ in whole
        if op not in ("point", "write") and t in (2.0, 6.0, 10.0, 14.0, 18.0)
    ]
    assert ties == [
        (t, op) for t in (2.0, 6.0, 10.0, 14.0, 18.0)
        for op in ("heavy_report", "fanout_scan")
    ]
    pulled = recording(monkeypatch, balancer)
    lb = LoadBalancer(spec)
    assert pulled == []  # nothing is drawn before the first epoch
    assert_pulled_when_due(
        spec, lambda epoch, t_end: lb.assign(t_end), pulled, whole
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_mesh_pulls_requests_when_due(monkeypatch, seed):
    spec = dag_storm(duration=20.0, seed=seed)
    whole = build_dag_arrivals(spec)
    assert whole == sorted_dag_arrivals(spec)
    pulled = recording(monkeypatch, mesh)
    planner = mesh.Mesh(spec, "none").planner
    assert pulled == []
    assert_pulled_when_due(spec, planner.plan, pulled, whole)
