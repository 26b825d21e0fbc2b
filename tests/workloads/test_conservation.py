"""Request conservation: every offered request is accounted for.

``Driver._request`` is the only request lifecycle, so on every case,
with or without a controller, an offered request has either ended in
exactly one record or is still in flight when the run stops, and the
per-operation offered counts add up to the total.
"""

import pytest

from repro.baselines import controller_factory
from repro.cases import all_case_ids, get_case

DURATION = 3.0


@pytest.mark.parametrize("system", ["none", "atropos"])
@pytest.mark.parametrize("cid", all_case_ids())
def test_every_offered_request_is_recorded_or_in_flight(cid, system):
    case = get_case(cid)
    factory = controller_factory(
        system, case.slo_latency, atropos_overrides=case.atropos_overrides
    )
    result = case.run(controller_factory=factory, duration=DURATION)
    collector = result.collector
    assert collector.offered > 0
    assert collector.offered == (
        len(collector.records) + result.driver.inflight
    )
    assert sum(collector.offered_by_op.values()) == collector.offered
