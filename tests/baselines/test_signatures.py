"""A controller is its name and an SLO.

Each baseline's constructor takes only what a caller varies -- the SLO
(``slo_latency``), Breakwater's ``target_delay``, the tower's
``services`` -- and every other knob is a class constant a test can
override in a subclass (:func:`tests.baselines.tuned.tuned`).
"""

import inspect

import pytest

from repro.baselines import SYSTEMS, AutothrottleTower
from repro.sim import Environment

#: The only parameters a controller constructor may take.
ALLOWED = {"env", "slo_latency", "target_delay", "services"}

#: ATROPOS is built from an ``AtroposConfig``, whose every field
#: ``repro regress check --perturb KEY=VALUE`` can set.
CONFIGURED = {"atropos"}


def _controller_class(name):
    return type(SYSTEMS[name](Environment(), 0.05, {}))


@pytest.mark.parametrize(
    "cls",
    [
        _controller_class(name) for name in SYSTEMS if name not in CONFIGURED
    ] + [AutothrottleTower],
    ids=lambda cls: cls.__name__,
)
def test_constructor_takes_only_what_a_caller_varies(cls):
    params = set(inspect.signature(cls).parameters)
    assert params <= ALLOWED, sorted(params - ALLOWED)
