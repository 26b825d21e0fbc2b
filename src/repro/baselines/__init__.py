"""Baseline overload-control / isolation systems the paper compares against.

All baselines implement the shared :class:`~repro.core.controller.
BaseController` interface so they run on the same instrumented
applications (§5.1's integration methodology):

* :class:`Protego` -- lock-contention-aware victim dropping (NSDI '23).
* :class:`PBox` -- per-request performance isolation via penalties
  (SOSP '23).
* :class:`DARC` -- request-type-aware worker reservation (SOSP '21).
* :class:`Parties` -- per-client incremental resource partitioning
  (ASPLOS '19).
* :class:`Seda` -- classic AIMD admission control (USITS '03).
* :class:`Breakwater` -- credit-based admission on queueing delay
  (OSDI '20).
* :class:`Dagor` -- WeChat's priority/user-level admission with
  upstream feedback (SoCC '18).
* :class:`Autothrottle` -- bi-level latency-target throttling
  (per-service fast loop + global tower, NSDI '24).
"""

from ..core.atropos import Atropos
from ..core.config import AtroposConfig
from ..core.controller import NullController
from .autothrottle import Autothrottle, AutothrottleTower
from .breakwater import Breakwater
from .dagor import Dagor
from .darc import DARC
from .parties import Parties
from .pbox import PBox
from .protego import Protego
from .seda import Seda

__all__ = [
    "Autothrottle",
    "AutothrottleTower",
    "Breakwater",
    "DARC",
    "Dagor",
    "PBox",
    "Parties",
    "Protego",
    "SYSTEMS",
    "Seda",
]

#: System name -> constructor(env, slo_latency, atropos_overrides): the
#: one list of systems, read by :func:`controller_factory`, the CLI's
#: ``--system`` choices (in this order) and the tests.
SYSTEMS = {
    "overload": lambda env, slo, overrides: NullController(env),
    "atropos": lambda env, slo, overrides: Atropos(
        env, AtroposConfig(slo_latency=slo, **overrides)
    ),
    "protego": lambda env, slo, overrides: Protego(env, slo_latency=slo),
    "pbox": lambda env, slo, overrides: PBox(env, slo_latency=slo),
    "darc": lambda env, slo, overrides: DARC(env),
    "parties": lambda env, slo, overrides: Parties(env, slo_latency=slo),
    "seda": lambda env, slo, overrides: Seda(env, slo_latency=slo),
    "breakwater": lambda env, slo, overrides: Breakwater(
        env, target_delay=slo
    ),
    "dagor": lambda env, slo, overrides: Dagor(env, slo_latency=slo),
    "autothrottle": lambda env, slo, overrides: Autothrottle(
        env, slo_latency=slo
    ),
}


def controller_factory(
    name: str, slo_latency: float = 0.05, atropos_overrides: dict = None
):
    """Build a controller factory by system name: the one place a
    system name becomes a controller (cases, figures, fleet and mesh).

    Recognized names: the keys of :data:`SYSTEMS`, plus "none" for
    "overload" (uncontrolled); anything else is a ValueError.
    ``atropos_overrides`` are extra :class:`AtroposConfig` fields (a
    case's own overrides, a spec's overlay, the cancellation
    ``policy``); other systems ignore them.
    """
    name = name.lower()
    try:
        constructor = SYSTEMS["overload" if name == "none" else name]
    except KeyError:
        raise ValueError(f"unknown controller {name!r}") from None
    return lambda env: constructor(env, slo_latency, atropos_overrides or {})
