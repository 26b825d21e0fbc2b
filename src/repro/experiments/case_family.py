"""The ``case`` simulation family: campaign specs over the 18 cases.

Most figures sweep the reproduced overload cases (fig9-fig13, the
ablations, robustness), varying only the controller configuration.  This
module registers one builder covering every variant so all of them share
cache entries for identical runs (e.g. the per-case non-overloaded
baseline fig9, fig10, fig12, and fig13 all need).

Recognized params (all JSON-able):

``case_id``
    Required; one of :func:`repro.cases.all_case_ids`.
``include_culprit``
    Default True; False = the non-overloaded baseline workload.
``system``
    Baseline-system name for :func:`repro.baselines.controller_factory`
    (``atropos``, ``protego``, ...).  None = uncontrolled.
``slo_latency``
    SLO override (default: the case's own SLO).

What else configures ATROPOS is not a param: it is the spec's
``overlay`` (docs/ARCHITECTURE.md, "Run identity"), merged over the
case's own ``atropos_overrides``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from ..campaign.runner import ambient
from ..campaign.spec import RunSpec
from ..faults.plan import FaultPlan
from .harness import SimBuild, register_sim

#: The params :func:`build_case` reads.
CASE_PARAMS = {"case_id", "include_culprit", "system", "slo_latency"}


@register_sim("case")
def build_case(
    params: Dict[str, Any], overlay: Optional[Dict[str, Any]] = None
) -> SimBuild:
    from ..baselines import controller_factory
    from ..cases import get_case

    case = get_case(params["case_id"])
    include_culprit = params.get("include_culprit", True)
    system = params.get("system")
    slo_latency = params.get("slo_latency", case.slo_latency)

    factory = system and controller_factory(
        system, slo_latency, {**case.atropos_overrides, **(overlay or {})}
    )

    def workload(app, rng):
        return case.workload_factory(app, rng, include_culprit)

    return SimBuild(
        app_factory=case.app_factory,
        workload_factory=workload,
        controller_factory=factory,
        duration=case.duration,
        warmup=case.warmup,
    )


def case_spec(
    experiment: str,
    case_id: str,
    seed: int = 0,
    faults=None,
    overlay: Optional[Dict[str, Any]] = None,
    **params,
) -> RunSpec:
    """Convenience constructor for ``case`` RunSpecs.

    Params equal to their defaults are omitted so physically identical
    runs hash identically across experiments (shared cache entries).
    ``faults`` may be a :class:`repro.faults.FaultPlan` or its
    ``to_dict()`` payload; empty plans are treated as no faults.
    An ``overlay`` with no ``system`` means ``atropos``;
    an overlay on any other system is an error.  Under ``--adaptive``
    (:func:`repro.campaign.settings`) every spec that builds ATROPOS
    gets ``adaptive_thresholds`` overlaid, and only those.
    """
    clean = {"case_id": case_id}
    for key, value in params.items():
        if key == "include_culprit" and value is True:
            continue
        if value is None:
            continue
        clean[key] = value
    if not CASE_PARAMS.issuperset(clean):
        raise TypeError(
            f"not case params: {sorted(set(clean) - CASE_PARAMS)}; "
            "ATROPOS config goes in overlay="
        )
    if overlay:
        clean.setdefault("system", "atropos")
    if overlay and clean["system"] != "atropos":
        raise ValueError(
            f"overlay {overlay!r} on system {clean['system']!r}: only "
            "ATROPOS takes one"
        )
    if isinstance(faults, FaultPlan):
        faults = faults.to_dict()
    if faults and not faults.get("faults"):
        faults = None
    spec = RunSpec(
        experiment=experiment,
        family="case",
        params=clean,
        seed=seed,
        faults=faults,
        overlay=overlay,
    )
    if ambient("adaptive"):
        spec = overlaid(spec, {"adaptive_thresholds": True})
    return spec


def overlaid(spec: RunSpec, overrides: Dict[str, Any]) -> RunSpec:
    """``spec`` with ``overrides`` merged into its overlay -- when it
    builds ATROPOS; any other spec comes back as is, under its own key
    (``--adaptive``, ``regress --perturb``)."""
    if spec.family != "case" or spec.params.get("system") != "atropos":
        return spec
    return replace(spec, overlay={**spec.overlay, **overrides})


def upgrade_spec_dict(data: Dict[str, Any]) -> Dict[str, Any]:
    """A ``RunSpec.to_dict()`` written before cache schema 8, in today's
    shape (``REGRESS_BASELINE.json`` holds such dicts).  ATROPOS config
    then reached a run by four routes: the ``atropos_overrides`` and
    ``policy`` params, whose presence selected ATROPOS whatever
    ``system`` said, and the spec fields ``adaptive`` / ``lever``, which
    every other system ignored."""
    data = dict(data)
    adaptive, lever = data.pop("adaptive", False), data.pop("lever", None)
    if data["family"] != "case":
        return {**data, "overlay": {}}
    params = dict(data["params"])
    overlay = params.pop("atropos_overrides", None)
    policy = params.pop("policy", None)
    if overlay is not None or policy is not None:
        params["system"] = "atropos"
    overlay = dict(overlay or {})
    if params.get("system") == "atropos":
        if policy is not None:
            overlay["policy"] = policy
        if adaptive:
            overlay["adaptive_thresholds"] = True
        if lever:
            overlay["lever"] = lever
    return {**data, "params": params, "overlay": overlay}
