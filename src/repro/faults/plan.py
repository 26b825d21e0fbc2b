"""Declarative fault plans: what goes wrong, when, and for how long.

A :class:`FaultPlan` is a picklable, JSON-able schedule of faults to
inject into one simulation run.  Plans are *data*, not behaviour: the
:class:`~repro.faults.injector.FaultInjector` interprets them against a
live simulation, and :class:`~repro.campaign.spec.RunSpec` embeds their
canonical dict form in the cache identity, so a faulted run caches and
parallelizes exactly like a clean one.

Each :class:`Fault` has a ``kind`` (one of :data:`FAULT_KINDS`), an
injection time ``at`` (simulated seconds), an optional ``duration``
(``None`` = permanent; otherwise the fault is reverted at
``at + duration``), and kind-specific ``params``:

``degrade``
    Capacity loss on a named resource via its ``degrade(factor)`` hook:
    disk bandwidth/latency multipliers, CPU core loss, thread-pool or
    buffer-pool shrinkage.  Params: ``resource`` (full or dotted-suffix
    name, e.g. ``buffer_pool`` matches ``mysql.buffer_pool``), ``factor``
    (0 < factor <= 1 fraction of nominal capacity retained).
``detector-noise``
    Corrupt the tail-latency signal entering
    :class:`~repro.core.detector.OverloadDetector`.  Params: ``noise``
    (multiplicative Gaussian sigma), ``lag`` (report the signal from
    ``lag`` seconds ago), ``bias`` (constant multiplier).
``estimator-noise``
    Corrupt per-(task, resource) gains entering the
    :class:`~repro.core.estimator.Estimator`.  Params: ``noise``,
    ``bias`` as above.
``cancel-delay``
    The cancellation initiator becomes slow: delivery of every cancel
    signal is deferred.  Params: ``delay`` (seconds).
``cancel-drop``
    The initiator becomes lossy: each issued cancel signal is lost in
    flight with probability ``probability`` (the controller believes it
    cancelled; the task keeps running and may be re-targeted after the
    cooldown).  A lost signal is counted in the cancellation manager's
    ``dropped_signals``, not logged: its log holds only the cancels
    that reached their task.
``uncancellable``
    A stretch during which no task can be cancelled at all (e.g. all
    culprits inside non-interruptible sections); ``cancel()`` returns
    False for the whole window.  No params.
``burst``
    Arrival-rate spike: every open-loop source's rate is multiplied by
    ``factor`` for the window.
``partition``
    Network partition between the initiator and the task: every cancel
    signal is lost for the window, as under ``cancel-drop`` with
    probability 1.  Heals at window end.
``crash``
    Crash of the task's peer, restarted at window end when ``duration``
    is set; in a harness run it fails cancel deliveries exactly as
    ``partition`` does.

See ``docs/RESILIENCE.md`` for the schema and the mapping to the paper's
threats to validity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: kind -> (required params, optional params with defaults, description).
FAULT_KINDS: Dict[str, Tuple[Tuple[str, ...], Dict[str, Any], str]] = {
    "degrade": (
        ("resource", "factor"),
        {},
        "resource capacity loss via its degrade(factor) hook",
    ),
    "detector-noise": (
        (),
        {"noise": 0.0, "lag": 0.0, "bias": 1.0},
        "corrupt the detector's tail-latency signal (noise/lag/bias)",
    ),
    "estimator-noise": (
        (),
        {"noise": 0.0, "bias": 1.0},
        "corrupt the estimator's per-task resource gains",
    ),
    "cancel-delay": (
        ("delay",),
        {},
        "cancellation initiator delivers signals late",
    ),
    "cancel-drop": (
        ("probability",),
        {},
        "cancellation signals are lost in flight with a probability",
    ),
    "uncancellable": (
        (),
        {},
        "no task is cancellable for the window",
    ),
    "burst": (
        ("factor",),
        {},
        "open-loop arrival rates are multiplied by a factor",
    ),
    "partition": (
        (),
        {},
        "cancellation path cut; cancel deliveries fail until healed",
    ),
    "crash": (
        (),
        {},
        "task peer crashes; cancel deliveries fail until restart",
    ),
}


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: kind + window + kind-specific params.

    Instances are immutable and canonicalized (params round-tripped
    through JSON) so equal faults serialize identically -- a requirement
    for stable campaign cache keys.
    """

    kind: str
    at: float = 0.0
    duration: Optional[float] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise ValueError("fault time `at` must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("fault duration must be positive (or None)")
        required, optional, _ = FAULT_KINDS[self.kind]
        merged = dict(optional)
        merged.update(self.params)
        missing = [name for name in required if name not in merged]
        if missing:
            raise ValueError(
                f"fault {self.kind!r} missing params: {missing}"
            )
        unknown = [
            name for name in merged if name not in required and name not in optional
        ]
        if unknown:
            raise ValueError(
                f"fault {self.kind!r} got unknown params: {unknown}"
            )
        object.__setattr__(
            self, "params", json.loads(json.dumps(merged, sort_keys=True))
        )

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    @property
    def end(self) -> Optional[float]:
        """Simulated time the fault is reverted (None = permanent)."""
        if self.duration is None:
            return None
        return self.at + self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "at": self.at,
            "duration": self.duration,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Fault":
        return cls(
            kind=data["kind"],
            at=data.get("at", 0.0),
            duration=data.get("duration"),
            params=data.get("params", {}),
        )

    def describe(self) -> str:
        window = (
            f"t={self.at:g}s"
            if self.duration is None
            else f"t={self.at:g}s..{self.at + self.duration:g}s"
        )
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind} [{window}]" + (f" ({pairs})" if pairs else "")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered schedule of faults for one simulation run.

    Picklable and JSON-able; faults are kept sorted by (at, kind) so two
    plans with the same faults in any construction order are equal and
    hash to the same campaign cache key.
    """

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(
            sorted(
                self.faults,
                key=lambda f: (f.at, f.kind, json.dumps(f.params, sort_keys=True)),
            )
        )
        object.__setattr__(self, "faults", normalized)

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        return cls(faults=tuple(faults))

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def extended(self, *faults: Fault) -> "FaultPlan":
        """A new plan with extra faults appended (plans are immutable)."""
        return FaultPlan(faults=self.faults + tuple(faults))

    def kinds(self) -> List[str]:
        return sorted({f.kind for f in self.faults})

    def last_end(self) -> float:
        """Latest revert time over bounded faults (0.0 for an empty plan).

        Permanent faults contribute their injection time.  Used by the
        resilience experiment as the start of the recovery clock.
        """
        times = [f.end if f.end is not None else f.at for f in self.faults]
        return max(times, default=0.0)

    # ------------------------------------------------------------------
    # Serialization (the canonical dict embedded in RunSpec identities)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "FaultPlan":
        if not data:
            return cls()
        return cls(
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", ()))
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        if self.is_empty:
            return "(empty plan)"
        return "\n".join(f.describe() for f in self.faults)


# ----------------------------------------------------------------------
# Convenience constructors (the programmatic plan-building API)
# ----------------------------------------------------------------------

def degrade(
    resource: str, factor: float, at: float = 0.0,
    duration: Optional[float] = None,
) -> Fault:
    """Shrink a resource to ``factor`` of nominal capacity."""
    return Fault(
        "degrade", at=at, duration=duration,
        params={"resource": resource, "factor": factor},
    )


def detector_noise(
    noise: float = 0.0, lag: float = 0.0, bias: float = 1.0,
    at: float = 0.0, duration: Optional[float] = None,
) -> Fault:
    """Corrupt the detector's tail-latency input."""
    return Fault(
        "detector-noise", at=at, duration=duration,
        params={"noise": noise, "lag": lag, "bias": bias},
    )


def estimator_noise(
    noise: float = 0.0, bias: float = 1.0,
    at: float = 0.0, duration: Optional[float] = None,
) -> Fault:
    """Corrupt the estimator's per-task gains."""
    return Fault(
        "estimator-noise", at=at, duration=duration,
        params={"noise": noise, "bias": bias},
    )


def cancel_delay(
    delay: float, at: float = 0.0, duration: Optional[float] = None
) -> Fault:
    """Delay delivery of every cancel signal by ``delay`` seconds."""
    return Fault("cancel-delay", at=at, duration=duration, params={"delay": delay})


def cancel_drop(
    probability: float, at: float = 0.0, duration: Optional[float] = None
) -> Fault:
    """Lose each issued cancel signal with ``probability``."""
    return Fault(
        "cancel-drop", at=at, duration=duration,
        params={"probability": probability},
    )


def uncancellable(at: float = 0.0, duration: Optional[float] = None) -> Fault:
    """No task is cancellable during the window."""
    return Fault("uncancellable", at=at, duration=duration)


def burst(
    factor: float, at: float = 0.0, duration: Optional[float] = None
) -> Fault:
    """Multiply open-loop arrival rates by ``factor``."""
    return Fault("burst", at=at, duration=duration, params={"factor": factor})


def partition(at: float = 0.0, duration: Optional[float] = None) -> Fault:
    """Cut the cancellation path; cancel deliveries fail until healed."""
    return Fault("partition", at=at, duration=duration)


def crash(at: float = 0.0, duration: Optional[float] = None) -> Fault:
    """Crash the task's peer; cancel deliveries fail until restart."""
    return Fault("crash", at=at, duration=duration)


# ----------------------------------------------------------------------
# Preset plans (the `repro faults list` / `run --plan NAME` catalogue)
# ----------------------------------------------------------------------

#: Standard chaos window used by presets and the resilience matrix: the
#: fault lands after the warm-up + overload onset and lifts before the
#: run ends, leaving room to measure recovery.
PRESET_AT = 4.0
PRESET_DURATION = 4.0


def named_plans() -> Dict[str, FaultPlan]:
    """The built-in plan catalogue, one per fault kind plus a combo.

    Targets assume a case-family run (resources resolve by dotted
    suffix; a target missing from the app is recorded as not-applied).
    """
    window = {"at": PRESET_AT, "duration": PRESET_DURATION}
    return {
        "pool-shrink": FaultPlan.of(degrade("buffer_pool", 0.25, **window)),
        "disk-degrade": FaultPlan.of(degrade("disk", 0.25, **window)),
        "cpu-loss": FaultPlan.of(degrade("cpu", 0.5, **window)),
        "noisy-detector": FaultPlan.of(
            detector_noise(noise=0.5, lag=0.5, **window)
        ),
        "noisy-estimator": FaultPlan.of(estimator_noise(noise=0.5, **window)),
        "slow-initiator": FaultPlan.of(cancel_delay(0.25, **window)),
        "lossy-initiator": FaultPlan.of(cancel_drop(0.75, **window)),
        "uncancellable-window": FaultPlan.of(uncancellable(**window)),
        "arrival-burst": FaultPlan.of(burst(2.0, **window)),
        "partition-window": FaultPlan.of(partition(**window)),
        "crash-restart": FaultPlan.of(crash(**window)),
        "perfect-storm": FaultPlan.of(
            burst(1.5, **window),
            detector_noise(noise=0.3, **window),
            cancel_drop(0.5, **window),
        ),
    }


def resolve_plan(name_or_path: str) -> FaultPlan:
    """Resolve a preset name or a JSON file path into a plan."""
    import os

    plans = named_plans()
    if name_or_path in plans:
        return plans[name_or_path]
    if os.path.exists(name_or_path):
        with open(name_or_path) as handle:
            return FaultPlan.from_json(handle.read())
    raise KeyError(
        f"unknown fault plan {name_or_path!r}; presets: {sorted(plans)} "
        "(or pass a path to a FaultPlan JSON file)"
    )
