"""Declarative run specifications and their cache identity.

A :class:`RunSpec` is the picklable, JSON-able description of one
simulation run: which registered simulation *family* to build
(:func:`repro.experiments.harness.register_sim`), the parameter dict the
builder receives, the seed, and optional duration/warm-up overrides.
Experiments enumerate their sweeps as RunSpecs and hand them to
:func:`repro.campaign.execute`, which runs them through a worker pool
and a content-addressed result store.

Cache identity is the SHA-256 of the *physical* run description (family
+ params + seed + duration + warmup + fault plan + config overlay) plus
the repro version and a fingerprint of the package source -- so two
experiments sharing a run (e.g. the per-case baselines of
fig9/fig10/fig12/fig13) share one cache entry, and any code change
invalidates the whole cache rather than serving stale results.  The
``experiment`` field is bookkeeping only and deliberately excluded from
the key.  docs/ARCHITECTURE.md ("Run identity") says what goes where.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from ..experiments import EXPERIMENTS
from ..sim.metrics import Summary

#: Bump when the payload layout or extras schema changes incompatibly.
#: 2: RunSpec grew the ``faults`` identity field (repro.faults) and
#: extras gained cancelled_ops / cancel_signals_dropped / fault fields.
#: 3: extras may gain health_events / telemetry fields
#: (repro.telemetry), and the windowing convention behind the cached
#: fault timeline moved to the shared ceil-based helper.
#: 4: RunSpec grew the ``adaptive`` identity field (health-driven
#: adaptive thresholds) and extras may gain adaptations / adapt_events.
#: 5: SimBuild grew custom ``runner`` callables; the new ``dag`` family
#: (microservice-DAG mesh runs) stores DagResult payloads in extras.
#: 6: extras gained the always-present ``series`` window payload plus
#: ``decision_mix`` / ``audit_mix`` digests (the ``repro regress``
#: observability surface), and the ``cluster`` family joined the
#: registry (FleetResult payloads in extras).
#: 7: RunSpec grew the ``lever`` identity field (mitigation levers,
#: :mod:`repro.core.levers`); audits carry a ``lever`` tag and the
#: ``mongodb`` app family joined the case registry (c17/c18).
#: 8: one ``overlay`` mapping replaces ``adaptive``, ``lever`` and the
#: case family's in-params overrides (a new controller knob is a new
#: overlay key, not a new field); faulted extras lost ``timeline``.
CACHE_SCHEMA = 8

_families_loaded = False


def load_all_families() -> None:
    """Import every module that registers simulation families.

    Those are the ``family`` rows of :data:`repro.experiments.EXPERIMENTS`
    -- only those, so a worker never pays for importing the rest.
    Idempotent and cheap after the first call; invoked by the runner in
    the parent and by spawn-started workers (fork-started workers
    inherit the populated registry).
    """
    global _families_loaded
    if _families_loaded:
        return
    for experiment in EXPERIMENTS:
        if experiment.family:
            import_module(f"repro.experiments.{experiment.module}")
    _families_loaded = True


_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the repro package source (path + content pairs).

    Part of every cache key: editing any ``repro`` source file yields a
    different fingerprint, so cached results can never silently outlive
    the code that produced them.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def _canonical_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize params to plain JSON types (tuples -> lists, etc.)."""
    return json.loads(json.dumps(params, sort_keys=True))


@dataclass(frozen=True)
class RunSpec:
    """One declarative, picklable simulation run.

    Attributes:
        experiment: owning experiment id (``fig2``); bookkeeping only,
            excluded from cache identity.
        family: registered sim-builder name (``fig2.point``, ``case``).
        params: JSON-able parameters handed to the builder.
        seed: RNG seed; runs are deterministic per seed.
        duration: simulated seconds (None = family default).
        warmup: summary warm-up horizon (None = family default).
        faults: optional :meth:`repro.faults.FaultPlan.to_dict` payload
            injected into the run; part of the cache identity (a faulted
            run must never share a cache entry with its clean twin).
        overlay: :class:`~repro.core.config.AtroposConfig` field ->
            value, laid over the family's own configuration of the
            ATROPOS controller it builds (``policy``,
            ``adaptive_thresholds``, ``lever``, ``slo_slack``, the
            ablation knobs, ``regress --perturb``).  Empty for every run
            that builds none.
    """

    experiment: str
    family: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    duration: Optional[float] = None
    warmup: Optional[float] = None
    faults: Optional[Dict[str, Any]] = None
    overlay: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _canonical_params(self.params))
        object.__setattr__(
            self, "overlay", _canonical_params(self.overlay or {})
        )
        if self.faults is not None:
            object.__setattr__(
                self, "faults", _canonical_params(self.faults)
            )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """The physical run description hashed into the cache key."""
        return {
            "family": self.family,
            "params": self.params,
            "seed": self.seed,
            "duration": self.duration,
            "warmup": self.warmup,
            "faults": self.faults,
            "overlay": self.overlay,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {"experiment": self.experiment, **self.identity()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        if "overlay" not in data:  # written before schema 8
            from ..experiments.case_family import upgrade_spec_dict

            data = upgrade_spec_dict(data)
        return cls(**data)

    def cache_key(self) -> str:
        """Content address of this run under the current code version."""
        from .. import __version__

        blob = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "version": __version__,
                "code": code_fingerprint(),
                "spec": self.identity(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def label(self) -> str:
        """Deterministic display label (trace and telemetry runs,
        progress lines), one per spec: ``{experiment}:{family}``, each
        param, each overlay key (as ``overlay.{key}``) and each set
        fault plan / duration / warm-up as ``key=value``, then the
        seed -- ``fig9:case:case_id=c1:system=darc:seed=0``.  A nested
        value (a fault plan, a fleet spec) shows as ``#`` and a short
        hash of its content."""
        parts = [self.experiment or self.family, self.family]
        parts += [
            f"{k}={_label_value(v)}" for k, v in sorted(self.params.items())
        ]
        parts += [
            f"overlay.{k}={_label_value(v)}"
            for k, v in sorted(self.overlay.items())
        ]
        run = {
            "faults": self.faults,
            "duration": self.duration,
            "warmup": self.warmup,
        }
        parts += [
            f"{k}={_label_value(v)}" for k, v in run.items() if v is not None
        ]
        parts.append(f"seed={self.seed}")
        return ":".join(parts)


def _label_value(value: Any) -> str:
    """A :meth:`RunSpec.label` value: a string as is, a nested one as
    ``#`` plus 8 hex digits of its content hash, else its JSON."""
    if isinstance(value, str):
        return value
    text = json.dumps(value, sort_keys=True)
    if isinstance(value, (dict, list)):
        return "#" + hashlib.sha256(text.encode()).hexdigest()[:8]
    return text


@dataclass
class RunOutcome:
    """What one executed (or cache-loaded) RunSpec produced."""

    spec: RunSpec
    summary: Summary
    extras: Dict[str, Any]
    #: In-worker wall-clock seconds spent building + simulating.
    walltime: float = 0.0
    cache_hit: bool = False
    #: Worker identity ("inline" or "pid-<n>"); diagnostic only.
    worker: str = "inline"

    # Convenience accessors mirroring RunResult ------------------------
    @property
    def throughput(self) -> float:
        return self.summary.throughput

    @property
    def p99_latency(self) -> float:
        return self.summary.p99_latency

    @property
    def drop_rate(self) -> float:
        return self.summary.drop_rate

    @property
    def cancels(self) -> int:
        return int(self.extras.get("cancels_issued", 0))

    @property
    def adaptations(self) -> int:
        """Threshold moves made by the adaptive policy (0 when fixed)."""
        return int(self.extras.get("adaptations", 0))

    @property
    def first_cancelled_op(self) -> Optional[str]:
        return self.extras.get("first_cancelled_op")

    def completed_ops(self) -> List[str]:
        """Names of operations with completed requests, sorted."""
        return sorted(self.extras.get("ops", {}))

    def mean_latency_over(self, op_names: Iterable[str]) -> float:
        """Mean completed latency over the named operations."""
        ops = self.extras.get("ops", {})
        total = 0.0
        count = 0
        for name in op_names:
            entry = ops.get(name)
            if entry:
                total += entry["latency_sum"]
                count += entry["n"]
        return total / count if count else float("nan")

    # Payload round trip ------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The JSON payload stored in the result cache."""
        from .. import __version__
        from dataclasses import asdict

        return {
            "schema": CACHE_SCHEMA,
            "repro_version": __version__,
            "spec": self.spec.to_dict(),
            "summary": asdict(self.summary),
            "extras": self.extras,
            "walltime": self.walltime,
            "worker": self.worker,
        }

    @classmethod
    def from_payload(
        cls, spec: RunSpec, payload: Dict[str, Any], cache_hit: bool
    ) -> "RunOutcome":
        return cls(
            spec=spec,
            summary=Summary(**payload["summary"]),
            extras=payload["extras"],
            walltime=payload.get("walltime", 0.0),
            cache_hit=cache_hit,
            worker=payload.get("worker", "inline"),
        )
