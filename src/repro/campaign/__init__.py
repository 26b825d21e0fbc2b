"""Parallel, cache-aware experiment campaign runner.

Turns simulation runs into declarative, picklable :class:`RunSpec`
objects and executes campaigns of them through a pool of worker
processes (:mod:`repro.workers`) backed by a content-addressed on-disk
result store (``.repro-cache/``).  Guarantees:

* **Bit-identical to serial** -- per-seed determinism is preserved and
  outcomes are merged in spec order, never completion order, so
  ``repro all --jobs 8`` produces byte-identical reports to ``--jobs 1``.
* **Warm cache is near-free** -- a repeat invocation resolves every spec
  from the store; cache keys cover the spec, the repro version, and a
  source fingerprint, so results can never outlive the code that
  produced them.

Typical use (inside an experiment module)::

    from ..campaign import RunSpec, execute

    specs = [RunSpec("fig2", "fig2.point", {"load": l, "dump_weight": w},
                     seed=seed, duration=10.0, warmup=2.0)
             for l in loads for w in weights]
    outcomes = execute(specs)          # spec order, cached, parallel

See :mod:`repro.campaign.spec` for cache identity, \
:mod:`repro.campaign.store` for the on-disk layout, and \
:mod:`repro.campaign.runner` for execution semantics.
"""

from .runner import (
    CampaignStats,
    CampaignWorkerError,
    ResolvedSettings,
    current_settings,
    execute,
    reset_session_stats,
    session_stats,
    settings,
)
from .spec import (
    CACHE_SCHEMA,
    RunOutcome,
    RunSpec,
    code_fingerprint,
    load_all_families,
)
from .store import ResultStore, StoreStats, default_cache_dir

__all__ = [
    "CACHE_SCHEMA",
    "CampaignStats",
    "CampaignWorkerError",
    "ResolvedSettings",
    "ResultStore",
    "RunOutcome",
    "RunSpec",
    "StoreStats",
    "code_fingerprint",
    "current_settings",
    "default_cache_dir",
    "execute",
    "load_all_families",
    "reset_session_stats",
    "session_stats",
    "settings",
]
