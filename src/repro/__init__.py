"""Reproduction of ATROPOS (SOSP 2025): overload control via targeted
task cancellation.

Package map:

* :mod:`repro.core` -- the ATROPOS framework: cancellable tasks, resource
  tracing, overload detection, contention/gain estimation, the
  multi-objective cancellation policy, and safe cancellation handling.
* :mod:`repro.sim` -- the discrete-event simulation kernel and resource
  primitives everything runs on.
* :mod:`repro.apps` -- seven simulated applications (MySQL, PostgreSQL,
  Apache, Elasticsearch, Solr, etcd, MongoDB) instrumented with the
  ATROPOS APIs.
* :mod:`repro.baselines` -- Protego, pBox, DARC, PARTIES, SEDA,
  Breakwater, DAGOR, Autothrottle.
* :mod:`repro.workloads` -- open-loop workload generation and the
  request-lifecycle driver.
* :mod:`repro.cases` -- the 16 reproduced real-world overload cases of
  Table 2 and two extension cases (18 in all).
* :mod:`repro.cluster` -- the N-node fleet and the microservice mesh.
* :mod:`repro.experiments` -- runners regenerating every paper figure
  and table; :mod:`repro.campaign` runs them in parallel from a cache.
* :mod:`repro.obs`, :mod:`repro.telemetry` -- tracing, scraped metrics,
  health rules and exports.
* :mod:`repro.faults` -- declarative fault injection.
* :mod:`repro.regress` -- the regression observatory over cached runs.
* :mod:`repro.study` -- the 151-application cancellation survey.
"""

from .core import (
    Atropos,
    AtroposConfig,
    CancellableTask,
    MultiObjectivePolicy,
    NullController,
    ResourceType,
    TaskKind,
)
from .sim import Environment, Rng

__version__ = "1.0.0"

__all__ = [
    "Atropos",
    "AtroposConfig",
    "CancellableTask",
    "Environment",
    "MultiObjectivePolicy",
    "NullController",
    "ResourceType",
    "Rng",
    "TaskKind",
    "__version__",
]
