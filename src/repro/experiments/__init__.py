"""Experiment harness reproducing every table and figure of the paper.

One module per artifact:

========  ====================================================
fig2      dump queries vs buffer pool contention
fig3      table-lock contention (scan + backup convoy)
fig4      Protego / pBox / Atropos motivation comparison
fig9      Atropos vs 4 systems across all cases
fig10     mitigation effectiveness (Overload vs Atropos)
fig11     drop rate (Atropos vs Protego)
fig12     SLO maintenance under different thresholds
fig13     cancellation-policy ablation
fig14     tracing/decision overhead
table1    cancellation-support survey
table2    reproduced case inventory
table3    integration effort
========  ====================================================

All of them sweep one shape -- rows x columns of runs, each row against
a reference run -- through :class:`repro.experiments.grid.Sweep`, and
:data:`EXPERIMENTS` is the one table of what an experiment is (the CLI,
the report order, the campaign's family loader and the paper-claims
tests all read it).

Beyond the paper's artifacts, ``resilience`` runs the chaos matrix
(fault kind x intensity via :mod:`repro.faults`), ``ablate-adaptive``
compares fixed vs health-driven adaptive thresholds
(:mod:`repro.core.adaptive`), ``ablate-levers`` contrasts the
mitigation levers (cancel vs lock-reshape vs composite,
:mod:`repro.core.levers`), and ``cluster`` compares local-only vs
coordinated cross-node culprit attribution on a simulated fleet
(:mod:`repro.cluster`).  All are opt-in -- ``repro run <id>`` -- and
not part of the default ``repro all`` order; so are the three
``ablation-*`` knob sweeps and the multi-seed ``robustness`` repeat.
"""

from importlib import import_module
from inspect import signature
from typing import NamedTuple, Optional

from .harness import RunResult, normalize, run_simulation
from .tables import ExperimentResult, ExperimentTable


class Experiment(NamedTuple):
    """One row of the experiment table; calling it runs the experiment.

    The module is imported on first use: several of them import
    :mod:`repro.cases`, which itself builds on this package's harness.
    """

    id: str
    #: Module under this package (also accepted as a CLI name).
    module: str
    #: Runner attribute ``runner(quick=True, ...) -> ExperimentResult``;
    #: None for a module that only registers a sim family.
    runner: Optional[str] = "run"
    #: Part of the default ``repro all`` report, in table order.
    report: bool = False
    #: Importing the module registers a sim family, so campaign workers
    #: must import it (:func:`repro.campaign.load_all_families`).
    family: bool = False

    def accepts(self, name: str) -> bool:
        """Whether the runner takes keyword ``name``, read from its
        signature."""
        return name in signature(self._runner()).parameters

    def _runner(self):
        return getattr(import_module(f"{__name__}.{self.module}"), self.runner)

    def __call__(self, *args, **kwargs) -> ExperimentResult:
        # A runner without ``seed`` (the tables read registries,
        # ``robustness`` sweeps its own ``seeds``) is called without it,
        # so callers hand every experiment the seed alike.
        if not self.accepts("seed"):
            kwargs.pop("seed", None)
        return self._runner()(*args, **kwargs)


EXPERIMENTS = (
    # The paper's artifacts, in the order they appear in the paper.
    Experiment("fig2", "fig2_buffer_pool", report=True, family=True),
    Experiment("fig3", "fig3_lock_contention", report=True, family=True),
    Experiment("fig4", "fig4_motivation", report=True),
    Experiment("table1", "table_experiments", "run_table1", report=True),
    Experiment("table2", "table_experiments", "run_table2", report=True),
    Experiment("table3", "table_experiments", "run_table3", report=True),
    Experiment("fig9", "fig9_comparison", report=True),
    Experiment("fig10", "fig10_mitigation", report=True),
    Experiment("fig11", "fig11_drop_rate", report=True),
    Experiment("fig12", "fig12_slo", report=True),
    Experiment("fig13", "fig13_policies", report=True, family=True),
    Experiment("fig14", "fig14_overhead", report=True, family=True),
    # Beyond the paper: opt-in.
    Experiment("resilience", "resilience"),
    Experiment("ablate-adaptive", "ablate_adaptive"),
    Experiment("ablate-levers", "ablate_levers"),
    Experiment("cluster", "cluster_attribution", family=True),
    Experiment("dag", "dag_overload", family=True),
    Experiment("ablation-cooldown", "ablations", "run_cooldown"),
    Experiment("ablation-detection", "ablations", "run_detection_period"),
    Experiment("ablation-reexec", "ablations", "run_no_reexecution"),
    Experiment("robustness", "robustness"),
    # The family every case sweep above shares; no experiment of its own.
    Experiment("case", "case_family", runner=None, family=True),
)

#: experiment id -> runner callable(quick=True) -> ExperimentResult.
ALL_EXPERIMENTS = {e.id: e for e in EXPERIMENTS if e.runner is not None}


def resolve_experiment_id(name: str) -> "str | None":
    """Resolve a CLI experiment name to its id.

    Accepts the short id (``fig3``) or the runner module name
    (``fig3_lock_contention``); returns None if neither matches.
    """
    for experiment in ALL_EXPERIMENTS.values():
        if name in (experiment.id, experiment.module):
            return experiment.id
    return None


__all__ = [
    "ALL_EXPERIMENTS",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "ExperimentTable",
    "RunResult",
    "normalize",
    "resolve_experiment_id",
    "run_simulation",
]
