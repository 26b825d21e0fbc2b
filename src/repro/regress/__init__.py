"""Longitudinal regression observatory over cached campaign results.

``repro regress`` turns the content-addressed campaign cache into a
drift detector for the paper's headline claims: capture a named
*baseline* snapshot of the standard experiment families (per-window
p99/goodput/cancel-rate series, health-event counts, decision-audit
mixes), check any later tree against it with statistically honest
tests, and render a self-contained HTML diff.

Layers (see :mod:`repro.regress.stats` for the drift tests):

* :mod:`repro.regress.baseline` -- the checked-in JSON snapshot format.
* :mod:`repro.regress.capture` -- run the registered regress targets
  through :func:`repro.campaign.execute` and condense the outcomes.
* :mod:`repro.regress.compare` -- paired per-window bootstrap tests,
  count tests for health/decision histograms, scalar/digest checks.
* :mod:`repro.regress.report` -- side-by-side sparkline HTML diff.
* :mod:`repro.regress.schedule` -- derive per-case threshold schedules
  from baseline history (the ``HistorySchedule`` adaptive source).
"""

from .baseline import (  # noqa: F401
    DEFAULT_BASELINE_PATH,
    REGRESS_SCHEMA,
    CaseCapture,
    RegressBaseline,
)
from .capture import capture, recapture  # noqa: F401
from .compare import CaseDrift, RegressReport, compare  # noqa: F401
from .report import render_diff_report, write_diff_report  # noqa: F401
from .schedule import derive_schedule  # noqa: F401
