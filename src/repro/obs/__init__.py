"""Observability layer: structured tracing, exporters, the report kit.

``repro.obs`` is the telemetry backbone of the reproduction:

* :class:`Tracer` collects span/instant/counter events emitted by the
  DES kernel (:mod:`repro.sim`), the resource primitives
  (:mod:`repro.sim.resources`), the workload driver, and the ATROPOS
  controller.  Untraced runs use the :data:`NULL_TRACER` fast path.
  :data:`ACTIVE` is the one slot harness runs find the active tracer
  and the active telemetry session in.
* :mod:`repro.obs.export` turns the event stream into Chrome-trace JSON
  (``chrome://tracing`` / Perfetto), a per-resource utilization CSV, and
  a decision-audit JSON, and holds the HTML page kit both reports
  (:mod:`repro.telemetry.report`, :mod:`repro.regress.report`) use.
* The cancellation decision-audit trail itself lives in
  :mod:`repro.core.decision_log` (it is controller state); each audit
  payload also rides on the ``decision`` instant the lever emits, so
  exports are self-contained.

This package deliberately imports nothing from ``repro.sim`` or
``repro.core`` so the kernel can import it without cycles.
"""

from .export import (
    chrome_trace_payload,
    dumps_chrome_trace,
    render_trace_summary,
    utilization_rows,
    write_audit_json,
    write_chrome_trace,
    write_utilization_csv,
)
from .tracer import (
    ACTIVE,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    owner_label,
    tracing,
)

__all__ = [
    "ACTIVE",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace_payload",
    "dumps_chrome_trace",
    "owner_label",
    "render_trace_summary",
    "tracing",
    "utilization_rows",
    "write_audit_json",
    "write_chrome_trace",
    "write_utilization_csv",
]
