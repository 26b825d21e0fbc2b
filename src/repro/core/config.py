"""Configuration for the ATROPOS controller."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class AtroposConfig:
    """Tunables for detection, estimation, policy, and cancellation.

    Defaults follow the paper's described behaviour: detection piggybacks
    on a Breakwater-style latency/throughput monitor (§3.3), cancellations
    are rate-limited by a small cooldown (§5.3), re-execution waits for
    sustained resource availability (§4), and tracing runs in a cheap
    coarse mode until overload is suspected (§3.2).
    """

    #: Latency SLO for requests, in seconds.  Detection triggers when the
    #: windowed p99 exceeds ``slo_latency * slo_slack``.
    slo_latency: float = 0.1
    #: Multiplicative tolerance on the SLO before reacting (a 20% latency
    #: increase tolerance is the paper's default in §5.3).
    slo_slack: float = 1.2
    #: Period of the overload-detection loop, seconds.
    detection_period: float = 0.05
    #: Horizon of the completion window the detector inspects, seconds.
    detection_window: float = 1.0
    #: Latency percentile the detector watches.
    latency_percentile: float = 99.0
    #: Throughput growth (fractional) below which throughput is "flat".
    flat_throughput_margin: float = 0.10
    #: Minimum completions in a window before latency stats are trusted.
    min_window_samples: int = 10

    #: Normalized contention level above which a resource counts as
    #: overloaded (fraction of execution time lost to the resource).
    contention_threshold: float = 0.25
    #: Minimum task age before it may be cancelled, seconds (don't shoot
    #: a request that just started).
    min_cancel_age: float = 0.01
    #: Resource overload additionally requires a *concentrated* culprit.
    #: For time-typed resources (lock/queue/CPU), a task qualifies when
    #: its expected future hold alone exceeds ``culprit_gain_slo_multiple
    #: * slo_latency`` -- a single request planning to keep the resource
    #: longer than the whole latency budget is a monopolist by
    #: definition.  Uniform sub-SLO gains mean the slowdown is aggregate
    #: demand (regular overload, §3.3), where cancelling any one request
    #: would be indiscriminate victim dropping.
    culprit_gain_slo_multiple: float = 1.5
    #: For quantity-typed resources (memory pages / IO bytes), gains are
    #: not SLO-comparable; concentration uses the max/median skew of
    #: positive gains instead.
    gain_skew_threshold: float = 8.0

    #: Minimum interval between consecutive cancellations, seconds (§5.3:
    #: the aggressiveness/recovery trade-off behind cases c3 and c12).
    cancel_cooldown: float = 0.05

    #: Re-execution: resource availability must hold this long before a
    #: cancelled request is retried.
    reexec_stability_window: float = 0.5
    #: Re-execution: polling period while waiting for availability.
    reexec_check_period: float = 0.1
    #: A cancelled request is dropped once its total sojourn exceeds
    #: ``slo_latency * reexec_slo_multiple`` (it can no longer meet its
    #: SLO, §4).
    reexec_slo_multiple: float = 10.0
    #: Minimum deferral before a cancelled background task is reconsidered
    #: for re-execution, seconds.  Mirrors real systems' retry naptimes
    #: (e.g. autovacuum_naptime): a cancelled maintenance task should not
    #: re-enter the moment its own absence makes the system look calm.
    background_reexec_delay: float = 10.0
    #: Background tasks have no SLO; after the deferral they are
    #: force-retried once they have waited at most this much longer.
    background_max_wait: float = 30.0

    #: Simulated cost of one traced event in coarse (sampled-timestamp)
    #: mode, seconds.  Models the rdtsc-amortization of §3.2; sized so a
    #: handful of traced events per request costs well under 1% of a
    #: millisecond-scale operation (the paper's 0.59% average).
    coarse_trace_cost: float = 4e-6
    #: Simulated cost of one traced event in fine (per-event timestamp)
    #: mode, seconds (the paper's ~7% average under overload).
    fine_trace_cost: float = 5e-5
    #: Timestamp sampling interval in coarse mode, seconds.
    timestamp_sample_interval: float = 0.01

    #: Enable the opt-in thread-level (unsafe) cancellation fallback for
    #: tasks with no application initiator (§3.6; used for Apache/PHP).
    allow_thread_level_cancel: bool = False

    #: Disable cancellation actions entirely (used by the Fig 14 overhead
    #: experiment, which measures tracing + decision cost in isolation).
    cancellation_enabled: bool = True

    #: Mitigation lever applied on a resource-overload verdict
    #: (:mod:`repro.core.levers`): ``"cancel"`` (targeted task
    #: cancellation -- the paper's action and the default, byte-identical
    #: to the pre-lever controller), ``"lock_reshape"`` (Malthusian
    #: lock-queue passivation; no work lost), or ``"composite"``
    #: (audited per-decision choice between the two).
    lever: str = "cancel"

    #: Cancellation policy id (:data:`repro.core.policy.POLICIES`):
    #: ``"multi_objective"`` (Algorithm 1, the default), or Fig 13's
    #: ablations ``"heuristic"`` and ``"current_usage"``.
    policy: str = "multi_objective"

    #: Opt-in health-driven adaptive thresholds: the controller consumes
    #: its own health-event stream (detector-flapping, p99-ceiling) and
    #: moves the *live* detection window / tail trigger between windows.
    #: Off by default; fixed-threshold runs are bit-identical to the
    #: pre-adaptive controller.
    adaptive_thresholds: bool = False
    #: Multiplier applied to the live detection window each window in
    #: which detector-flapping fires (a noisy trigger wants more
    #: evidence).
    adapt_window_widen_factor: float = 1.5
    #: Cap on the widened window, as a multiple of ``detection_window``.
    adapt_max_window_multiple: float = 4.0
    #: Subtracted from the live ``slo_slack`` after sustained p99-ceiling
    #: violations (tighten the tail trigger; react earlier).
    adapt_slack_tighten_step: float = 0.05
    #: Floor of the live ``slo_slack`` (never trigger below the SLO
    #: itself).
    adapt_min_slack: float = 1.0
    #: Consecutive p99-ceiling windows required before tightening.
    adapt_p99_sustain: int = 3
    #: Consecutive healthy windows before one recovery step back toward
    #: the configured baselines.
    adapt_recovery_windows: int = 20

    #: History-mined threshold schedule (``repro.regress.schedule``):
    #: time-ordered ``{"time", "param", "value"}`` entries applied by the
    #: adaptive policy when their time comes, as audited
    #: ``DecisionKind.ADAPT`` moves.  ``param`` is ``detection_window``
    #: or ``slo_slack``.  Requires ``adaptive_thresholds=True`` (the
    #: schedule rides the adaptation stage of the pipeline).
    history_schedule: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical configurations at construction time.

        A zero detection window or negative SLO used to surface as NaN
        percentiles or a never-firing detector deep inside a run; fail
        fast with every violated constraint named instead.
        """
        problems = []

        def positive(name):
            if getattr(self, name) <= 0:
                problems.append(
                    f"{name} must be > 0 (got {getattr(self, name)!r})"
                )

        def non_negative(name):
            if getattr(self, name) < 0:
                problems.append(
                    f"{name} must be >= 0 (got {getattr(self, name)!r})"
                )

        for name in (
            "slo_latency",
            "slo_slack",
            "detection_period",
            "detection_window",
            "contention_threshold",
            "cancel_cooldown",
            "reexec_check_period",
            "timestamp_sample_interval",
            "adapt_min_slack",
        ):
            positive(name)
        for name in (
            "flat_throughput_margin",
            "min_cancel_age",
            "culprit_gain_slo_multiple",
            "gain_skew_threshold",
            "reexec_stability_window",
            "reexec_slo_multiple",
            "background_reexec_delay",
            "background_max_wait",
            "coarse_trace_cost",
            "fine_trace_cost",
            "adapt_slack_tighten_step",
        ):
            non_negative(name)
        if not 0 < self.latency_percentile <= 100:
            problems.append(
                "latency_percentile must be in (0, 100] "
                f"(got {self.latency_percentile!r})"
            )
        if self.min_window_samples < 1:
            problems.append(
                "min_window_samples must be >= 1 "
                f"(got {self.min_window_samples!r})"
            )
        for name in ("adapt_window_widen_factor", "adapt_max_window_multiple"):
            if getattr(self, name) < 1.0:
                problems.append(
                    f"{name} must be >= 1 (got {getattr(self, name)!r})"
                )
        for name in ("adapt_p99_sustain", "adapt_recovery_windows"):
            if getattr(self, name) < 1:
                problems.append(
                    f"{name} must be >= 1 (got {getattr(self, name)!r})"
                )
        from .levers import LEVER_NAMES
        from .policy import POLICIES

        if self.lever not in LEVER_NAMES:
            problems.append(
                f"lever must be one of {', '.join(LEVER_NAMES)} "
                f"(got {self.lever!r})"
            )
        if self.policy not in POLICIES:
            problems.append(
                f"policy must be one of {', '.join(POLICIES)} "
                f"(got {self.policy!r})"
            )
        if self.history_schedule and not self.adaptive_thresholds:
            problems.append(
                "history_schedule requires adaptive_thresholds=True "
                "(schedules are applied by the adaptation stage)"
            )
        for i, entry in enumerate(self.history_schedule):
            if not isinstance(entry, dict):
                problems.append(
                    f"history_schedule[{i}] must be a dict "
                    f"(got {entry!r})"
                )
                continue
            param = entry.get("param")
            if param not in ("detection_window", "slo_slack"):
                problems.append(
                    f"history_schedule[{i}] param must be "
                    "'detection_window' or 'slo_slack' "
                    f"(got {param!r})"
                )
            time = entry.get("time")
            if not isinstance(time, (int, float)) or time < 0:
                problems.append(
                    f"history_schedule[{i}] time must be >= 0 "
                    f"(got {time!r})"
                )
            value = entry.get("value")
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"history_schedule[{i}] value must be > 0 "
                    f"(got {value!r})"
                )
        if problems:
            raise ValueError(
                "invalid AtroposConfig: " + "; ".join(problems)
            )
