"""Drift statistics for ``repro regress``.

Two test families, both deterministic (fixed-seed resampling, no wall
clock), both conservative by construction -- a regression gate that
flakes on noise trains people to ignore it:

* :func:`paired_series_drift` -- per-window paired deltas with a
  two-sided percentile-bootstrap confidence interval on the mean delta;
  drift requires the CI to exclude zero *and* the relative change to
  clear a tolerance (statistical significance alone is not practical
  significance on long series).
* :func:`count_drift` / :func:`scalar_drift` -- event-count and summary
  -scalar checks (two-sample Poisson z-test; relative tolerance).
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Optional, Sequence, Tuple

#: Default resamples for the bootstrap CI (deterministic: fixed seed).
BOOTSTRAP_RESAMPLES = 2000
#: Two-sided CI coverage (alpha = 0.05 -> 95% interval).
BOOTSTRAP_ALPHA = 0.05
#: Relative-change tolerance for series/scalar drift.
REL_TOL = 0.05
#: z threshold for the Poisson count test (~3 sigma, two-sided).
COUNT_Z_CRIT = 3.0
#: Count changes below this absolute size never drift (tiny-count noise).
COUNT_MIN_ABS = 3


# ----------------------------------------------------------------------
# Paired per-window series drift
# ----------------------------------------------------------------------
def bootstrap_mean_ci(
    deltas: Sequence[float],
    resamples: int = BOOTSTRAP_RESAMPLES,
    alpha: float = BOOTSTRAP_ALPHA,
    seed: int = 0,
) -> Tuple[float, float]:
    """Two-sided percentile-bootstrap CI of the mean of ``deltas``.

    Deterministic: resampling draws from ``random.Random(seed)``, so
    the same deltas always produce the same interval byte-for-byte
    (the regress verdict must be reproducible across hash seeds).
    """
    if not deltas:
        return (float("nan"), float("nan"))
    if len(deltas) == 1:
        return (deltas[0], deltas[0])
    rng = random.Random(seed)
    n = len(deltas)
    means = []
    for _ in range(max(1, resamples)):
        total = 0.0
        for _ in range(n):
            total += deltas[rng.randrange(n)]
        means.append(total / n)
    means.sort()
    lo_idx = int((alpha / 2.0) * len(means))
    hi_idx = min(len(means) - 1, int((1.0 - alpha / 2.0) * len(means)))
    return (means[lo_idx], means[hi_idx])


def paired_series_drift(
    base: Sequence[Optional[float]],
    cur: Sequence[Optional[float]],
    rel_tol: float = REL_TOL,
    resamples: int = BOOTSTRAP_RESAMPLES,
    alpha: float = BOOTSTRAP_ALPHA,
    seed: int = 0,
) -> Dict[str, Any]:
    """Drift verdict for two per-window series of equal window grid.

    Windows are paired positionally; windows where either side is
    missing (``None``/NaN -- e.g. p99 of an empty window) are skipped.
    Drift requires (a) the bootstrap CI of the mean paired delta to
    exclude zero AND (b) the relative magnitude of the mean delta to
    exceed ``rel_tol`` of the baseline's mean level.  Identical series
    short-circuit to "no drift" without resampling.
    """

    def finite(value: Optional[float]) -> bool:
        return isinstance(value, (int, float)) and value == value

    pairs = [
        (float(b), float(c))
        for b, c in zip(base, cur)
        if finite(b) and finite(c)
    ]
    out: Dict[str, Any] = {
        "n": len(pairs),
        "n_base": len(base),
        "n_cur": len(cur),
        "drifted": False,
        "mean_delta": None,
        "ci": None,
        "base_mean": None,
        "cur_mean": None,
        "rel_change": None,
    }
    if not pairs:
        # Nothing comparable; window-count mismatch is caught upstream.
        return out
    deltas = [c - b for b, c in pairs]
    base_mean = sum(b for b, _ in pairs) / len(pairs)
    cur_mean = sum(c for _, c in pairs) / len(pairs)
    mean_delta = sum(deltas) / len(deltas)
    scale = max(abs(base_mean), 1e-12)
    rel_change = mean_delta / scale
    out.update(
        mean_delta=round(mean_delta, 9),
        base_mean=round(base_mean, 9),
        cur_mean=round(cur_mean, 9),
        rel_change=round(rel_change, 9),
    )
    if all(delta == 0.0 for delta in deltas):
        out["ci"] = [0.0, 0.0]
        return out
    lo, hi = bootstrap_mean_ci(
        deltas, resamples=resamples, alpha=alpha, seed=seed
    )
    out["ci"] = [round(lo, 9), round(hi, 9)]
    excludes_zero = lo > 0.0 or hi < 0.0
    out["drifted"] = bool(excludes_zero and abs(rel_change) > rel_tol)
    return out


# ----------------------------------------------------------------------
# Count and scalar drift
# ----------------------------------------------------------------------
def count_drift(
    base: int,
    cur: int,
    z_crit: float = COUNT_Z_CRIT,
    min_abs: int = COUNT_MIN_ABS,
) -> Dict[str, Any]:
    """Two-sample Poisson z-test for event counts.

    Under the null (both counts Poisson with the same rate),
    ``z = (cur - base) / sqrt(cur + base)`` is ~N(0,1).  Drift needs
    ``|z| >= z_crit`` AND an absolute change of at least ``min_abs``
    (so 0 -> 1 health events never fails a gate on its own).
    """
    base = int(base)
    cur = int(cur)
    diff = cur - base
    total = base + cur
    z = diff / math.sqrt(total) if total > 0 else 0.0
    return {
        "base": base,
        "cur": cur,
        "z": round(z, 9),
        "drifted": bool(abs(z) >= z_crit and abs(diff) >= min_abs),
    }


def scalar_drift(
    base: Optional[float],
    cur: Optional[float],
    rel_tol: float = REL_TOL,
    abs_tol: float = 1e-9,
) -> Dict[str, Any]:
    """Relative-tolerance check for one summary scalar.

    ``None``/NaN on both sides is no drift; on exactly one side it is
    (a latency percentile appearing or vanishing is a real change).
    """

    def missing(value: Optional[float]) -> bool:
        return value is None or (
            isinstance(value, float) and value != value
        )

    out: Dict[str, Any] = {"base": base, "cur": cur, "drifted": False}
    if missing(base) and missing(cur):
        return out
    if missing(base) or missing(cur):
        out["drifted"] = True
        return out
    delta = float(cur) - float(base)
    out["delta"] = round(delta, 9)
    out["drifted"] = bool(
        abs(delta) > abs_tol + rel_tol * abs(float(base))
    )
    return out
