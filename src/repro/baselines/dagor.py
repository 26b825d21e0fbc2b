"""DAGOR-style priority/user-level admission [Zhou et al., SoCC '18].

WeChat's overload control (arxiv 1806.04075): every request carries a
*business priority* (how critical the op is) and a *user level* (a
stable hash of the client), combined into one compound priority.  Each
service keeps an **admission level** -- the highest compound priority it
still admits -- and adjusts it between windows: overloaded windows
lower the level (shedding the least-critical business class user-slice
by user-slice), healthy windows raise it one notch at a time.  The
current level is exported as *upstream feedback* so callers can shed
doomed RPCs before sending them (the mesh tier reads
:attr:`Dagor.admit_level` at epoch boundaries).

Like every baseline here it is indiscriminate about *cause*: it cannot
cancel an admitted culprit, only refuse future work, so an in-flight
heavy task keeps its resources until it finishes.

Control loop: a :class:`~repro.core.pipeline.WindowedController` whose
per-window step (:meth:`Dagor.act`) moves the live admission level
against the window's p99 and then publishes it as the window-edge
feedback snapshot.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..core.pipeline import WindowedController

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

#: Business-priority classes (0 = most critical, admitted longest).
BUSINESS_LEVELS = 4

#: Op name -> business priority.  Light point reads/writes are the
#: critical tiers; heavy bulk work is the first to be shed.  Ops not
#: listed default to :data:`DEFAULT_BUSINESS_PRIORITY`.
DEFAULT_OP_PRIORITIES: Dict[str, int] = {
    "point": 0,
    "point_select": 0,
    "select": 0,
    "search": 0,
    "get": 0,
    "write": 1,
    "row_update": 1,
    "update": 1,
    "insert": 1,
    "index": 1,
    "scan": 3,
    "fanout_scan": 3,
    "heavy_report": 3,
    "report_query": 3,
    "bulk_update": 3,
    "vacuum": 3,
    "backup": 3,
    "dump": 3,
    "long_transaction": 3,
    "slow_query": 3,
}

DEFAULT_BUSINESS_PRIORITY = 2


def user_level(client_id: str, user_levels: int) -> int:
    """Stable user partition (crc32, never Python ``hash``)."""
    base = client_id.split("|", 1)[0]
    return zlib.crc32(base.encode()) % user_levels


def compound_priority(op_name: str, client_id: str) -> int:
    """DAGOR's compound priority: ``business * user_levels + user``."""
    user_levels = Dagor.user_levels
    business = DEFAULT_OP_PRIORITIES.get(op_name, DEFAULT_BUSINESS_PRIORITY)
    return business * user_levels + user_level(client_id, user_levels)


class Dagor(WindowedController):
    """Compound-priority admission with exported upstream feedback."""

    name = "dagor"
    adjust_period = 0.2
    #: User levels per business-priority class.
    user_levels = 8
    #: Never shed the most-critical business class entirely.
    min_level = user_levels - 1
    #: Half a business class per overloaded window.
    shrink_step = max(1, user_levels // 2)
    grow_step = 1
    #: Full admission: the largest compound priority in use.
    max_level = BUSINESS_LEVELS * user_levels - 1

    def __init__(self, env: "Environment", slo_latency: float = 0.05) -> None:
        super().__init__(env)
        self.slo_latency = slo_latency
        #: Live admission level (moved at each window edge).
        self.level = self.max_level
        #: Window-edge feedback snapshot exported upstream.
        self.admit_level = self.max_level
        self.feedback_history: List[Tuple[float, int]] = []

    def act(self, now: float, signals: Dict[str, Any]) -> None:
        """Adjust the admission level, then publish it upstream.

        Overloaded window: drop the level by ``shrink_step`` compound
        notches (shedding whole user slices of the least-critical
        admitted business class).  Healthy window: raise it one notch --
        DAGOR's asymmetric probe back toward full admission.  Upstream
        callers (the mesh's epoch loop, a gateway) see the level as it
        stood at the last window edge -- the piggy-backed feedback of the
        paper -- not the live value mid-window.
        """
        # nan (an empty window) compares False: no violation.
        self.last_violation = signals["tail_latency"] > self.slo_latency
        if self.last_violation:
            self.level = max(self.min_level, self.level - self.shrink_step)
        else:
            self.level = min(self.max_level, self.level + self.grow_step)
        self.admit_level = self.level
        self.feedback_history.append((now, self.level))

    def admit(self, op_name: str, client_id: str) -> bool:
        if compound_priority(op_name, client_id) <= self.level:
            return True
        self.rejections += 1
        return False
