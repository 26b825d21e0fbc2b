"""DARC baseline [Demoulin et al., SOSP '21 -- Perséphone].

DARC profiles request service times by type and *dedicates* cores/workers
to short request classes so they are never blocked behind long requests.
On our substrate this maps to worker-pool reservations for the "light"
classes.  DARC helps thread-pool monopolization cases, but cannot address
held locks, buffer-pool thrash, or GC pressure -- no amount of worker
partitioning releases a held resource.

Control loop: none.  DARC acts once, in :meth:`DARC.bind`, and starts
no monitor process.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from ..core.controller import BaseController
from ..sim.resources import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.environment import Environment

#: Request classes DARC's profiler classifies as short.
LIGHT_CLASSES: Tuple[str, ...] = ("light", "static", "io")


class DARC(BaseController):
    """Request-type-aware worker reservation."""

    name = "darc"

    def __init__(
        self,
        env: "Environment",
        reserved_fraction: float = 0.5,
        light_classes: Tuple[str, ...] = LIGHT_CLASSES,
    ) -> None:
        if not 0.0 < reserved_fraction < 1.0:
            raise ValueError("reserved_fraction must be in (0, 1)")
        super().__init__(env)
        self.reserved_fraction = reserved_fraction
        self.light_classes = light_classes

    def bind(self, app) -> None:
        """Reserve a share of every worker pool for short classes.

        The profiling step of DARC (measuring per-type service times)
        is encoded in the class names the application already submits
        with: "light"/"static" classes are the profiled-short ones.
        """
        for pool in app.resources():
            if isinstance(pool, ThreadPool):
                reserve = max(
                    1, math.floor(pool.workers * self.reserved_fraction)
                )
                # Never reserve every worker: heavy requests must be able
                # to run, else the system deadlocks by policy.
                reserve = min(reserve, pool.workers - 1)
                if reserve <= 0:
                    continue
                # One shared reservation for all profiled-short classes.
                pool.reserve(self.light_classes, reserve)
