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
from typing import Tuple

from ..core.controller import BaseController
from ..sim.resources import ThreadPool


class DARC(BaseController):
    """Request-type-aware worker reservation."""

    name = "darc"
    #: Share of every worker pool reserved for the short classes.
    reserved_fraction = 0.5
    #: Request classes DARC's profiler classifies as short.
    light_classes: Tuple[str, ...] = ("light", "static", "io")

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
