"""Workload specifications: arrival processes and operation mixes.

A :class:`Workload` is a set of arrival sources: open-loop Poisson
streams of a weighted operation mix (the sysbench-style foreground
load) and scheduled one-shot and periodic operations (the culprit
triggers of each case, e.g. "launch a backup query at t = 20 s").

Every source is an :class:`ArrivalSource`: ``arrivals(driver)`` is a
lazy ascending iterator of ``(absolute_time, operation_factory)``
pairs, which :meth:`repro.workloads.driver.Driver.run_workload` hands
to :meth:`~repro.workloads.driver.Driver.run_arrivals` under the
source's ``client_id`` -- the pump all load enters a run through, on
every tier.  Arrival *times* come from :func:`poisson_times` and
:func:`periodic_times`, the only copies of those loops (fleet and mesh
``build_arrivals`` included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.base import Operation
    from ..sim.rng import Rng
    from .driver import Driver

#: Factory producing a fresh Operation per arrival (so per-request params
#: can be randomized without sharing state between requests).
OperationFactory = Callable[[], "Operation"]

#: One offered request: when it arrives and how to build its operation.
Arrival = Tuple[float, OperationFactory]


def poisson_times(
    rng: "Rng", rate: Callable[[], float], start: float, stop: Optional[float]
) -> Iterator[float]:
    """Ascending Poisson arrival times in ``(start, stop)``.

    ``rate`` is a zero-argument callable read once per draw, *when the
    consumer pulls* -- a consumer that pulls the next time as it handles
    the previous one (the arrival pump) therefore follows a live rate.
    Lazy: one exponential draw per pull and nothing else, so draws the
    caller makes on the same ``rng`` between pulls keep their order.
    ``stop=None`` never ends.
    """
    exponential = rng.exponential
    t = start
    while True:
        t += exponential(1.0 / rate())
        if stop is not None and t >= stop:
            return
        yield t


def periodic_times(
    start: float, period: float, stop: Optional[float]
) -> Iterator[float]:
    """``start, start + period, ...`` (accumulated, as a clock that
    sleeps ``period`` at a time would read) while ``< stop``."""
    t = start
    while stop is None or t < stop:
        yield t
        t += period


@dataclass
class MixEntry:
    """One operation class within an open-loop mix."""

    factory: OperationFactory
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")


class ArrivalSource:
    """A source of load: ``arrivals(driver)`` yields its ascending
    ``(time, factory)`` pairs, offered as client ``client_id``."""

    client_id: str

    def arrivals(self, driver: "Driver") -> Iterator[Arrival]:
        raise NotImplementedError


@dataclass
class OpenLoopSource(ArrivalSource):
    """Poisson arrivals of a weighted operation mix.

    ``burst_factor`` is a live multiplier on :attr:`rate`, re-read each
    time the pump pulls the next arrival (i.e. at the previous arrival's
    time): :mod:`repro.faults` raises it during a ``burst`` fault window
    and restores it afterwards, giving mid-run arrival-rate spikes
    without rebuilding the workload.
    """

    rate: float  # arrivals per second
    mix: List[MixEntry]
    client_id: str = "client"
    start_time: float = 0.0
    stop_time: Optional[float] = None
    rng_stream: str = "arrivals"
    #: Live arrival-rate multiplier (fault-injection hook).
    burst_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not self.mix:
            raise ValueError("mix must not be empty")

    def arrivals(self, driver: "Driver") -> Iterator[Arrival]:
        return self.draw(
            driver.app.rng.fork(f"{self.rng_stream}:{self.client_id}")
        )

    def draw(self, rng: "Rng") -> Iterator[Arrival]:
        """The arrivals, drawn from ``rng``: per arrival one exponential
        then one weighted choice, the rate re-read at each pull."""
        # Precompiled chooser: draw-for-draw identical to weighted_choice
        # (see Rng.weighted_chooser), so the sampled sequence is unchanged.
        choose = rng.weighted_chooser(self.mix, [m.weight for m in self.mix])
        for t in poisson_times(
            rng,
            lambda: self.rate * self.burst_factor,
            self.start_time,
            self.stop_time,
        ):
            yield t, choose().factory


def poisson_arrival_stream(
    rng: "Rng",
    rate: float,
    stop_time: float,
    factory: Optional[OperationFactory] = None,
    start_time: float = 0.0,
    mix: Optional[List[MixEntry]] = None,
) -> List[Arrival]:
    """A fixed-rate Poisson stream, materialized.

    Returns ascending ``(absolute_time, operation_factory)`` pairs for
    :meth:`Driver.run_arrivals`.  Pass either a weighted ``mix`` or a
    single ``factory`` (a mix of one).  This is ``list()`` over
    :meth:`OpenLoopSource.draw`, so at the same rng, rate and mix the
    list *is* what the live source would offer.
    """
    if (factory is None) == (mix is None):
        raise ValueError("pass exactly one of factory or mix")
    if mix is None:
        mix = [MixEntry(factory, 1.0)]
    source = OpenLoopSource(
        rate, mix, start_time=start_time, stop_time=stop_time
    )
    return list(source.draw(rng))


@dataclass
class ScheduledOp(ArrivalSource):
    """A one-shot operation fired at a fixed time (culprit triggers)."""

    at: float
    factory: OperationFactory
    client_id: str = "trigger"

    def arrivals(self, driver: "Driver") -> Iterator[Arrival]:
        yield self.at, self.factory


@dataclass
class PeriodicOp(ArrivalSource):
    """An operation fired on a fixed period (background tasks, crons)."""

    period: float
    factory: OperationFactory
    client_id: str = "background"
    start_time: float = 0.0
    stop_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")

    def arrivals(self, driver: "Driver") -> Iterator[Arrival]:
        for t in periodic_times(self.start_time, self.period, self.stop_time):
            yield t, self.factory


@dataclass
class Workload:
    """A full workload: any combination of arrival sources."""

    sources: List[ArrivalSource] = field(default_factory=list)

    def add(self, source: ArrivalSource) -> "Workload":
        self.sources.append(source)
        return self
