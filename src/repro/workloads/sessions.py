"""Connection-scoped cancellable tasks (paper §3.1, Figure 7).

The paper's MySQL integration groups *all requests from one client
connection* into a single cancellable task (``createCancel(thd->id)`` at
connect, ``freeCancel`` at disconnect): resource usage accumulates per
connection and a cancellation kills whatever the connection is doing.

:class:`ConnectionSource` provides that granularity on the workload
side, behind the same ``start(driver)`` protocol as the sources in
:mod:`repro.workloads.spec`: a fixed population of connections, each
registering one cancellable task for its lifetime and running a closed
loop of operations under it.  A cancellation unwinds the in-flight operation and
drops the connection; the client reconnects (with a fresh,
non-cancellable task, per the fairness rule) after ``reconnect_delay``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, List, Optional

from ..core.types import CancelSignal, DropRequest, TaskKind
from ..sim.errors import Interrupt
from ..sim.metrics import RequestRecord, RequestStatus
from .spec import MixEntry

if TYPE_CHECKING:  # pragma: no cover
    from .driver import Driver

_record_seq = count(1)


@dataclass
class ConnectionSource:
    """A population of long-lived connections, one cancellable task each."""

    connections: int
    mix: List[MixEntry]
    think_time: float = 0.0
    #: Delay before a cancelled connection reconnects.
    reconnect_delay: float = 0.1
    client_prefix: str = "conn"
    start_time: float = 0.0
    stop_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.connections <= 0:
            raise ValueError("connections must be positive")
        if not self.mix:
            raise ValueError("mix must not be empty")
        if self.reconnect_delay < 0:
            raise ValueError("reconnect_delay must be non-negative")

    def start(self, driver: "Driver") -> None:
        for i in range(self.connections):
            driver.env.process(self._connection(driver, i))

    def _stopped(self, env) -> bool:
        return self.stop_time is not None and env.now >= self.stop_time

    def _connection(self, driver: "Driver", index: int):
        env = driver.env
        controller = driver.controller
        client_id = f"{self.client_prefix}-{index}"
        rng = driver.app.rng.fork(f"session:{client_id}")
        weights = [m.weight for m in self.mix]
        if self.start_time > 0:
            yield env.timeout(self.start_time)
        reconnects = 0
        while not self._stopped(env):
            # One cancellable task for the whole connection (Figure 7);
            # after a cancellation the reconnected session is exempt from
            # further cancellations (fairness, §4).
            task = controller.create_cancel(
                key=client_id,
                kind=TaskKind.REQUEST,
                client_id=client_id,
                op_name="connection",
                cancellable=reconnects == 0,
            )
            inflight_op = None
            arrival = env.now
            try:
                while not self._stopped(env):
                    entry = rng.weighted_choice(self.mix, weights)
                    inflight_op = entry.factory()
                    driver.collector.note_offered()
                    arrival = env.now
                    try:
                        yield from driver.app.execute(task, inflight_op)
                    except DropRequest:
                        self._record(
                            driver, inflight_op, client_id, arrival,
                            RequestStatus.DROPPED, reconnects,
                        )
                        inflight_op = None
                        continue
                    self._record(
                        driver, inflight_op, client_id, arrival,
                        RequestStatus.COMPLETED, reconnects,
                    )
                    inflight_op = None
                    if self.think_time > 0:
                        yield env.timeout(rng.exponential(self.think_time))
            except Interrupt as exc:
                if not isinstance(exc.cause, CancelSignal):
                    raise
                # The whole connection was cancelled: an in-flight op (if
                # any) is lost; a cancellation during think time loses no
                # work.  The client reconnects after a delay either way.
                if inflight_op is not None:
                    self._record(
                        driver, inflight_op, client_id, arrival,
                        RequestStatus.CANCELLED, reconnects,
                    )
                reconnects += 1
                controller.free_cancel(task)
                yield env.timeout(self.reconnect_delay)
                continue
            finally:
                controller.free_cancel(task)

    def _record(self, driver, op, client_id, arrival, status, retries):
        record = RequestRecord(
            request_id=next(_record_seq),
            op_name=op.name,
            client_id=client_id,
            arrival_time=arrival,
            finish_time=driver.env.now,
            status=status,
            retries=retries,
        )
        driver.collector.record(record)
        driver.controller.observe_completion(record)
