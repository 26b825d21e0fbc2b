"""Worker processes over pipes: the one place that forks.

:class:`Workers` starts ``count`` daemonic processes (fork where the
platform has it, else spawn), each running one serve loop: build a
handler once with ``setup(index, *args)``, then answer every message
with ``handler(message)`` -- or, when that raises, with the exception
and its formatted traceback (a ``setup`` that raised answers every
message that way) -- until told to stop.  The parent sends,
receives from a worker it names, or waits for whichever replies first;
a reply that is not a value raises one :class:`WorkerFailure` saying
how the worker failed (its exit code, or what it raised).

Two users sit on top: the campaign pool
(:func:`repro.campaign.runner._run_pool`, an idle worker takes the next
spec) and the shard pool (:class:`repro.cluster.epoch.ShardPool`, every
worker takes one message per epoch).  Each renames the failure for what
its workers were doing.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, List, Optional, Sequence

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def can_fork() -> bool:
    """May this process fork-start workers?  Not on a platform without
    the fork start method, and not from inside a worker: daemonic
    processes may not have children."""
    return _HAS_FORK and not multiprocessing.current_process().daemon


class RemoteTraceback(Exception):
    """The cause chained under an exception re-raised from a worker: the
    traceback as the worker formatted it."""


class WorkerFailure(RuntimeError):
    """A worker died without replying (``exitcode``), or its handler
    raised (``text`` is the formatted traceback; ``exc`` the exception,
    or None when it could not cross the pipe)."""

    def __init__(
        self,
        exitcode: Optional[int] = None,
        exc: Optional[BaseException] = None,
        text: str = "",
    ) -> None:
        self.exitcode = exitcode
        self.exc = exc
        self.text = text
        super().__init__(
            f"worker raised\n{text}" if text
            else f"worker died without replying (exit code {exitcode})"
        )


def _failed(exc: Exception) -> tuple:
    """The reply for an exception being handled: the exception if it can
    cross the pipe (else None) and its formatted traceback."""
    text = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = None
    return (None, exc, text)


def _serve(conn, setup, index, args) -> None:  # pragma: no cover - child
    """Worker process: answer messages until sent ``None``.

    A ``setup`` that raises makes its failure the reply to every
    message, so the parent raises it like a handler's, and the worker
    stays up until told to stop (a parent sending to an exited worker
    would see only a broken pipe).
    """
    try:
        handler = setup(index, *args)
    except Exception as exc:
        failure = _failed(exc)
        for _ in iter(conn.recv, None):
            conn.send(failure)
        return
    for message in iter(conn.recv, None):
        try:
            reply = (handler(message), None, "")
        except Exception as exc:
            reply = _failed(exc)
        conn.send(reply)


class Workers:
    """``count`` worker processes, each serving ``setup(index, *args)``.

    Use as a context manager: leaving it normally stops the workers,
    leaving it on an exception terminates them (nothing waits for work
    in flight).  Spawn-started workers pickle ``setup`` and ``args``.
    """

    def __init__(self, count: int, setup: Callable, *args: Any) -> None:
        ctx = multiprocessing.get_context("fork" if _HAS_FORK else "spawn")
        self.pipes: List[Any] = []
        self.procs: List[Any] = []
        for index in range(count):
            pipe, child = ctx.Pipe()
            proc = ctx.Process(
                target=_serve, args=(child, setup, index, args), daemon=True
            )
            proc.start()
            child.close()
            self.pipes.append(pipe)
            self.procs.append(proc)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(terminate=exc_type is not None)

    def send(self, worker: int, message: Any) -> None:
        """Hand ``message`` (anything but None) to one worker."""
        self.pipes[worker].send(message)

    def recv(self, worker: int) -> Any:
        """The worker's reply to its oldest unanswered message."""
        try:
            value, exc, text = self.pipes[worker].recv()
        except EOFError:
            self.procs[worker].join(timeout=10)
            raise WorkerFailure(self.procs[worker].exitcode) from None
        if text:
            raise WorkerFailure(exc=exc, text=text)
        return value

    def wait_any(self, workers: Sequence[int]) -> List[int]:
        """Block until at least one of ``workers`` has a reply (or has
        died); the ones that do."""
        ready = wait([self.pipes[worker] for worker in workers])
        return [worker for worker in workers if self.pipes[worker] in ready]

    def close(self, terminate: bool = False) -> None:
        """Stop (or kill) every worker and reap it.  Idempotent."""
        for pipe, proc in zip(self.pipes, self.procs):
            if terminate:
                proc.terminate()
            else:
                try:
                    pipe.send(None)
                except OSError:  # the worker is already gone
                    pass
            pipe.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - a stuck handler
                proc.terminate()
                proc.join()
        self.pipes, self.procs = [], []
