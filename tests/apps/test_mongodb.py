"""Tests for the MongoDB backend's operations."""

import time

from repro.apps import MongoDB
from repro.apps.base import Operation
from repro.core import NullController
from repro.sim import Environment, Rng


def test_bulk_insert_of_a_fractional_document_count_finishes():
    """The last batch of ``docs=2000.5`` is half a document: it inserts
    one, so the loop ends instead of spinning at one simulated instant.
    Stepped under a host deadline, so a regression fails, not hangs."""
    env = Environment()
    app = MongoDB(env, NullController(env), Rng(0))
    prewarmed = app.doc_cache.total_misses
    task = app.controller.create_cancel()
    op = Operation("bulk_insert", {"docs": 2000.5})
    proc = env.process(app.execute(task, op))
    deadline = time.monotonic() + 10.0
    while not proc.triggered:
        assert time.monotonic() < deadline, f"stuck at t={env.now}"
        env.step()
    assert env.now < 1.0
    assert app.doc_cache.total_misses - prewarmed == 2001
    # Everything the insert drove in is released when it ends.
    assert app.doc_cache.total_released_docs == 2001
    assert app.doc_cache.owner_docs(task) == 0
    assert task.progress_model.rows_processed == 2000.5
