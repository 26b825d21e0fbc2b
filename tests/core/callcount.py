"""Deterministic work counts for the overhead guards (test-only helper).

``sys.setprofile`` counts at a fixed seed, never a clock: the same run
gives the same numbers on every host.  Nothing under ``src/`` imports it.
"""

import gc
import sys


def counted(run):
    """Call ``run()`` under a profiler; returns ``(result, python_calls,
    hash_calls, id_calls)`` -- Python-level function calls (generator
    resumptions included) and C-level ``hash()`` and ``id()`` calls made
    while it ran."""
    calls = hashes = ids = 0

    def profiler(frame, event, arg):
        nonlocal calls, hashes, ids
        if event == "call":
            calls += 1
        elif event == "c_call":
            if arg is hash:
                hashes += 1
            elif arg is id:
                ids += 1

    # A finished run is cyclic garbage full of suspended handler
    # generators; collecting one mid-count would run their ``finally``
    # blocks (releases, free_cancel) inside the measurement.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, calls, hashes, ids
