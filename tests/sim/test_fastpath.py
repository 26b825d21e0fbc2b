"""The disabled-hooks fast path must not change simulation results.

Two invariants, each checked across PYTHONHASHSEEDs via subprocesses:

1. Hooks observe, they never steer: the same seeded run with tracing
   enabled (hooked path) and disabled (fast path) must produce an
   identical Summary and completion timeline.
2. Both paths are deterministic across interpreter hash seeds -- any
   reliance on dict/set iteration order or ``id()`` in the kernel's
   scheduling would show up as a byte diff here.
"""

import hashlib
import os
import subprocess
import sys

_SCRIPT = """
import sys
from repro.apps.mysql import MySQL, light_mix
from repro.core import Atropos, AtroposConfig
from repro.obs import Tracer, tracing
from repro.experiments import run_simulation
from repro.sim.metrics import completion_windows
from repro.workloads import OpenLoopSource, Workload


def one_run():
    return run_simulation(
        lambda env, ctl, rng: MySQL(env, ctl, rng),
        lambda app, rng: Workload(
            [OpenLoopSource(rate=200.0, mix=light_mix(rng))]
        ),
        lambda env: Atropos(env, AtroposConfig(slo_latency=0.05)),
        duration=3.0,
        seed=11,
        label="fastpath",
    )


def render(result):
    summary = result.summary
    lines = [repr(summary)]
    windows = completion_windows(
        result.collector.records, window=0.5, end_time=result.duration
    )
    for end, latencies in windows:
        lines.append(
            f"{end!r} n={len(latencies)} sum={sum(latencies)!r}"
        )
    for record in result.collector.records[:200]:
        lines.append(
            f"{record.request_id} {record.op_name} {record.status.value} "
            f"{record.arrival_time!r} {record.finish_time!r} {record.retries}"
        )
    return "\\n".join(lines)


fast = render(one_run())

tracer = Tracer(max_runs=1)
with tracing(tracer):
    hooked_result = one_run()
hooked = render(hooked_result)
assert hooked_result.driver.env.hooks_enabled
assert tracer.runs and len(tracer.events) > 100, (
    "hooked run emitted no trace data; the hooked path was not exercised"
)

assert fast == hooked, "fast path diverged from hooked path"
sys.stdout.write(fast)
"""


def _digest(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout, proc.stderr
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def test_fastpath_and_hooked_path_byte_identical_across_hash_seeds():
    digests = {_digest(seed) for seed in ("0", "1", "9973")}
    assert len(digests) == 1
