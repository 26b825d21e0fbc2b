"""Campaign extras must survive the store write -> read byte-identically.

The regress observatory trusts the cache: a baseline captured from
cached outcomes must equal one captured from fresh runs, which holds
only if ``extras`` (series arrays, decision/audit mixes, adapt events,
health summaries) round-trip through the JSON store without mutation
and independently of dict insertion order or interpreter hash seed.
"""

import hashlib
import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CACHE_SCHEMA
from repro.campaign.store import ResultStore

KEY = "ab" + "0" * 62

# JSON-safe floats: the store round-trips exactly what json can encode
# (the producers pre-round to 9 decimals and map NaN to None upstream).
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=32
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**9), 10**9),
    finite_floats, st.text(max_size=20),
)
series_arrays = st.lists(
    st.one_of(st.none(), finite_floats), max_size=30
)
count_maps = st.dictionaries(
    st.sampled_from(
        ["detection", "classification", "cancellation", "reexecution",
         "adapt", "cancel-blocked", "p99-ceiling", "cancel-storm",
         "detector-flapping", "cancelled", "regular-overload"]
    ),
    st.integers(0, 10**6),
    max_size=8,
)
extras_payloads = st.fixed_dictionaries(
    {},
    optional={
        "cancels_issued": st.integers(0, 10**6),
        "series": st.fixed_dictionaries(
            {
                "window": st.just(0.5),
                "slo": st.one_of(st.none(), finite_floats),
                "end": series_arrays,
                "throughput": series_arrays,
                "p99": series_arrays,
                "goodput": series_arrays,
                "cancels": st.lists(st.integers(0, 1000), max_size=30),
            }
        ),
        "decision_mix": count_maps,
        "audit_mix": count_maps,
        "health_events": st.lists(
            st.fixed_dictionaries(
                {
                    "time": finite_floats,
                    "kind": st.sampled_from(
                        ["p99-ceiling", "cancel-storm"]
                    ),
                    "severity": st.sampled_from(["warn", "critical"]),
                }
            ),
            max_size=10,
        ),
        "adaptations": st.integers(0, 1000),
        "adapt_events": st.lists(
            st.fixed_dictionaries(
                {
                    "time": finite_floats,
                    "param": st.sampled_from(
                        ["detection_window", "slo_slack"]
                    ),
                    "old": finite_floats,
                    "new": finite_floats,
                    "reason": st.text(max_size=20),
                }
            ),
            max_size=10,
        ),
        "telemetry": st.dictionaries(
            st.text(min_size=1, max_size=15), json_scalars, max_size=6
        ),
    },
)


def _payload(extras):
    return {
        "schema": CACHE_SCHEMA,
        "spec": {"experiment": "e", "family": "case", "seed": 0},
        "summary": {"throughput": 1.0},
        "extras": extras,
        "walltime": 0.1,
    }


class TestExtrasRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(extras=extras_payloads)
    def test_store_round_trip_is_identity(self, tmp_path_factory, extras):
        store = ResultStore(
            tmp_path_factory.mktemp("store") / "cache"
        )
        store.put(KEY, _payload(extras))
        loaded = store.get(KEY)
        assert loaded["extras"] == extras

    @settings(max_examples=60, deadline=None)
    @given(extras=extras_payloads)
    def test_stored_bytes_are_canonical(self, tmp_path_factory, extras):
        """Same logical extras -> same bytes, whatever insertion order."""
        root = tmp_path_factory.mktemp("store")
        store_a = ResultStore(root / "a")
        store_b = ResultStore(root / "b")
        store_a.put(KEY, _payload(extras))
        reordered = json.loads(
            json.dumps(_payload(extras), sort_keys=True)
        )
        store_b.put(KEY, reordered)
        assert store_a._path(KEY).read_bytes() == \
            store_b._path(KEY).read_bytes()


_HASHSEED_SCRIPT = """
import sys
from repro.campaign import execute
from repro.campaign.spec import RunSpec
from repro.experiments.case_family import case_spec
from repro.regress.baseline import RegressBaseline
from repro.regress.capture import capture

spec = case_spec("hashseed", "c1", 1, system="atropos")
spec = RunSpec(experiment=spec.experiment, family=spec.family,
               params=spec.params, seed=spec.seed,
               duration=4.0, warmup=1.0)
baseline = capture("hashseed", [("case:c1", spec)], jobs=1)
sys.stdout.write(baseline.to_json())
"""


def _capture_digest(hash_seed, cache_dir):
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        REPRO_CACHE_DIR=str(cache_dir),
        PYTHONPATH=os.pathsep.join(sys.path),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout, proc.stderr
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def test_capture_byte_identical_across_hash_seeds(tmp_path):
    """The whole chain -- run, extras, store, snapshot -- is hash-seed
    free.  Each subprocess gets its own cache dir, so every capture is
    a fresh run, not a replay of the first one's cache entry."""
    digests = {
        _capture_digest(seed, tmp_path / f"cache-{seed}")
        for seed in ("0", "1", "9973")
    }
    assert len(digests) == 1
