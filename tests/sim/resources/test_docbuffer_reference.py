"""Differential test: ``DocumentBuffer`` against the per-document reference.

``reference_docbuffer.PerDocumentBuffer`` keeps one LRU node per
document and calls one helper per list or accounting step.  The buffer
under test keeps runs of consecutive ids as one entry (a step-1
``range`` access) beside singletons (any other iterable).  Every
operation is replayed on both and everything observable is compared
after every step: each ``DocAccessOutcome`` field (``victims`` in
first-eviction order), the full LRU order, page occupancy, every
owner's document count, the order of ``owners()``, each collection's
resident count, and the lifetime ``total_*`` counters (tallied on the
reference's side from its outcomes).
"""

import dataclasses
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.resources import DocumentBuffer

from .reference_docbuffer import PerDocumentBuffer

#: collection -> document size: 64, 4 and 1 documents per 4096-byte page.
COLLECTIONS = {"tiny": 64, "medium": 1024, "page": 4096}
OWNERS = ("hot-set", "ingest", "reader")


class Reference(PerDocumentBuffer):
    """The reference plus the lifetime counters it does not keep."""

    def __init__(self, capacity_pages):
        super().__init__(capacity_pages)
        self.totals = Counter()

    def access(self, owner, collection, doc_ids):
        outcome = super().access(owner, collection, doc_ids)
        self.totals["hits"] += outcome.hits
        self.totals["misses"] += outcome.misses
        self.totals["evicted_docs"] += outcome.evicted_docs
        self.totals["evicted_pages"] += outcome.evicted_pages
        return outcome

    def release_owner(self, owner):
        released = super().release_owner(owner)
        self.totals["released_docs"] += released
        return released

    def set_capacity(self, capacity_pages):
        before = self.pages_used
        outcome_docs = super().set_capacity(capacity_pages)
        self.totals["evicted_docs"] += outcome_docs
        self.totals["evicted_pages"] += before - self.pages_used
        return outcome_docs


def make_pair(capacity_pages):
    buf = DocumentBuffer(Environment(), "buf", capacity_pages=capacity_pages)
    ref = Reference(capacity_pages)
    for collection, doc_bytes in COLLECTIONS.items():
        assert buf.register_collection(collection, doc_bytes) == (
            ref.register_collection(collection, doc_bytes)
        )
    return buf, ref


def assert_same_state(buf, ref):
    keys = ref.lru_keys()
    assert buf.lru_keys() == keys
    assert buf.pages_used == ref.pages_used
    assert buf.owners() == ref.owners()
    for owner in OWNERS:
        assert buf.owner_docs(owner) == ref.owner_docs(owner)
    assert buf.resident_docs() == len(keys)
    per_collection = Counter(collection for collection, _ in keys)
    for collection in COLLECTIONS:
        assert buf.resident_docs(collection) == per_collection[collection]
    for name in ("hits", "misses", "evicted_docs", "evicted_pages",
                 "released_docs"):
        assert getattr(buf, f"total_{name}") == ref.totals[name], name


def assert_same_access(buf, ref, owner, collection, doc_ids):
    got = buf.access(owner, collection, doc_ids)
    want = ref.access(owner, collection, doc_ids)
    # Field for field, and the victims in the order they were first hit.
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert list(got.victims.items()) == list(want.victims.items())
    assert_same_state(buf, ref)
    return got


def assert_same_release(buf, ref, owner):
    released = buf.release_owner(owner)
    assert released == ref.release_owner(owner)
    assert_same_state(buf, ref)
    return released


ACCESS = st.tuples(
    st.just("access"),
    st.sampled_from(OWNERS),
    st.sampled_from(sorted(COLLECTIONS)),
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=80),
)
RELEASE = st.tuples(st.just("release"), st.sampled_from(OWNERS))
RESIZE = st.tuples(st.just("resize"), st.integers(min_value=1, max_value=8))


@given(
    capacity=st.integers(min_value=1, max_value=6),
    steps=st.lists(st.one_of(ACCESS, ACCESS, RELEASE, RESIZE), max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_random_sequences_match_the_reference(capacity, steps):
    buf, ref = make_pair(capacity)
    for step in steps:
        if step[0] == "access":
            assert_same_access(buf, ref, *step[1:])
        elif step[0] == "release":
            assert buf.release_owner(step[1]) == ref.release_owner(step[1])
        else:
            assert buf.set_capacity(step[1]) == ref.set_capacity(step[1])
        assert_same_state(buf, ref)


@given(
    rng=st.randoms(use_true_random=False),
    capacity=st.sampled_from((1, 2, 3, 8, 16, 64)),
)
@settings(max_examples=100, deadline=None)
def test_range_floods_match_the_reference(rng, capacity):
    """The run path: ``range`` accesses up to ~70 pages of tiny
    documents (some not step-1) over the key space of point accesses, so
    ranges extend, hit and split runs and singletons, floods reach the
    same-collection steady state, and releases free split runs.  The
    program is drawn from a seeded ``Random``: sizes spread over orders
    of magnitude, where drawing each number directly clusters them at
    the bounds."""
    buf, ref = make_pair(capacity)
    space = rng.choice((50, 300, 2000))
    for _ in range(rng.randint(1, 24)):
        owner = rng.choice(OWNERS)
        collection = rng.choice(sorted(COLLECTIONS))
        roll = rng.random()
        if roll < 0.4:
            start = rng.randrange(space)
            length = rng.randint(0, rng.choice((5, 40, 1000, 4500)))
            ids = range(start, start + length, rng.choice((1, 1, 1, 2)))
            assert_same_access(buf, ref, owner, collection, ids)
        elif roll < 0.75:
            ids = [rng.randrange(space) for _ in range(rng.randint(1, 12))]
            assert_same_access(buf, ref, owner, collection, ids)
        elif roll < 0.88:
            assert_same_release(buf, ref, owner)
        else:
            resized = rng.randint(1, 72)
            assert buf.set_capacity(resized) == ref.set_capacity(resized)
            assert_same_state(buf, ref)


def test_a_flood_is_one_entry_and_its_steady_state_one_step():
    """A tiny-document flood past capacity: every insert opens a page,
    evicts the oldest flooded document and frees that page again."""
    buf, ref = make_pair(4)
    outcome = assert_same_access(buf, ref, "ingest", "tiny", range(256))
    assert outcome.evicted_docs == 0 and buf.free_pages == 0
    assert buf.lru_entries() == 1
    outcome = assert_same_access(buf, ref, "ingest", "tiny", range(256, 356))
    assert outcome.evicted_docs == outcome.evicted_pages == 100
    assert buf.lru_keys()[0] == ("tiny", 100)
    assert buf.lru_entries() == 1
    # Another owner's flood evicts the first one's run off its front.
    outcome = assert_same_access(buf, ref, "reader", "tiny", range(400, 430))
    assert outcome.victims == {"ingest": 30}
    assert buf.lru_entries() == 2


def test_eviction_eats_into_the_run_being_appended():
    """A flood longer than the buffer: the run it appends to is also the
    LRU front, so the same call evicts what it inserted first."""
    buf, ref = make_pair(2)
    assert_same_access(buf, ref, "reader", "medium", range(4))
    outcome = assert_same_access(buf, ref, "ingest", "tiny", range(300))
    assert outcome.victims == {"reader": 4, "ingest": 300 - 128}
    assert buf.lru_keys() == [("tiny", i) for i in range(172, 300)]
    assert buf.owners() == ["ingest"]
    # The appended run straddles page boundaries of a mixed front.
    buf, ref = make_pair(3)
    assert_same_access(buf, ref, "reader", "tiny", range(10))
    assert_same_access(buf, ref, "reader", "medium", range(3))
    assert_same_access(buf, ref, "ingest", "tiny", range(10, 400))


def test_hits_split_a_run_at_its_first_middle_and_last_document():
    buf, ref = make_pair(8)
    assert_same_access(buf, ref, "hot-set", "medium", range(20))
    assert_same_access(buf, ref, "ingest", "tiny", range(50))
    # Singleton-path hits: first, last, middle of the medium run.
    assert_same_access(buf, ref, "reader", "medium", [0])
    assert_same_access(buf, ref, "reader", "medium", [19])
    assert_same_access(buf, ref, "reader", "medium", [10])
    assert buf.owner_docs("hot-set") == 20
    assert buf.owner_docs("reader") == 0
    # Run-path hits: a stretch at the front, the back, the middle, then
    # a range that spans runs, singletons and absent ids.
    assert_same_access(buf, ref, "reader", "tiny", range(0, 5))
    assert_same_access(buf, ref, "reader", "tiny", range(45, 50))
    assert_same_access(buf, ref, "reader", "tiny", range(20, 25))
    assert_same_access(buf, ref, "reader", "medium", range(5, 30))
    # The MRU stretch touched again does not move.
    assert_same_access(buf, ref, "reader", "medium", range(25, 30))
    assert_same_access(buf, ref, "reader", "medium", [29])
    resident = set(ref.lru_keys())
    assert not buf.contains("unregistered", 0)
    for collection in ("tiny", "medium"):
        for doc_id in range(-1, 60):
            assert buf.contains(collection, doc_id) == (
                (collection, doc_id) in resident
            )


def test_release_of_an_owner_whose_runs_were_split():
    buf, ref = make_pair(16)
    assert_same_access(buf, ref, "ingest", "tiny", range(200))
    assert_same_access(buf, ref, "hot-set", "medium", range(8))
    assert_same_access(buf, ref, "reader", "tiny", [3, 100, 199, 0])
    assert_same_access(buf, ref, "reader", "tiny", range(150, 160))
    assert_same_access(buf, ref, "ingest", "tiny", range(200, 210))
    before = buf.lru_entries()
    assert assert_same_release(buf, ref, "ingest") == 210
    assert buf.lru_entries() < before
    assert buf.owners() == ["hot-set"]
    assert buf.resident_docs("tiny") == 0
    # The freed pages are free: a new flood fits without evicting.
    outcome = assert_same_access(buf, ref, "reader", "tiny", range(64))
    assert outcome.evicted_docs == 0


def test_access_that_evicts_all_of_the_accessors_older_documents():
    """One call whose own evictions strip the accessor's owner table of
    everything it held before the call, while the call keeps inserting
    into that same table.

    (The table cannot become *empty* mid-call -- ``access`` relies on
    that to look it up once: it always holds the document just
    inserted, which is at the MRU end and fits any capacity alone.)
    """
    buf, ref = make_pair(2)
    assert_same_access(buf, ref, "ingest", "page", [0, 1])
    assert buf.owner_docs("ingest") == 2
    outcome = assert_same_access(buf, ref, "ingest", "page", [10, 11, 12])
    assert outcome.victims == {"ingest": 3}
    assert buf.lru_keys() == [("page", 11), ("page", 12)]
    assert buf.owner_docs("ingest") == 2
    # Everything the owner still holds is releasable: no key was lost to
    # a table that had been dropped from the index.
    assert buf.release_owner("ingest") == ref.release_owner("ingest") == 2
    assert_same_state(buf, ref)
    assert buf.pages_used == 0


def test_access_that_drops_another_owners_table_then_reuses_the_name():
    """Eviction empties and drops the *victim's* table mid-call; when
    that owner comes back it starts a fresh table."""
    buf, ref = make_pair(1)
    assert_same_access(buf, ref, "reader", "page", [0])
    outcome = assert_same_access(buf, ref, "ingest", "page", [1])
    assert outcome.victims == {"reader": 1}
    assert buf.owner_docs("reader") == 0
    assert_same_access(buf, ref, "reader", "page", [2])
    assert buf.owner_docs("reader") == 1
    assert buf.owner_docs("ingest") == 0


def test_multi_collection_mix_with_different_packing():
    """A flood of tiny documents over pages shared with coarser
    collections: page frees depend on each victim's own density."""
    buf, ref = make_pair(4)
    assert_same_access(buf, ref, "hot-set", "medium", range(8))  # 2 pages
    assert_same_access(buf, ref, "hot-set", "page", [0])  # 1 page
    assert_same_access(buf, ref, "hot-set", "tiny", range(64))  # 1 page
    assert buf.pages_used == 4
    # The 65th tiny document opens a fifth page: the oldest go.
    flood = assert_same_access(buf, ref, "ingest", "tiny", range(64, 130))
    assert flood.misses == 66
    assert flood.evicted_pages >= 1
    assert flood.unlink_ops == flood.evicted_docs
    # Touch survivors out of order, fault some back, shrink, release.
    assert_same_access(buf, ref, "reader", "tiny", [129, 5, 64, 500])
    assert_same_access(buf, ref, "reader", "medium", [0, 7, 3])
    assert buf.set_capacity(2) == ref.set_capacity(2)
    assert_same_state(buf, ref)
    assert buf.release_owner("ingest") == ref.release_owner("ingest")
    assert_same_state(buf, ref)


def test_hit_on_the_mru_document_keeps_the_order():
    buf, ref = make_pair(4)
    assert_same_access(buf, ref, "reader", "medium", [1, 2, 3])
    assert_same_access(buf, ref, "reader", "medium", [3, 3, 1, 1])
    assert buf.lru_keys() == [("medium", 2), ("medium", 3), ("medium", 1)]
