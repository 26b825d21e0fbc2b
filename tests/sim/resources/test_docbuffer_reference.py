"""Differential test: ``DocumentBuffer`` against the per-document reference.

``reference_docbuffer.PerDocumentBuffer`` is the buffer as it was before
``access`` and ``_evict_to_fit`` became one loop each.  Every operation
is replayed on both and everything observable is compared: each
``DocAccessOutcome`` field (``victims`` in first-eviction order), the
full LRU order, page occupancy, and every owner's document count.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.resources import DocumentBuffer

from .reference_docbuffer import PerDocumentBuffer

#: collection -> document size: 64, 4 and 1 documents per 4096-byte page.
COLLECTIONS = {"tiny": 64, "medium": 1024, "page": 4096}
OWNERS = ("hot-set", "ingest", "reader")


def make_pair(capacity_pages):
    buf = DocumentBuffer(Environment(), "buf", capacity_pages=capacity_pages)
    ref = PerDocumentBuffer(capacity_pages)
    for collection, doc_bytes in COLLECTIONS.items():
        assert buf.register_collection(collection, doc_bytes) == (
            ref.register_collection(collection, doc_bytes)
        )
    return buf, ref


def assert_same_state(buf, ref):
    assert buf.lru_keys() == ref.lru_keys()
    assert buf.pages_used == ref.pages_used
    for owner in OWNERS:
        assert buf.owner_docs(owner) == ref.owner_docs(owner)
    assert buf.resident_docs() == len(ref.lru_keys())


def assert_same_access(buf, ref, owner, collection, doc_ids):
    got = buf.access(owner, collection, doc_ids)
    want = ref.access(owner, collection, doc_ids)
    # Field for field, and the victims in the order they were first hit.
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert list(got.victims.items()) == list(want.victims.items())
    assert_same_state(buf, ref)
    return got


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
