"""Test-only reference for :class:`repro.sim.resources.DocumentBuffer`.

This is the buffer as it stood before ``access`` and ``_evict_to_fit``
became one loop each: one helper call per list or accounting step
(``_insert`` / ``_unlink`` / ``_push_mru`` / ``_drop_resident``), every
miss followed by an eviction check, the head sentinel re-linked once per
victim.  It is slow and obviously right, which is what a differential
test wants (``test_docbuffer_reference.py``).  Tracing and telemetry are
left out; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.sim.resources.docbuffer import DocAccessOutcome

Key = Tuple[str, Hashable]


class _Node:
    def __init__(self, key: Key, collection: str, owner: Any) -> None:
        self.key = key
        self.collection = collection
        self.owner = owner
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class PerDocumentBuffer:
    """Same ``access`` / ``release_owner`` / ``set_capacity`` contract."""

    def __init__(self, capacity_pages: int, page_size_bytes: int = 4096) -> None:
        self.capacity_pages = capacity_pages
        self.page_size_bytes = page_size_bytes
        self._docs_per_page: Dict[str, int] = {}
        self._resident: Dict[str, int] = {}
        self._nodes: Dict[Key, _Node] = {}
        self._owner_docs: Dict[Any, Dict[Key, None]] = {}
        self.pages_used = 0
        self._head = _Node(("", None), "", None)
        self._tail = _Node(("", None), "", None)
        self._head.next = self._tail
        self._tail.prev = self._head

    def register_collection(self, collection: str, doc_bytes: int) -> int:
        dpp = max(1, self.page_size_bytes // doc_bytes)
        self._docs_per_page[collection] = dpp
        self._resident[collection] = 0
        return dpp

    # -- introspection ---------------------------------------------------
    def owner_docs(self, owner: Any) -> int:
        return len(self._owner_docs.get(owner, ()))

    def owners(self) -> List[Any]:
        return list(self._owner_docs)

    def lru_keys(self) -> List[Key]:
        keys = []
        node = self._head.next
        while node is not self._tail:
            keys.append(node.key)
            node = node.next
        return keys

    # -- operations ------------------------------------------------------
    def access(
        self, owner: Any, collection: str, doc_ids: Iterable[Hashable]
    ) -> DocAccessOutcome:
        if collection not in self._docs_per_page:
            raise KeyError(f"unregistered collection {collection!r}")
        outcome = DocAccessOutcome()
        for doc_id in doc_ids:
            key = (collection, doc_id)
            node = self._nodes.get(key)
            if node is not None:
                outcome.hits += 1
                self._unlink(node)
                self._push_mru(node)
            else:
                outcome.misses += 1
                self._insert(key, collection, owner)
                self._evict_to_fit(outcome)
        return outcome

    def release_owner(self, owner: Any) -> int:
        docs = self._owner_docs.pop(owner, None)
        if not docs:
            return 0
        released = 0
        for key in docs:
            node = self._nodes.pop(key)
            self._unlink(node)
            self._drop_resident(node.collection)
            released += 1
        return released

    def set_capacity(self, capacity_pages: int) -> int:
        self.capacity_pages = capacity_pages
        outcome = DocAccessOutcome()
        self._evict_to_fit(outcome)
        return outcome.evicted_docs

    # -- internals -------------------------------------------------------
    def _insert(self, key: Key, collection: str, owner: Any) -> None:
        node = _Node(key, collection, owner)
        self._nodes[key] = node
        self._push_mru(node)
        self._owner_docs.setdefault(owner, {})[key] = None
        if self._resident[collection] % self._docs_per_page[collection] == 0:
            self.pages_used += 1
        self._resident[collection] += 1

    def _evict_to_fit(self, outcome: DocAccessOutcome) -> None:
        while self.pages_used > self.capacity_pages:
            victim = self._head.next
            if victim is self._tail:
                break
            self._unlink(victim)
            outcome.unlink_ops += 1
            del self._nodes[victim.key]
            owned = self._owner_docs.get(victim.owner)
            if owned is not None:
                owned.pop(victim.key, None)
                if not owned:
                    del self._owner_docs[victim.owner]
            pages_before = self.pages_used
            self._drop_resident(victim.collection)
            outcome.evicted_docs += 1
            outcome.evicted_pages += pages_before - self.pages_used
            outcome.victims[victim.owner] = (
                outcome.victims.get(victim.owner, 0) + 1
            )

    def _drop_resident(self, collection: str) -> None:
        self._resident[collection] -= 1
        if self._resident[collection] % self._docs_per_page[collection] == 0:
            self.pages_used -= 1

    def _unlink(self, node: _Node) -> None:
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = None

    def _push_mru(self, node: _Node) -> None:
        last = self._tail.prev
        last.next = node
        node.prev = last
        node.next = self._tail
        self._tail.prev = node
