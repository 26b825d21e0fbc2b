"""Property-based tests for the memory pool's accounting invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim import Environment
from repro.sim.resources import MemoryPool

OWNERS = ["a", "b", "c", "hot", "scan"]


class PoolMachine(RuleBasedStateMachine):
    """Random acquire/release/touch/resize sequences on both eviction modes."""

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.capacity = 64
        self.pool = None

    @rule(strategy=st.sampled_from(["lru", "proportional"]))
    def create(self, strategy):
        if self.pool is None:
            self.pool = MemoryPool(
                self.env, "p", capacity_pages=self.capacity, eviction=strategy
            )

    @rule(
        owner=st.sampled_from(OWNERS),
        pages=st.integers(min_value=0, max_value=100),
        protect=st.lists(st.sampled_from(OWNERS), max_size=2),
    )
    def acquire(self, owner, pages, protect):
        if self.pool is None:
            return
        outcome = self.pool.acquire(owner, pages, protected=tuple(protect))
        # The grant never exceeds the request.
        assert outcome.acquired <= min(pages, self.capacity)
        # Free-list pages plus evictions account for the whole grant.
        assert outcome.from_free + outcome.evicted >= outcome.acquired
        # Victims never include the requester or protected owners.
        assert owner not in outcome.victims
        for p in protect:
            assert p not in outcome.victims
        assert sum(outcome.victims.values()) == outcome.evicted

    @rule(
        owner=st.sampled_from(OWNERS),
        pages=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    )
    def release(self, owner, pages):
        if self.pool is None:
            return
        before = self.pool.resident_pages(owner)
        released = self.pool.release(owner, pages)
        assert released <= before
        assert self.pool.resident_pages(owner) == before - released

    @rule(owner=st.sampled_from(OWNERS))
    def touch(self, owner):
        if self.pool is None:
            return
        before = self.pool.resident_pages(owner)
        self.pool.touch(owner)
        assert self.pool.resident_pages(owner) == before

    @rule(capacity=st.integers(min_value=1, max_value=96))
    def set_capacity(self, capacity):
        if self.pool is None:
            return
        before = self.pool.used_pages
        evicted = self.pool.set_capacity(capacity)
        self.capacity = capacity
        # Shrinking protects nobody, so exactly the overflow goes.
        assert evicted == max(0, before - capacity)

    @invariant()
    def running_total_is_the_sum_of_residents(self):
        """``used_pages`` is a running counter; the sum is its definition."""
        if self.pool is None:
            return
        assert self.pool.used_pages == sum(
            self.pool.resident_pages(owner) for owner in self.pool.owners()
        )
        assert self.pool.free_pages == self.capacity - self.pool.used_pages

    @invariant()
    def capacity_never_exceeded(self):
        if self.pool is None:
            return
        assert 0 <= self.pool.used_pages <= self.capacity

    @invariant()
    def residents_non_negative(self):
        if self.pool is None:
            return
        for owner in self.pool.owners():
            assert self.pool.resident_pages(owner) > 0

    @invariant()
    def ledger_balances(self):
        """acquired - released - evicted == currently used."""
        if self.pool is None:
            return
        balance = (
            self.pool.total_acquired
            - self.pool.total_released
            - self.pool.total_evicted
        )
        assert balance == self.pool.used_pages


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


@given(
    capacity=st.integers(min_value=1, max_value=200),
    requests=st.lists(
        st.tuples(
            st.sampled_from(OWNERS), st.integers(min_value=0, max_value=300)
        ),
        max_size=30,
    ),
)
@settings(max_examples=80, deadline=None)
def test_occupancy_bounded(capacity, requests):
    env = Environment()
    pool = MemoryPool(env, "p", capacity_pages=capacity)
    for owner, pages in requests:
        pool.acquire(owner, pages)
        assert 0.0 <= pool.occupancy() <= 1.0
