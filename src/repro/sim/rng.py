"""Deterministic random-number utilities for simulations.

Every stochastic component takes an explicit :class:`Rng` so experiments are
reproducible bit-for-bit from a seed, and independent components can be given
independent streams (``rng.fork(name)``).
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class Rng:
    """A seeded random stream with the distributions the models need."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, name: str) -> "Rng":
        """Derive an independent, deterministic child stream.

        The child's seed mixes the parent's seed with ``name``, so workload
        arrival processes, service-time draws, etc. do not perturb each other
        when one component draws more samples.  The mix uses a *stable*
        hash (crc32), not Python's per-process salted ``hash()``, so runs
        are reproducible across interpreter invocations.
        """
        child_seed = zlib.crc32(f"{self.seed}:{name}".encode()) & 0x7FFFFFFF
        return Rng(child_seed)

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def pareto(self, minimum: float, alpha: float = 1.5, cap: Optional[float] = None) -> float:
        """Bounded Pareto -- heavy-tailed service times.

        Args:
            minimum: scale (smallest possible value).
            alpha: tail index; smaller is heavier.
            cap: optional upper bound to keep tails finite.
        """
        value = minimum * (self._random.paretovariate(alpha))
        if cap is not None:
            value = min(value, cap)
        return value

    def normal(self, mean: float, std: float) -> float:
        return self._random.gauss(mean, std)

    def randint(self, low: int, high: int) -> int:
        """Random integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def weighted_chooser(
        self, items: Sequence[T], weights: Sequence[float]
    ) -> Callable[[], T]:
        """Precompiled :meth:`weighted_choice` for a fixed (items, weights).

        Returns a zero-argument callable that draws one item.  The draw is
        *bit-identical* to ``weighted_choice`` on the same stream -- it
        replicates ``random.choices``'s arithmetic (one uniform draw,
        ``bisect`` over the accumulated weights) with the cumulative table
        built once instead of per call.  Hot arrival loops use this so
        swapping it in never changes a simulation's sampled sequence
        (pinned by a regression test).
        """
        population = list(items)
        if len(weights) != len(population):
            raise ValueError(
                "the number of weights does not match the population"
            )
        cum_weights = list(accumulate(weights))
        total = cum_weights[-1] + 0.0
        if total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        hi = len(cum_weights) - 1
        uniform = self._random.random

        def choose() -> T:
            return population[bisect(cum_weights, uniform() * total, 0, hi)]

        return choose

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        return self._random.sample(list(items), k)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)
