"""Basic Block Vector accumulation (paper §4.1).

The hardware accumulator is an array of saturating counters indexed by
branch-PC bits; each executed basic block bumps its bucket by the block's
instruction count (Sherwood et al.'s footprint weighting).  The paper
specifies 32 uncompressed 24-bit buckets indexed by the low PC bits (its
"6 bits for 32 buckets" phrasing is inconsistent; we use
``(pc >> 2) % n_buckets`` — DESIGN.md §6).  Harvesting at an interval
boundary returns the vector and clears the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

BBVector = Tuple[int, ...]


@dataclass(frozen=True)
class BBVConfig:
    """BBV baseline parameters (paper §4.1).

    The paper's accumulator has "32 24-bit uncompressed buckets" indexed by
    the low PC bits (see DESIGN.md §6 on the 6-bit/32-bucket inconsistency);
    signatures are unlimited and uncompressed, and each phase memoises its
    tuning progress and chosen configuration.  No next-phase predictor.
    """

    n_buckets: int = 32
    counter_bits: int = 24
    #: Manhattan distance threshold on unit-normalised vectors below which
    #: two vectors are the same phase.
    similarity_threshold: float = 0.35
    #: Consecutive same-phase intervals required before a phase is
    #: considered stable (and eligible for tuning) — Figure 1's criterion.
    stable_min_intervals: int = 2


def manhattan_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Manhattan (L1) distance between two vectors of equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"vector lengths differ: {len(a)} vs {len(b)}"
        )
    return sum(abs(x - y) for x, y in zip(a, b))


def normalize(vector: Sequence[int]) -> Tuple[float, ...]:
    """Scale a vector to unit L1 mass (empty vectors stay zero)."""
    total = sum(vector)
    if total <= 0:
        return tuple(0.0 for _ in vector)
    return tuple([x / total for x in vector])


class BBVAccumulator:
    """Bucketed BBV accumulator with saturating counters."""

    def __init__(self, n_buckets: int = 32, counter_bits: int = 24):
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive: {n_buckets}")
        if counter_bits <= 0:
            raise ValueError(f"counter_bits must be positive: {counter_bits}")
        self.n_buckets = n_buckets
        self.counter_max = (1 << counter_bits) - 1
        self._buckets: List[int] = [0] * n_buckets
        self.saturations = 0

    def observe(self, block_pc: int, n_insns: int) -> None:
        """Credit a block execution to its bucket (saturating)."""
        index = (block_pc >> 2) % self.n_buckets
        value = self._buckets[index] + n_insns
        if value > self.counter_max:
            value = self.counter_max
            self.saturations += 1
        self._buckets[index] = value

    def harvest(self) -> BBVector:
        """Return the interval's vector and clear the table."""
        vector = tuple(self._buckets)
        for i in range(self.n_buckets):
            self._buckets[i] = 0
        return vector

    def peek(self) -> BBVector:
        return tuple(self._buckets)

    def __repr__(self) -> str:
        return (
            f"BBVAccumulator(buckets={self.n_buckets}, "
            f"mass={sum(self._buckets)})"
        )
