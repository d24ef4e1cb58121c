"""Multisets of irreducible character degrees."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class DegreeMultiset:
    """Multiset of (degree, multiplicity) pairs, sorted by decreasing degree.

    The canonical form merges equal degrees into a multiplicity count; the
    sum of multiplicity-weighted squared degrees recovers the group order.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = None
        for d, m in self.entries:
            if d < 1 or m < 1:
                raise ValueError(f"bad entry ({d}, {m})")
            if last is not None and d >= last:
                raise ValueError("entries must be strictly decreasing in degree")
            last = d

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeMultiset":
        counts = Counter(degrees)
        return cls(tuple(sorted(counts.items(), reverse=True)))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "DegreeMultiset":
        counts: Counter[int] = Counter()
        for d, m in pairs:
            counts[d] += m
        return cls(tuple(sorted(counts.items(), reverse=True)))

    @property
    def max_degree(self) -> int:
        if not self.entries:
            raise ValueError("empty degree multiset")
        return self.entries[0][0]

    @property
    def sum_squares(self) -> int:
        return sum(m * d * d for d, m in self.entries)

    def multiplicity(self, degree: int) -> int:
        for d, m in self.entries:
            if d == degree:
                return m
        return 0

    def __iter__(self):
        return iter(self.entries)
