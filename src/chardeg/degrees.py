"""Multisets of irreducible character degrees."""

from __future__ import annotations

from collections import Counter
from typing import Iterable


class DegreeMultiset:
    """Multiset of (degree, multiplicity) pairs, sorted by decreasing degree.

    The canonical form merges equal degrees into a multiplicity count; the
    sum of multiplicity-weighted squared degrees recovers the group order.
    Immutable, and equal to another multiset with the same entries.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: tuple[tuple[int, int], ...]):
        last = None
        for d, m in entries:
            if d < 1 or m < 1:
                raise ValueError(f"bad entry ({d}, {m})")
            if last is not None and d >= last:
                raise ValueError("entries must be strictly decreasing in degree")
            last = d
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not DegreeMultiset:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"DegreeMultiset(entries={self.entries!r})"

    def __reduce__(self):
        return DegreeMultiset, (self.entries,)

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
