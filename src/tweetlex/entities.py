"""Mention/hashtag frequency tables.

Counting is per-occurrence: a user mentioned twice in one tweet counts
twice.  Mention keys are lowercase (handles are case-insensitive on the
platform); hashtag keys are uppercased so differently-cased spellings of
one tag merge.
"""

from __future__ import annotations

from typing import Iterable


class FrequencyTable:
    """key -> occurrence count; mergeable across corpus partitions."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: dict[str, int] = {}

    def update(self, keys: Iterable[str]) -> None:
        counts = self._counts
        for key in keys:
            counts[key] = counts.get(key, 0) + 1

    def merge(self, other: "FrequencyTable") -> "FrequencyTable":
        counts = self._counts
        for key, n in other._counts.items():
            counts[key] = counts.get(key, 0) + n
        return self

    def count(self, key: str) -> int:
        return self._counts.get(key, 0)

    @property
    def total_occurrences(self) -> int:
        return sum(self._counts.values())

    @property
    def distinct_keys(self) -> int:
        return len(self._counts)

    def items_sorted(self) -> list[tuple[str, int]]:
        """All entries, count descending, ties lexicographic ascending."""
        return sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, FrequencyTable) and self._counts == other._counts


def top_n(table: FrequencyTable, n: int) -> list[tuple[str, int]]:
    """Top ``n`` entries (count desc, key asc); shorter when the table has
    fewer distinct keys."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return table.items_sorted()[:n]

