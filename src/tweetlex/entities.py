"""Mention/hashtag frequency tables.

Counting is per-occurrence: a user mentioned twice in one tweet counts
twice.  The keys arrive folded by ``preprocess``: mentions lowercase
(handles are case-insensitive on the platform), hashtags uppercase so
differently-cased spellings of one tag merge.
"""

from __future__ import annotations

from operator import itemgetter
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

    @property
    def total_occurrences(self) -> int:
        return sum(self._counts.values())

    @property
    def distinct_keys(self) -> int:
        return len(self._counts)

    def items_sorted(self) -> list[tuple[str, int]]:
        """All entries, count descending, ties lexicographic ascending."""
        # Keys are distinct, so sorting on the key alone gives the order of
        # the whole pairs; the count sort is stable under reverse=True and
        # keeps that order in ties.
        items = sorted(self._counts.items(), key=itemgetter(0))
        items.sort(key=itemgetter(1), reverse=True)
        return items
