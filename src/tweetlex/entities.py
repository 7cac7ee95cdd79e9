"""Mention/hashtag frequency tables.

Counting is per-occurrence: a user mentioned twice in one tweet counts
twice.  The keys arrive folded by ``preprocess``: mentions lowercase
(handles are case-insensitive on the platform), hashtags uppercase so
differently-cased spellings of one tag merge.
"""

from __future__ import annotations

from typing import Iterable, Iterator


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

    def ranking(self) -> list[str]:
        """Every key, count descending, ties lexicographic ascending: one
        list of the keys, so a ranking holds no pair per key."""
        # Keys are distinct, so sorting on the key alone gives the order of
        # the whole pairs; the count sort is stable under reverse=True and
        # keeps that order in ties.
        keys = sorted(self._counts)
        keys.sort(key=self._counts.__getitem__, reverse=True)
        return keys

    def rows(self, keys: Iterable[str]) -> Iterator[tuple[str, int]]:
        """(key, count) for each of ``keys`` in turn, made as it is read."""
        counts = self._counts
        return ((key, counts[key]) for key in keys)

    def items_sorted(self) -> list[tuple[str, int]]:
        """All entries as (key, count) pairs in ``ranking`` order."""
        return list(self.rows(self.ranking()))
