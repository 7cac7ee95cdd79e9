"""Mention/hashtag frequency analysis and per-mention sub-corpora.

Counting is per-occurrence: a user mentioned twice in one tweet counts
twice.  Mention keys are lowercase (handles are case-insensitive on the
platform); hashtag keys are uppercased so differently-cased spellings of
one tag merge.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .preprocess import CleanTweet
from .tagger import Tag


class FrequencyTable:
    """key -> occurrence count; mergeable across corpus partitions."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + n

    def update(self, keys: Iterable[str]) -> None:
        counts = self._counts
        for key in keys:
            counts[key] = counts.get(key, 0) + 1

    def merge(self, other: "FrequencyTable") -> "FrequencyTable":
        for key, n in other._counts.items():
            self.add(key, n)
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

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def __eq__(self, other) -> bool:
        return isinstance(other, FrequencyTable) and self._counts == other._counts


def mention_frequencies(tweets: Iterable[CleanTweet]) -> FrequencyTable:
    """Per-occurrence counts of lowercase mention handles."""
    table = FrequencyTable()
    for tweet in tweets:
        table.update(tweet.mentions)
    return table


def hashtag_frequencies(tweets: Iterable[CleanTweet]) -> FrequencyTable:
    """Per-occurrence counts of hashtags, case-folded to uppercase."""
    table = FrequencyTable()
    for tweet in tweets:
        table.update(tag.upper() for tag in tweet.hashtags)
    return table


def top_n(table: FrequencyTable, n: int) -> list[tuple[str, int]]:
    """Top ``n`` entries (count desc, key asc); shorter when the table has
    fewer distinct keys."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return table.items_sorted()[:n]


def filter_by_mention(records: Iterable[tuple[CleanTweet, Tag]],
                      user: str) -> Iterator[Tag]:
    """Tags of exactly the tweets whose mention list contains
    ``user`` (a lowercase handle); each matching tweet yields once."""
    for clean, result in records:
        if user in clean.mentions:
            yield result
