"""Daily and hourly aggregation of tags, and the label row they share with
the region aggregate.

A label row counts the sentiment, emotion and overall labels of a group of
tweets in the slots of ``DAY_ROW``; days (here) and regions (``spatial``)
both keep one per key.  Every aggregate is a mergeable partial: parallel
workers own private ones and the merged result is independent of how the
corpus was partitioned.  Timestamps must already be converted to the
analysis timezone before bucketing.
"""

from __future__ import annotations

from datetime import date, datetime
from operator import add
from typing import Iterable

from .tagger import EMOTION_LABELS, OVERALL_LABELS, SENTIMENT_LABELS, Tag

CHANNELS = ("sentiment", "emotion", "overall")

#: (channel, label) of each slot of a label row: the sentiment, then the
#: emotion, then the overall labels, each in its canonical order.
DAY_ROW = tuple((channel, label)
                for channel, labels in zip(CHANNELS, (SENTIMENT_LABELS,
                                                      EMOTION_LABELS,
                                                      OVERALL_LABELS))
                for label in labels)

_EMOTION_OFFSET = len(SENTIMENT_LABELS)
_OVERALL_OFFSET = _EMOTION_OFFSET + len(EMOTION_LABELS)

SLOTS_PER_DAY = 24


def count_tag(rows: dict, key, tag: Tag) -> None:
    """Count one tag into ``rows[key]``, making the row on first use."""
    row = rows.get(key)
    if row is None:
        row = rows[key] = [0] * len(DAY_ROW)
    _vector, s, e, o, _tied = tag
    row[s] += 1
    row[_EMOTION_OFFSET + e] += 1
    row[_OVERALL_OFFSET + o] += 1


def merge_rows(rows: dict, other: dict) -> None:
    """Add every row of ``other`` into the row of the same key in ``rows``."""
    for key, row in other.items():
        mine = rows.get(key)
        rows[key] = row[:] if mine is None else list(map(add, mine, row))


def sum_rows(rows: Iterable[list[int]]) -> list[int]:
    """Slot-by-slot sum of label rows (all zeros for none)."""
    return list(map(sum, zip([0] * len(DAY_ROW), *rows)))


def row_tweets(row: list[int]) -> int:
    """Tweets counted into a row: each carries exactly one sentiment."""
    return sum(row[:_EMOTION_OFFSET])


class DayBuckets:
    """local date -> label row."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[date, list[int]] = {}

    def add(self, tag: Tag, when: datetime) -> None:
        count_tag(self.rows, when.date(), tag)

    def merge(self, other: "DayBuckets") -> "DayBuckets":
        merge_rows(self.rows, other.rows)
        return self


class HourBuckets:
    """24 local-time slots; slot i covers [i:00:00, i:59:59], summed over
    all days of the corpus."""

    __slots__ = ("slots",)

    def __init__(self):
        self.slots: list[int] = [0] * SLOTS_PER_DAY

    def add(self, when: datetime) -> None:
        self.slots[when.hour] += 1

    def merge(self, other: "HourBuckets") -> "HourBuckets":
        for i in range(SLOTS_PER_DAY):
            self.slots[i] += other.slots[i]
        return self

    @property
    def total(self) -> int:
        return sum(self.slots)


def peak_slot(buckets: HourBuckets) -> int | None:
    """Smallest slot index attaining the maximum count; None when the
    buckets hold no data at all."""
    best = max(buckets.slots)
    if best == 0:
        return None
    return buckets.slots.index(best)
