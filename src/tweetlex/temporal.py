"""Daily and hourly aggregation of tags, and the label row they share with
the region aggregate.

A label row counts the sentiment, emotion and overall labels of a group of
tweets in the slots of ``DAY_ROW``; days (here) and regions (``spatial``)
both keep one per key.  Every aggregate is a mergeable partial: parallel
workers own private ones and the merged result is independent of how the
corpus was partitioned.  Both bucket kinds take a tweet's time as ints,
its local day ordinal (``date.toordinal``) and its local hour, read from a
timestamp already converted to the analysis timezone.
"""

from __future__ import annotations

from datetime import date
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
    """local date -> label row.  ``add`` takes the date as its ordinal
    (``date.toordinal``), and rows are counted under that int."""

    __slots__ = ("by_ordinal",)

    def __init__(self):
        self.by_ordinal: dict[int, list[int]] = {}

    def add(self, tag: Tag, day: int) -> None:
        count_tag(self.by_ordinal, day, tag)

    def merge(self, other: "DayBuckets") -> "DayBuckets":
        merge_rows(self.by_ordinal, other.by_ordinal)
        return self

    @property
    def rows(self) -> dict[date, list[int]]:
        """local date -> label row, in date order, as a new dict."""
        return {date.fromordinal(day): row
                for day, row in sorted(self.by_ordinal.items())}


class HourBuckets:
    """24 local-time slots; slot i covers [i:00:00, i:59:59], summed over
    all days of the corpus."""

    __slots__ = ("slots",)

    def __init__(self):
        self.slots: list[int] = [0] * SLOTS_PER_DAY

    def add(self, hour: int) -> None:
        self.slots[hour] += 1

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
