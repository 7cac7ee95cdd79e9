"""Daily and hourly aggregation of tags.

Both bucket types are mergeable partial aggregates: parallel workers own
private buckets and the merged result is independent of how the corpus was
partitioned.  Timestamps must already be converted to the analysis
timezone before bucketing.
"""

from __future__ import annotations

from datetime import date, datetime

from .tagger import EMOTION_LABELS, OVERALL_LABELS, SENTIMENT_LABELS, Tag

CHANNELS = ("sentiment", "emotion", "overall")

#: (channel, label) of each slot of a DayBuckets row: the sentiment, then
#: the emotion, then the overall labels, each in its canonical order.
DAY_ROW = tuple((channel, label)
                for channel, labels in zip(CHANNELS, (SENTIMENT_LABELS,
                                                      EMOTION_LABELS,
                                                      OVERALL_LABELS))
                for label in labels)

_EMOTION_OFFSET = len(SENTIMENT_LABELS)
_OVERALL_OFFSET = _EMOTION_OFFSET + len(EMOTION_LABELS)

SLOTS_PER_DAY = 24


class DayBuckets:
    """local date -> row of label counts laid out as ``DAY_ROW``."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[date, list[int]] = {}

    def add(self, tag: Tag, when: datetime | date) -> None:
        day = when.date() if isinstance(when, datetime) else when
        row = self.rows.get(day)
        if row is None:
            row = self.rows[day] = [0] * len(DAY_ROW)
        _vector, s, e, o, _tied = tag
        row[s] += 1
        row[_EMOTION_OFFSET + e] += 1
        row[_OVERALL_OFFSET + o] += 1

    def merge(self, other: "DayBuckets") -> "DayBuckets":
        for day, row in other.rows.items():
            mine = self.rows.get(day)
            if mine is None:
                self.rows[day] = row[:]
            else:
                self.rows[day] = [a + b for a, b in zip(mine, row)]
        return self

    def dates(self) -> list[date]:
        return sorted(self.rows)

    def totals(self) -> list[int]:
        """Per-slot sums over all days, laid out as ``DAY_ROW``."""
        return list(map(sum, zip([0] * len(DAY_ROW), *self.rows.values())))

    def __eq__(self, other) -> bool:
        return isinstance(other, DayBuckets) and self.rows == other.rows


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

    def __eq__(self, other) -> bool:
        return isinstance(other, HourBuckets) and self.slots == other.slots


def peak_slot(buckets: HourBuckets) -> int | None:
    """Smallest slot index attaining the maximum count; None when the
    buckets hold no data at all."""
    best = max(buckets.slots)
    if best == 0:
        return None
    return buckets.slots.index(best)
