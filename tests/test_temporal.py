"""Daily/hourly bucket tests: counting, merging, partition independence."""

import datetime as dt
import random

from hypothesis import given, strategies as st

from tweetlex.ingest import IST
from tweetlex.tagger import EMOTION_LABELS, OVERALL_LABELS, SENTIMENT_LABELS
from tweetlex.temporal import (
    CHANNELS,
    DAY_ROW,
    DayBuckets,
    HourBuckets,
    peak_slot,
    sum_rows,
)

_LABEL_MENU = (
    ("positive", "joy", "positive"),
    ("negative", "sadness", "negative"),
    ("neutral", "neutral", "neutral"),
    ("positive", "neutral", "positive"),
)


def _result(kind=0):
    sent, emo, overall = _LABEL_MENU[kind % len(_LABEL_MENU)]
    return ([0] * 10, SENTIMENT_LABELS.index(sent), EMOTION_LABELS.index(emo),
            OVERALL_LABELS.index(overall), False)


def _channel(buckets, day, channel) -> dict[str, int]:
    """The nonzero label counts of one channel on one day."""
    return {label: n for (ch, label), n in zip(DAY_ROW, buckets.rows[day])
            if ch == channel and n}


def _channel_totals(buckets) -> dict[str, int]:
    """Per-channel tweet counts read from the per-slot sums."""
    sums = dict.fromkeys(CHANNELS, 0)
    for (channel, _label), n in zip(DAY_ROW, sum_rows(buckets.rows.values())):
        sums[channel] += n
    return sums


def _when(day=1, hour=12) -> dt.datetime:
    return dt.datetime(2017, 7, day, hour, 30, 0, tzinfo=IST)


class TestDayBuckets:
    def test_add_counts_once_per_channel(self):
        buckets = DayBuckets()
        buckets.add(_result(0), _when(day=1))
        buckets.add(_result(1), _when(day=1))
        buckets.add(_result(0), _when(day=2))
        july1, july2 = dt.date(2017, 7, 1), dt.date(2017, 7, 2)
        assert _channel(buckets, july1, "sentiment") == \
            {"positive": 1, "negative": 1}
        assert _channel(buckets, july1, "emotion") == {"joy": 1, "sadness": 1}
        assert _channel(buckets, july1, "overall") == \
            {"positive": 1, "negative": 1}
        assert _channel(buckets, july2, "overall") == {"positive": 1}
        assert sorted(buckets.rows) == [july1, july2]
        assert _channel_totals(buckets) == dict.fromkeys(CHANNELS, 3)

    def test_every_channel_totals_match(self):
        buckets = DayBuckets()
        for i in range(17):
            buckets.add(_result(i), _when(day=1 + i % 3))
        per_channel = {
            ch: sum(sum(_channel(buckets, day, ch).values())
                    for day in sorted(buckets.rows))
            for ch in CHANNELS
        }
        assert set(per_channel.values()) == {17}


class TestHourBuckets:
    def test_slot_edges(self):
        buckets = HourBuckets()
        buckets.add(dt.datetime(2017, 7, 1, 0, 0, 0, tzinfo=IST))
        buckets.add(dt.datetime(2017, 7, 1, 23, 59, 59, tzinfo=IST))
        buckets.add(dt.datetime(2017, 7, 2, 23, 0, 0, tzinfo=IST))
        assert buckets.slots[0] == 1
        assert buckets.slots[23] == 2
        assert buckets.total == 3

    def test_peak_slot_earliest_max(self):
        buckets = HourBuckets()
        for hour in (5, 9, 9, 17, 17):
            buckets.add(_when(hour=hour))
        assert peak_slot(buckets) == 9

    def test_peak_slot_none_when_empty(self):
        assert peak_slot(HourBuckets()) is None


def _population(n, seed):
    rng = random.Random(seed)
    return [(_result(rng.randrange(4)), _when(day=rng.randrange(1, 8),
                                              hour=rng.randrange(24)))
            for _ in range(n)]


def _bucket(pop):
    """Day and hour buckets filled the way the chunk worker fills them."""
    days, hours = DayBuckets(), HourBuckets()
    for tag, when in pop:
        days.add(tag, when)
        hours.add(when)
    return days, hours


@given(n=st.integers(0, 120), seed=st.integers(0, 999), cut=st.integers(0, 120))
def test_split_merge_equals_whole(n, seed, cut):
    pop = _population(n, seed)
    cut = min(cut, n)
    whole_days, whole_hours = _bucket(pop)
    merged_days, merged_hours = _bucket(pop[:cut])
    right_days, right_hours = _bucket(pop[cut:])
    merged_days.merge(right_days)
    merged_hours.merge(right_hours)
    assert merged_days.rows == whole_days.rows
    assert merged_hours.slots == whole_hours.slots
    assert _channel_totals(whole_days) == dict.fromkeys(CHANNELS, n)
    assert whole_hours.total == n


@given(n=st.integers(0, 120), seed=st.integers(0, 999))
def test_day_and_hour_totals_agree(n, seed):
    days, hours = _bucket(_population(n, seed))
    assert _channel_totals(days) == dict.fromkeys(CHANNELS, hours.total)
    assert hours.total == n
