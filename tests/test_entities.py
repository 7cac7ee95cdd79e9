"""Frequency-table tests: ordering, merging, case folding, sub-corpus filter."""

import pytest
from hypothesis import given, strategies as st

from tweetlex.preprocess import CleanTweet
from tweetlex.tagger import (EMOTION_NEUTRAL, OVERALL_NEUTRAL,
                             SENTIMENT_NEUTRAL)
from tweetlex.entities import (
    FrequencyTable,
    filter_by_mention,
    hashtag_frequencies,
    mention_frequencies,
    top_n,
)


def _tweet(tid="t", mentions=(), hashtags=()) -> CleanTweet:
    return CleanTweet(tid, ["word"], list(hashtags), list(mentions), [], False)


def _result(tid):
    # An all-neutral tag whose vector carries the tweet's number, so the
    # test can tell which tags came through.
    return ([int(tid)] + [0] * 9, SENTIMENT_NEUTRAL, EMOTION_NEUTRAL,
            OVERALL_NEUTRAL, False)


class TestFrequencyTable:
    def test_add_update_count(self):
        table = FrequencyTable()
        table.add("a")
        table.add("a", 2)
        table.update(["b", "a", "c"])
        assert table.count("a") == 4
        assert table.count("b") == 1
        assert table.count("missing") == 0
        assert table.total_occurrences == 6
        assert table.distinct_keys == 3
        assert len(table) == 3
        assert "a" in table and "missing" not in table

    def test_sort_count_desc_then_key_asc(self):
        table = FrequencyTable()
        table.update(["beta", "alpha", "gamma", "beta", "alpha", "delta"])
        assert table.items_sorted() == [
            ("alpha", 2), ("beta", 2), ("delta", 1), ("gamma", 1)]

    def test_top_n_truncates(self):
        table = FrequencyTable()
        table.update(["a", "a", "b", "c"])
        assert top_n(table, 2) == [("a", 2), ("b", 1)]
        assert top_n(table, 10) == [("a", 2), ("b", 1), ("c", 1)]

    @pytest.mark.parametrize("n", [0, -1])
    def test_top_n_rejects_nonpositive(self, n):
        with pytest.raises(ValueError):
            top_n(FrequencyTable(), n)

    @given(keys=st.lists(st.sampled_from("abcde"), max_size=40),
           cut=st.integers(0, 40))
    def test_merge_equals_whole(self, keys, cut):
        cut = min(cut, len(keys))
        whole = FrequencyTable()
        whole.update(keys)
        left, right = FrequencyTable(), FrequencyTable()
        left.update(keys[:cut])
        right.update(keys[cut:])
        assert left.merge(right) == whole
        assert whole.total_occurrences == len(keys)


class TestEntityCounting:
    def test_mentions_counted_per_occurrence(self):
        tweets = [
            _tweet("1", mentions=["modi", "modi", "pmo"]),
            _tweet("2", mentions=["modi"]),
            _tweet("3"),
        ]
        table = mention_frequencies(tweets)
        assert table.count("modi") == 3
        assert table.count("pmo") == 1
        assert table.total_occurrences == 4

    def test_hashtags_fold_to_uppercase(self):
        tweets = [
            _tweet("1", hashtags=["GST", "gst", "GstRollout"]),
            _tweet("2", hashtags=["gStRoLlOuT"]),
        ]
        table = hashtag_frequencies(tweets)
        assert table.count("GST") == 2
        assert table.count("GSTROLLOUT") == 2
        assert table.distinct_keys == 2


class TestFilterByMention:
    def test_yields_once_per_matching_tweet(self):
        pairs = [
            (_tweet("1", mentions=["modi", "modi"]), _result("1")),
            (_tweet("2", mentions=["pmo"]), _result("2")),
            (_tweet("3", mentions=["modi"]), _result("3")),
            (_tweet("4"), _result("4")),
        ]
        got = [tag[0][0] for tag in filter_by_mention(pairs, "modi")]
        assert got == [1, 3]

    def test_handle_matching_is_exact(self):
        pairs = [(_tweet("1", mentions=["modiji"]), _result("1"))]
        assert list(filter_by_mention(pairs, "modi")) == []
