"""Labeling rules: max-count channels, neutral fallback, tie semantics."""

import pytest
from hypothesis import given, strategies as st

from tweetlex import _kernels
from tweetlex.lexicon import Category
from tweetlex.tagger import (
    EMOTION_LABELS,
    EMOTION_NEUTRAL,
    NEUTRAL,
    OVERALL_LABELS,
    OVERALL_NEUTRAL,
    SENTIMENT_LABELS,
    SENTIMENT_NEUTRAL,
    tag_tweet,
)

from corpus_gen import TOY_LEXICON
from tag_helpers import label_names, tag_vector


def _vector(**counts) -> list[int]:
    vector = [0] * len(Category)
    for name, value in counts.items():
        vector[int(Category[name.upper()])] = value
    return vector


def test_label_order_constants():
    assert SENTIMENT_LABELS == ("positive", "negative", "neutral")
    assert EMOTION_LABELS == ("joy", "trust", "anticipation", "surprise",
                              "fear", "sadness", "anger", "disgust", "neutral")
    assert OVERALL_LABELS == ("positive", "negative", "joy", "trust",
                              "anticipation", "surprise", "fear", "sadness",
                              "anger", "disgust", "neutral")
    assert SENTIMENT_LABELS[SENTIMENT_NEUTRAL] == NEUTRAL
    assert EMOTION_LABELS[EMOTION_NEUTRAL] == NEUTRAL
    assert OVERALL_LABELS[OVERALL_NEUTRAL] == NEUTRAL


LABEL_CASES = [
    # counts, sentiment, emotion, overall, tied
    (dict(positive=2, joy=1, trust=1), "positive", "joy", "positive", True),
    (dict(negative=3, sadness=3), "negative", "sadness", "negative", True),
    (dict(), "neutral", "neutral", "neutral", False),
    (dict(joy=1), "neutral", "joy", "joy", False),
    (dict(positive=1, negative=1), "positive", "neutral", "positive", True),
    (dict(fear=2, sadness=2), "neutral", "fear", "fear", True),
    (dict(anger=1, disgust=1), "neutral", "anger", "anger", True),
    (dict(positive=1, joy=2), "positive", "joy", "joy", False),
    (dict(negative=1, trust=1, anticipation=1), "negative", "trust", "negative", True),
    (dict(surprise=5), "neutral", "surprise", "surprise", False),
]


@pytest.mark.parametrize("named,sent,emo,overall,tied", LABEL_CASES)
def test_label_table(named, sent, emo, overall, tied):
    got = label_names(tag_vector(_vector(**named)))
    assert got == (sent, emo, overall, tied)


class TestTagTweet:
    def test_hand_traced_example(self, toy_lexicon):
        # good: positive+joy; love: positive+joy+trust; bad: negative+sadness.
        tag = tag_tweet(["good", "love", "bad"], toy_lexicon)
        vector = tag[0]
        assert vector[Category.POSITIVE] == 2
        assert vector[Category.JOY] == 2
        assert vector[Category.NEGATIVE] == 1
        # overall ties positive(2) against joy(2); sentiments come first.
        assert label_names(tag) == ("positive", "joy", "positive", True)

    def test_cross_channel_tie(self, toy_lexicon):
        # hope: positive+anticipation+trust; fear: negative+fear.
        tag = tag_tweet(["hope", "fear"], toy_lexicon)
        assert label_names(tag) == ("positive", "trust", "positive", True)

    def test_unknown_tokens_are_neutral(self, toy_lexicon):
        tag = tag_tweet(["zzyzx", "qwerty"], toy_lexicon)
        assert tag[1:] == (SENTIMENT_NEUTRAL, EMOTION_NEUTRAL,
                           OVERALL_NEUTRAL, False)
        assert label_names(tag) == (NEUTRAL, NEUTRAL, NEUTRAL, False)
        assert sum(tag[0]) == 0

    def test_blank_tweet_is_neutral(self, toy_lexicon):
        vector, _s, _e, o, tied = tag_tweet([], toy_lexicon)
        assert vector == [0] * len(Category)
        assert o == OVERALL_NEUTRAL
        assert tied is False

    def test_repeated_tokens_count_each_occurrence(self, toy_lexicon):
        # fine: positive only; bad: negative+sadness.  positive reaches 2
        # with no other category matching it, so no channel ties.
        tag = tag_tweet(["fine", "fine", "bad"], toy_lexicon)
        assert tag[0][Category.POSITIVE] == 2
        assert tag[0][Category.NEGATIVE] == 1
        assert label_names(tag) == ("positive", "sadness", "positive", False)


_tokens = st.lists(
    st.sampled_from(sorted(TOY_LEXICON) + ["gst", "rollout", "zzz"]),
    max_size=12,
)


@given(tokens=_tokens)
def test_count_categories_agrees_with_kernel(tokens, toy_lexicon):
    # Count each token's TOY_LEXICON labels by hand; tag_tweet's vector
    # comes from the kernel's bitmask counting.
    by_category = [0] * len(Category)
    for tok in tokens:
        for label in TOY_LEXICON.get(tok, ()):
            by_category[Category[label.upper()]] += 1
    vector = tag_tweet(tokens, toy_lexicon)[0]
    assert vector == by_category
    assert vector == _kernels.count_masks(tokens, toy_lexicon)


def _naive_argmax(vector, indices):
    mx = max(vector[i] for i in indices)
    if mx == 0:
        return None, False
    winners = [i for i in indices if vector[i] == mx]
    return winners[0], len(winners) >= 2


@given(vector=st.lists(st.integers(0, 5), min_size=10, max_size=10))
def test_argmax_matches_naive_reimplementation(vector):
    got, s, e, o, tied = tag_vector(vector)
    assert got == vector
    channels = []
    for indices, picked, neutral, offset in (
            ((0, 1), s, SENTIMENT_NEUTRAL, 0),
            (tuple(range(2, 10)), e, EMOTION_NEUTRAL, 2),
            (tuple(range(10)), o, OVERALL_NEUTRAL, 0)):
        winner, tie = _naive_argmax(vector, indices)
        assert picked == (neutral if winner is None else winner - offset)
        channels.append(tie)
    assert tied == any(channels)


@given(vector=st.lists(st.integers(0, 5), min_size=10, max_size=10))
def test_label_channels_consistent(vector):
    sent, emo, overall, tied = label_names(tag_vector(vector))
    assert sent in SENTIMENT_LABELS
    assert emo in EMOTION_LABELS
    assert overall in OVERALL_LABELS
    if sent == NEUTRAL and emo == NEUTRAL:
        assert overall == NEUTRAL
        assert tied is False
    if overall == NEUTRAL:
        assert sent == NEUTRAL and emo == NEUTRAL
