"""Helpers for tests that read tag_tweet's int labels or a lexicon's masks.

``tag_vector`` drives the production tagger with a chosen count vector:
each category's own label is a word carrying just that category.
"""

from tweetlex.lexicon import Category
from tweetlex.tagger import (EMOTION_LABELS, OVERALL_LABELS,
                             SENTIMENT_LABELS, tag_tweet)

VECTOR_MASKS = {c.label: 1 << c for c in Category}


def label_names(tag) -> tuple[str, str, str, bool]:
    """(sentiment, emotion, overall, tied) with the labels as strings."""
    _vector, s, e, o, tied = tag
    return SENTIMENT_LABELS[s], EMOTION_LABELS[e], OVERALL_LABELS[o], tied


def label_masks(labels_by_word) -> dict[str, int]:
    """The ``load_lexicon`` masks of a word -> category-labels mapping."""
    return {word: sum(1 << Category[label.upper()] for label in labels)
            for word, labels in labels_by_word.items()}


def tag_vector(vector: list[int]):
    """tag_tweet's result for a tweet whose category counts are ``vector``."""
    tokens = [c.label for c in Category for _ in range(vector[c])]
    return tag_tweet(tokens, VECTOR_MASKS)
