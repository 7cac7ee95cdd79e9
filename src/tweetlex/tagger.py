"""Per-tweet category counts and max-count labeling.

Each tweet gets three labels:

* sentiment: argmax over {positive, negative}, ``neutral`` when both are 0,
  ties broken toward positive;
* emotion: argmax over the eight emotions, ``neutral`` when all are 0, ties
  broken in the canonical order joy, trust, anticipation, surprise, fear,
  sadness, anger, disgust;
* overall: argmax over all ten categories, ties broken sentiments-first
  then the emotion order above.

``tied`` is set when any of the applied argmaxes had two or more maximal
categories.

Counts come from a tweet's token list, as ``preprocess`` gives it, and
the word -> category-bitmask dict ``load_lexicon`` returns.  Labels stay
ints inside the pipeline: each is an index into its channel's label tuple
below, whose last entry is ``neutral``.  Only the writers turn them into
strings.
"""

from __future__ import annotations

from . import _kernels
from .lexicon import EMOTIONS, SENTIMENTS, Category

NEUTRAL = "neutral"

#: Channel label orders used throughout reports.
SENTIMENT_LABELS = tuple(c.label for c in SENTIMENTS) + (NEUTRAL,)
EMOTION_LABELS = tuple(c.label for c in EMOTIONS) + (NEUTRAL,)
OVERALL_LABELS = tuple(c.label for c in Category) + (NEUTRAL,)

#: Neutral label index of each channel.
SENTIMENT_NEUTRAL = len(SENTIMENT_LABELS) - 1
EMOTION_NEUTRAL = len(EMOTION_LABELS) - 1
OVERALL_NEUTRAL = len(OVERALL_LABELS) - 1

_N_SENTIMENTS = len(SENTIMENTS)

#: One tweet's tags: the 10-count vector indexed by ``Category``, the
#: sentiment, emotion and overall label indices, and the tie flag.
Tag = tuple[list[int], int, int, int, bool]


def tag_tweet(tokens: list[str], masks: dict[str, int]) -> Tag:
    """Tag one preprocessed tweet's tokens against the word -> category-mask
    dict that ``load_lexicon`` returns; an empty list is all-neutral."""
    vector = _kernels.count_masks(tokens, masks)
    # A sentiment's label index is its Category value (positive 0,
    # negative 1); a tie goes to positive.
    positive, negative = vector[0], vector[1]
    emotions = vector[_N_SENTIMENTS:]
    e_max = max(emotions)
    if positive >= negative:
        s_max = positive
        s = 0 if positive else SENTIMENT_NEUTRAL
        tied = positive == negative and positive > 0
    else:
        s_max, s, tied = negative, 1, False
    if e_max:
        e = emotions.index(e_max)
        tied = tied or emotions.count(e_max) > 1
    else:
        e = EMOTION_NEUTRAL
    if s_max >= e_max:
        # Sentiments precede emotions in the overall order, so they win
        # an overall tie; a sentiment index is also its Category index.
        o = s if s_max else OVERALL_NEUTRAL
        tied = tied or (s_max == e_max and s_max > 0)
    else:
        o = _N_SENTIMENTS + e
    return vector, s, e, o, tied
