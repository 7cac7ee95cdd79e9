"""tweetlex: deterministic lexicon-based emotion analysis for tweet corpora.

The package turns a corpus of tweets (JSONL or CSV) into category counts,
per-tweet sentiment/emotion labels, daily and hourly activity buckets,
mention/hashtag frequency tables, and region-level aggregates.  Everything is
deterministic: the same inputs produce byte-identical output files.
The stages pass plain data: a record is an ``(id, local time, text,
location)`` tuple, a cleaned tweet a ``CleanTweet`` named tuple of its
tokens and its final mention and hashtag keys, the lexicon a word ->
category-bitmask dict, and the gazetteer a ``spatial.Rules`` tuple of
``(pattern, region)`` pairs.  ``tag_tweet`` takes the token list.

Hot loops (tokenization and category counting) live in tweetlex._kernels,
in pure Python; ``BACKEND`` names that kernel (``"pure"``).
"""

from .errors import (
    CorpusFormatError,
    GazetteerError,
    LexiconError,
    OracleMismatchError,
    TweetlexError,
)
from .lexicon import Category, load_lexicon
from .preprocess import CleanTweet, load_stopwords, preprocess
from .tagger import Tag, tag_tweet
from ._kernels import BACKEND

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Category",
    "CleanTweet",
    "CorpusFormatError",
    "GazetteerError",
    "LexiconError",
    "OracleMismatchError",
    "Tag",
    "TweetlexError",
    "__version__",
    "load_lexicon",
    "load_stopwords",
    "preprocess",
    "tag_tweet",
]
