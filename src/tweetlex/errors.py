"""Exception types shared across the package.

The CLI maps ``TweetlexError`` (bad config, malformed data files) to exit
code 1 and ``OSError`` (unreadable/unwritable paths) to exit code 2.
"""


class TweetlexError(Exception):
    """Base class for fatal configuration or data-format errors."""


class LexiconError(TweetlexError):
    """Malformed lexicon file (bad category, bad flag, duplicate row)."""


class GazetteerError(TweetlexError):
    """Malformed gazetteer file (a reserved or unwritable region name, a bad
    priority)."""


class CorpusFormatError(TweetlexError):
    """Input corpus is not in the declared format (e.g. wrong CSV header)."""


class OracleMismatchError(TweetlexError):
    """Differential check against the reference pipeline failed."""
