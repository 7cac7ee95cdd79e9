"""Raw tweet text -> clean token list plus the entity keys the tables count.

The cleaning chain, in fixed order:

1. remove URLs, then extract and remove mentions, then hashtags (URLs
   first so a ``#`` or ``@`` inside a link is never miscounted as a tag or
   mention); mentions are lowercased and hashtags uppercased here, so they
   come out as the exact keys of the mention and hashtag tables
   (``strip_entities``, all that ``tweetlex top`` runs);
2. lowercase;
3. replace every non-alphanumeric character with a space (covers
   punctuation, symbols, and underscores);
4. split on whitespace;
5. shorten runs of 3+ identical characters to 2;
6. drop tokens shorter than 3 characters and URL debris (tokens
   containing "http");
7. drop stopwords.

Steps 2-7 run inside ``_kernels.tokenize``.  It does steps 2-4 of an
ASCII text with one byte-table ``translate`` and ``str.split``, and of
any other text with ``str.lower`` and a Unicode regex; both give the same
tokens on ASCII.
Non-Latin-script tokens are kept: they simply never match an English
lexicon, and runs report a tally of them so the data loss is visible.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from . import _kernels
from .errors import TweetlexError

# The prefix matches case-insensitively in ASCII letters only: under
# re.IGNORECASE "s" would also match U+017F (long s), which str.lower keeps.
_URL_RE = re.compile(r"(?:[hH][tT][tT][pP][sS]?://|[wW][wW][wW]\.)\S+")
# Platform handle/tag grammar: ASCII letters, digits, underscore.
_HANDLE = "[A-Za-z0-9_]+"
_HANDLE_RE = re.compile(_HANDLE)
_MENTION_RE = re.compile(f"@({_HANDLE})")
_HASHTAG_RE = re.compile(f"#({_HANDLE})")


class CleanTweet(NamedTuple):
    """Preprocessed tweet: ordered tokens plus its entity keys.

    Mentions are lowercased and hashtags uppercased, so differently-cased
    spellings of one handle or tag count as one key.  Entity lists preserve
    occurrence multiplicity and text order.
    """

    tokens: list[str]
    mentions: list[str]
    hashtags: list[str]


def strip_entities(text: str) -> tuple[str, list[str], list[str]]:
    """Step 1 of the chain: ``text`` with every URL, mention and hashtag
    replaced by a space, plus the mention and hashtag keys.

    Each scan runs only when ``text`` holds a literal that every match
    needs: "://" or "www." in any ASCII case for a URL, "@" for a
    mention, "#" for a hashtag.
    """
    if "://" in text or "www." in text.lower():
        text = _URL_RE.sub(" ", text)
    mentions = _MENTION_RE.findall(text) if "@" in text else []
    if mentions:
        text = _MENTION_RE.sub(" ", text)
        mentions = [m.lower() for m in mentions]
    hashtags = _HASHTAG_RE.findall(text) if "#" in text else []
    if hashtags:
        text = _HASHTAG_RE.sub(" ", text)
        hashtags = [h.upper() for h in hashtags]
    return text, mentions, hashtags


def preprocess(text: str, stopwords: frozenset[str]) -> CleanTweet:
    """Run the full cleaning chain on one tweet's text."""
    text, mentions, hashtags = strip_entities(text)
    return CleanTweet(_kernels.tokenize(text, stopwords), mentions, hashtags)


def is_mention_key(handle: str) -> bool:
    """Whether ``handle`` can be a mention as preprocess gives it: a whole
    handle of the platform grammar, lowercased."""
    return (_HANDLE_RE.fullmatch(handle) is not None
            and handle == handle.lower())


def load_stopwords(path) -> frozenset[str]:
    """One stopword per line, ``#`` comments and blank lines ignored, a
    leading byte-order mark dropped; entries are lowercased so they compare
    against normalized tokens."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise TweetlexError(f"{path}: invalid UTF-8 byte") from None
    words = set()
    for line in lines:
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        words.add(word.lower())
    return frozenset(words)


def default_stopwords_path() -> Path:
    """Path to the English stopword list shipped with the package."""
    return Path(__file__).with_name("data") / "stopwords_en.txt"
