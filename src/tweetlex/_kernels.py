"""The per-tweet hot path: tokenizing and category counting.

``preprocess`` and ``tagger`` call ``tokenize`` and ``count_masks``
through this module, so a caller that replaces either attribute (the
benchmark's tracer does) sees every call.  ``BACKEND`` names the kernel
for the benchmark's run record; there is only this one.
"""

from __future__ import annotations

import io
import re

# A character then two copies of it.  No pattern here repeats a
# backreference: ``re`` would keep about 80 bytes for each character of a run.
_REPEAT_RE = re.compile(r"(.)\1\1")
# The same for a token character, the alphabet of ``_TOKEN_RE`` below.
_TOKEN_REPEAT_RE = re.compile(r"([^\W_])\1\1")
# Searched for from inside a run: the run's last character.
_RUN_END_RE = re.compile(r"(.)(?!\1)")
# A token is a maximal run of alphanumeric characters (str.isalnum()):
# word characters minus the underscore.
_TOKEN_RE = re.compile(r"[^\W_]+")
# For ASCII bytes: lowercase each letter, keep each digit, and turn every
# other byte into a space.  Over ASCII, str.isalnum() is exactly [A-Za-z0-9],
# the alphabet of _TOKEN_RE.
_ASCII_TABLE = bytes(ord(chr(b).lower()) if chr(b).isalnum() else 0x20
                     for b in range(256))

BACKEND = "pure"


def tokenize(text: str, stopwords) -> list[str]:
    """Lowercase, strip punctuation, split, shorten every run of 3+
    identical letters or digits to exactly 2, then drop tokens that are
    shorter than 3 characters, contain "http" (URL debris), or are
    stopwords.

    Collapsing the whole text before splitting gives the same tokens as
    collapsing each token: a run of one repeated character lies either
    wholly inside a token or wholly between tokens.  A run between tokens
    only separates them, and would separate the same tokens if shortened,
    so it is left alone.  Entity removal leaves such a run of spaces for
    each chain of mentions or hashtags, so many texts hold a separator
    run and few a letter or digit run.  The search for any run is the
    cheap gate; the token class is checked only from the first run it
    finds, as ``.`` matches every token character.  A letter or digit run
    keeps its first two characters, and the text resumes after its last;
    no search keeps state per character, and the kept pieces go into one
    growing buffer, not one string object each, so memory stays within a
    small multiple of the text's length however many runs it holds.

    An ASCII text is lowercased and has every non-alphanumeric character
    turned into a space in one byte-table ``translate``, and is then split
    with ``str.split``.  Its tokens are the same as the regex path's: on
    ASCII, ``str.lower`` maps only ``A``-``Z`` and ``[^\\W_]`` is exactly
    ``[A-Za-z0-9]``, so the translated text holds only ``[a-z0-9 ]`` and its
    whitespace-separated words are the maximal letter and digit runs.
    Turning separators into spaces changes no letter or digit run, so the
    collapse shortens the same runs.  Any other text keeps ``lower`` and
    ``findall``: they follow Unicode's ``isalnum``, and ``lower`` depends
    on context for some characters (the final sigma).
    """
    ascii_text = text.isascii()
    if ascii_text:
        text = text.encode("ascii").translate(_ASCII_TABLE).decode("ascii")
    else:
        text = text.lower()
    run = _REPEAT_RE.search(text)
    if run and (run := _TOKEN_REPEAT_RE.search(text, run.start())):
        kept, end = io.StringIO(), 0
        while run:
            kept.write(text[end:run.start() + 2])
            end = _RUN_END_RE.search(text, run.start() + 2).end()
            run = _TOKEN_REPEAT_RE.search(text, end)
        kept.write(text[end:])
        text = kept.getvalue()
    tokens = text.split() if ascii_text else _TOKEN_RE.findall(text)
    return [tok for tok in tokens
            if len(tok) >= 3 and "http" not in tok and tok not in stopwords]


def count_masks(tokens: list[str], masks: dict[str, int]) -> list[int]:
    """Per-category association counts over ``tokens``.

    Returns a 10-slot list indexed by ``Category`` value; each token
    occurrence contributes 1 to every category set in its mask.
    """
    counts = [0] * 10
    get = masks.get
    for tok in tokens:
        m = get(tok, 0)
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
    return counts
