"""Kernel unit tests, run on the kernel module and on the character-walk
implementation of its contract, plus properties that check the tokenizer
against a plain regex tokenizer and the mask counts against a dict scan."""

import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from tweetlex import _kernels
from tweetlex.preprocess import strip_entities

STOP = frozenset({"the", "and", "for"})


@pytest.mark.parametrize("raw,expected", [
    ("", ""),
    ("abc", "abc"),
    ("aabb", "aabb"),
    ("aaa", "aa"),
    ("aaaa", "aa"),
    ("aaabbbccc", "aabbcc"),
    ("ababab", "ababab"),
    ("xaaay", "xaay"),
    ("ееееда", "ееда"),  # Cyrillic е
    ("😀😀😀", "😀😀"),
    ("\U0001d41a" * 4, "\U0001d41a" * 2),  # non-BMP letter
])
def test_collapse_repeats(kernel, raw, expected):
    # Framed by "pre" and "fix" so that no token is too short to keep,
    # the collapsed text comes back split at its non-alphanumerics.  (A run
    # of emoji only splits: no emoji reaches a token.)
    want = re.findall(r"[^\W_]+", f"pre{expected}fix")
    assert kernel.tokenize(f"pre{raw}fix", STOP) == want


@pytest.mark.parametrize("text,expected", [
    ("Hello world", ["hello", "world"]),
    ("the cat and the hat", ["cat", "hat"]),
    ("soooo gooood", ["soo", "good"]),
    # collapse happens first, so ccc -> cc and dddd -> dd both drop
    ("a bb ccc dddd", []),
    ("a bb code word", ["code", "word"]),
    ("http leftovers httpx", ["leftovers"]),
    ("Tax-reform now!", ["tax", "reform", "now"]),
    ("foo_bar", ["foo", "bar"]),
    ("", []),
    ("!!!", []),
    ("中国好 else", ["中国好", "else"]),
])
def test_tokenize(kernel, text, expected):
    assert kernel.tokenize(text, STOP) == expected


def test_count_masks(kernel, toy_lexicon):
    tokens = ["good", "good", "bad", "nonword", "love"]
    vec = kernel.count_masks(tokens, toy_lexicon)
    # positive: good x2 + love; negative: bad; joy: good x2 + love;
    # trust: love; sadness: bad
    assert vec == [3, 1, 3, 1, 0, 0, 0, 1, 0, 0]


def test_count_masks_empty(kernel, toy_lexicon):
    assert kernel.count_masks([], toy_lexicon) == [0] * 10


def test_tokenize_rejects_nothing_valid(kernel):
    # tokens keep digits and non-Latin letters
    assert kernel.tokenize("abc123 987", STOP) == ["abc123", "987"]


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_token_invariants(text):
    for tok in _kernels.tokenize(text, STOP):
        assert len(tok) >= 3
        assert "http" not in tok
        assert tok not in STOP
        assert all(c.isalnum() and c != "_" for c in tok)


@given(st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_tokenize_is_idempotent(text):
    tokens = _kernels.tokenize(text, STOP)
    assert _kernels.tokenize(" ".join(tokens), STOP) == tokens


@given(st.lists(st.sampled_from(["good", "bad", "love", "hope", "terror",
                                 "fear", "zzz"]), max_size=40))
@settings(max_examples=200, deadline=None)
def test_count_masks_matches_dict_scan(toy_lexicon, tokens):
    got = _kernels.count_masks(tokens, toy_lexicon)
    want = [0] * 10
    for tok in tokens:
        mask = toy_lexicon.get(tok, 0)
        for bit in range(10):
            if mask >> bit & 1:
                want[bit] += 1
    assert got == want


@given(st.lists(st.sampled_from(["good", "bad", "love", "hope", "terror"]),
                max_size=30))
@settings(max_examples=100, deadline=None)
def test_count_masks_is_permutation_invariant(toy_lexicon, tokens):
    fwd = _kernels.count_masks(tokens, toy_lexicon)
    rev = _kernels.count_masks(list(reversed(tokens)), toy_lexicon)
    assert fwd == rev


# Text mixing full-range unicode with the fragments that exercise the
# tokenizer's edge paths (URL-ish prefixes, separators, repeats).
_tricky_text = st.lists(
    st.one_of(
        st.text(max_size=6),
        st.sampled_from(["http", "www.", "://", "_", "@", "#", ".",
                         "aaa", "  ", "İ", "ß", "ẞ", "大大大", "é́́"]),
    ),
    max_size=20,
).map("".join)


# Long runs of one character: separators (space, "!", "_", tab, an emoji,
# and newline, which "." does not match, so a run of newlines is never
# collapsed), letters, digits and non-BMP characters.  Joined, they give
# texts whose first run is a separator run and a later one a letter run.
_runs = st.builds(
    str.__mul__,
    st.one_of(st.characters(min_codepoint=0x10000),
              st.sampled_from(" !_\t\n😀"),
              st.sampled_from("aé0123456789")),
    st.integers(1, 40),
)

# ASCII texts, which the tokenizer splits through its byte table: any
# of the 128 code points (controls such as \x0b, \x0c, \x1c-\x1f and \x7f,
# which str.split treats as whitespace, and "_"), mixed with upper- and
# lower-case words and runs of one letter or digit.  The second strategy
# joins them with long runs of any one ASCII character, as ``_runs`` does
# for full-range text.
_alnum = string.ascii_letters + string.digits
_ascii_text = st.lists(
    st.one_of(
        st.text(st.characters(max_codepoint=0x7F), max_size=6),
        st.text(st.sampled_from(_alnum), min_size=1, max_size=8),
        st.builds(str.__mul__, st.sampled_from(_alnum), st.integers(1, 8)),
        st.sampled_from(["HTTP", "http", "_", "\x0b", "\x0c", "\x1c",
                         "\x1f", "\x7f"]),
    ),
    max_size=20,
).map("".join)
_ascii_runs = st.builds(str.__mul__, st.characters(max_codepoint=0x7F),
                        st.integers(1, 40))

_run_text = st.one_of(
    _tricky_text,
    _ascii_text,
    st.lists(st.one_of(_runs, _tricky_text), max_size=6).map("".join),
    st.lists(st.one_of(_ascii_runs, _ascii_text), max_size=6).map("".join),
)


def _tokenize_by_sub(text: str, stopwords) -> list[str]:
    """The tokenizer with its repeat collapse as one unconditional
    ``(.)\\1{2,}`` substitution."""
    collapsed = re.sub(r"(.)\1{2,}", r"\1\1", text.lower())
    return [tok for tok in re.findall(r"[^\W_]+", collapsed)
            if len(tok) >= 3 and "http" not in tok and tok not in stopwords]


# Free text and short runs of any one character, framed by "pre" and "fix"
# so that no collapsed run is too short to survive as (part of) a token.
_framed_text = st.one_of(
    st.text(max_size=60),
    st.builds(str.__mul__, st.characters(), st.integers(2, 8)),
).map("pre{}fix".format)


@given(st.one_of(_run_text, _framed_text))
@example("   goooood!!!")
@example("__\t\t\t😀😀😀 x 1111 bbbb")
@settings(max_examples=500, deadline=None)
def test_pure_tokenize_matches_unguarded_sub(text):
    assert _kernels.tokenize(text, STOP) == _tokenize_by_sub(text, STOP)


class _CountingPattern:
    """A compiled pattern that records each of its ``search``, ``sub`` and
    ``findall`` calls as a (method, pattern) pair."""

    def __init__(self, pattern: re.Pattern, calls: list):
        self._pattern, self._calls = pattern, calls

    def __getattr__(self, name):
        return getattr(self._pattern, name)

    def search(self, *args, **kwargs):
        self._calls.append(("search", self._pattern.pattern))
        return self._pattern.search(*args, **kwargs)

    def sub(self, *args, **kwargs):
        self._calls.append(("sub", self._pattern.pattern))
        return self._pattern.sub(*args, **kwargs)

    def findall(self, *args, **kwargs):
        self._calls.append(("findall", self._pattern.pattern))
        return self._pattern.findall(*args, **kwargs)


def _count_pattern_calls(monkeypatch) -> list:
    """Wrap every compiled pattern of the kernel module; return the list
    its ``search``, ``sub`` and ``findall`` calls are recorded in."""
    calls = []
    for name, value in list(vars(_kernels).items()):
        if isinstance(value, re.Pattern):
            monkeypatch.setattr(_kernels, name, _CountingPattern(value, calls))
    return calls


@pytest.mark.parametrize("raw,run_ends,tokens", [
    # Entity removal leaves a run of spaces; "!!!" is another separator run.
    # A letter or digit run is shortened after a search for its last
    # character; a separator run is left as it is.
    ("gst @a @b #c rollout!!!", 0, ["gst", "rollout"]),
    ("@a @b goooood", 1, ["good"]),
])
def test_pure_tokenize_rewrites_only_letter_or_digit_runs(
        monkeypatch, raw, run_ends, tokens):
    calls = _count_pattern_calls(monkeypatch)
    text, _mentions, _hashtags = strip_entities(raw)
    assert _kernels.tokenize(text, STOP) == tokens
    assert calls.count(("search", _kernels._RUN_END_RE.pattern)) == run_ends


@pytest.mark.parametrize("text,findalls,tokens", [
    # ASCII, with a control character between two words: the byte table
    # and str.split, no token regex.
    ("GST\x1frollout!!! goooood", 0, ["gst", "rollout", "good"]),
    ("café rollout", 1, ["café", "rollout"]),
])
def test_pure_tokenize_runs_the_token_regex_only_on_non_ascii(
        monkeypatch, text, findalls, tokens):
    calls = _count_pattern_calls(monkeypatch)
    assert _kernels.tokenize(text, STOP) == tokens
    assert calls.count(("findall", _kernels._TOKEN_RE.pattern)) == findalls
