"""Cleaning-chain tests: golden fixtures, extraction order, blank marking.

Every fixture in golden_fixtures.FIXTURES was traced by hand before the
pipeline ran on it.  The suite runs each one through each implementation
of the kernel contract by swapping the tokenize entry point the preprocess
module dispatches through.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from tweetlex import _kernels
from tweetlex.preprocess import (
    CleanTweet,
    load_stopwords,
    preprocess,
)
from tweetlex.report import AnalyzeConfig, _may_mention, run_analyze

from golden_fixtures import FIXTURES, STOPWORDS


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: repr(fx.text)[:48])
def test_golden_fixture(fx, kernel, monkeypatch):
    monkeypatch.setattr(_kernels, "tokenize", kernel.tokenize)
    clean = preprocess(fx.text, STOPWORDS)
    assert tuple(clean.tokens) == fx.tokens
    assert tuple(clean.mentions) == (fx.mentions or ())
    assert clean.hashtags == [h.upper() for h in fx.hashtags or ()]


def test_fixture_corpus_is_large_enough():
    # The golden suite is only meaningful if it actually covers the chain.
    assert len(FIXTURES) >= 25


class TestExtractionOrder:
    """URLs are stripped before mentions and hashtags, so handles or tags
    embedded in a link never leak into the entity lists."""

    def test_mention_inside_url_not_extracted(self):
        clean = preprocess("see http://x.com/@user now", STOPWORDS)
        assert clean.mentions == []
        assert clean.tokens == ["see", "now"]

    def test_hashtag_inside_url_not_extracted(self):
        clean = preprocess("docs at www.ex.com/#frag here", STOPWORDS)
        assert clean.hashtags == []
        assert clean.tokens == ["docs", "here"]

    def test_mention_stripped_before_hashtag_scan(self):
        # "@tag#x": the mention regex consumes "tag" first, leaving "#x".
        clean = preprocess("@tag#x fine", STOPWORDS)
        assert clean.mentions == ["tag"]
        assert clean.hashtags == ["X"]
        assert clean.tokens == ["fine"]

    def test_entities_keep_multiplicity_and_order(self):
        clean = preprocess("@A @a #Tag #tag @A", STOPWORDS)
        assert clean.mentions == ["a", "a", "a"]
        assert clean.hashtags == ["TAG", "TAG"]


class TestEntityRules:
    def test_mentions_lowercased(self):
        clean = preprocess("@GST_Council and @Modi", STOPWORDS)
        assert clean.mentions == ["gst_council", "modi"]

    def test_hashtags_uppercased(self):
        clean = preprocess("#GST #gst #GSTRollout", STOPWORDS)
        assert clean.hashtags == ["GST", "GST", "GSTROLLOUT"]

    def test_entities_replaced_with_space(self):
        # A removed entity leaves a token break, so the text on either
        # side of it never fuses into one token.
        clean = preprocess("left@bobédgeécho#tagénd", STOPWORDS)
        assert clean.mentions == ["bob"]
        assert clean.hashtags == ["TAG"]
        assert clean.tokens == ["left", "édgeécho", "énd"]
        for text in ("left http://x.y right", "left WWW.x.y right",
                     "left HtTpS://x.y right", "left wWw.x.y right"):
            clean = preprocess(text, STOPWORDS)
            assert clean.tokens == ["left", "right"]

    def test_url_prefix_folds_ascii_case_only(self):
        # U+017F is no "s": str.lower keeps it, and so does the URL rule.
        clean = preprocess("httpſ://good.example hello", STOPWORDS)
        assert clean.tokens == ["good", "example", "hello"]


# Random text mixed with the fragments most likely to stress the chain.
_fragments = st.sampled_from([
    "http", "https://", "www.", "@", "#", "_", "!!!", "aaa", "  ",
    "@user", "#tag", "gst", "नमस्ते", "大", "❤", ".",
])
_tweety_text = st.lists(
    st.one_of(st.text(max_size=6), _fragments), max_size=12,
).map(" ".join)


@given(texts=st.lists(_tweety_text, max_size=8))
@settings(max_examples=50, deadline=None)
def test_blank_flag_matches_token_emptiness(texts, toy_lexicon_path,
                                            bundled_stopwords,
                                            tmp_path_factory):
    # A run drops exactly the tweets that preprocess leaves without tokens
    # and tags all the others.
    tmp = tmp_path_factory.mktemp("blank")
    corpus = tmp / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"t{i}", "created_at": "2017-07-01T10:00:00Z",
                    "text": text}) + "\n"
        for i, text in enumerate(texts)), encoding="utf-8")
    summary = run_analyze(AnalyzeConfig(
        input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
        out_dir=str(tmp / "out"))).summary
    blanks = sum(not preprocess(text, bundled_stopwords).tokens
                 for text in texts)
    assert summary["blanks_dropped"] == blanks
    assert summary["tweets_tagged"] == len(texts) - blanks


# A subcorpus run skips a tweet before preprocess when its lowercased text
# lacks "@" + handle.  These draws put the handle where that check could
# go wrong: inside and right after URLs, in mixed case, as the prefix of a
# longer handle, and next to characters whose lower() is or holds ASCII.
_HANDLE_NEIGHBOURS = st.sampled_from([
    "", " ", ".", "/", "@", "#", "_", "x", "K", "i", "s", "http://",
    "https://x.co/", "www.", "www.a.b", "\u212a", "\u0130", "\u017f",
    "\u03a3", "\u1e9e", "\ufb00", "\u00e9",
])


@st.composite
def _text_and_handle(draw):
    handle = draw(st.from_regex(r"[a-z0-9_]{1,5}", fullmatch=True))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        written = "".join(c.upper() if draw(st.booleans()) else c
                          for c in handle)
        form = draw(st.sampled_from([
            "@{}", "http://x.co/@{}", "www.a.b@{}", "http://x.co @{}",
            "https://t.co/x@{} @{}", "@{}\u212a", "@{}x_9", "@{}\u0130",
            "\u212a@{}", "\u017f@{}", "@\u212a{}", "{}",
        ]))
        pieces += [draw(_HANDLE_NEIGHBOURS), form.format(written, written),
                   draw(st.one_of(_HANDLE_NEIGHBOURS, st.text(max_size=3)))]
    return "".join(pieces), handle


@settings(max_examples=400)
@given(case=_text_and_handle())
def test_handle_pre_check_keeps_every_match(case):
    text, handle = case
    if handle in preprocess(text, STOPWORDS).mentions:
        assert "@" + handle in text.lower()
        assert _may_mention(text, "@" + handle)


@pytest.mark.parametrize("text, handle, matched", [
    ("Thanks @FinMinIndia!", "finminindia", True),
    ("http://x.co @GST_council", "gst_council", True),
    ("\u212a@gSt", "gst", True),
    ("\u0130@gst\u0130", "gst", True),
    # The check is necessary, not sufficient: each of these passes it and
    # preprocess still finds no such mention.
    ("http://x.co/@gst", "gst", False),
    ("www.a.b@gst", "gst", False),
    ("@gst_council", "gst", False),
    ("@\u212aelvin", "kelvin", False),
    ("@gst\u0130", "gsti", False),
])
def test_handle_pre_check_examples(text, handle, matched):
    assert (handle in preprocess(text, STOPWORDS).mentions) == matched
    assert _may_mention(text, "@" + handle)


@given(text=_tweety_text)
def test_tokens_obey_filter_rules(text):
    clean = preprocess(text, STOPWORDS)
    for tok in clean.tokens:
        assert len(tok) >= 3
        assert "http" not in tok
        assert tok not in STOPWORDS
        assert all(c.isalnum() and c != "_" for c in tok)


def test_clean_tweet_is_frozen():
    clean = CleanTweet([], [], [])
    with pytest.raises(AttributeError):
        clean.tokens = ["y"]


def test_clean_tweet_fields():
    assert CleanTweet._fields == ("tokens", "mentions", "hashtags")


class TestLoadStopwords:
    def test_parses_comments_blanks_and_case(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# comment\nThe\n\n  and  \nIS\n", encoding="utf-8")
        assert load_stopwords(p) == frozenset({"the", "and", "is"})

    def test_byte_order_mark_is_dropped(self, tmp_path):
        body = "# stopwords\nThe\nand\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(body, encoding="utf-8")
        bom.write_text(body, encoding="utf-8-sig")
        assert load_stopwords(bom) == load_stopwords(plain) == \
            frozenset({"the", "and"})

    def test_bundled_list_loads(self, bundled_stopwords):
        assert "the" in bundled_stopwords
        assert all(w == w.lower() for w in bundled_stopwords)
