"""Hand-traced preprocessing fixtures.

Each expected token list was worked out by hand from the documented
cleaning order: strip URLs, then @mentions, then #hashtags; lowercase;
non-alphanumerics (and underscore) to spaces; split; collapse 3+ character
runs to 2; drop tokens under 3 chars, tokens containing "http", and
stopwords.  The suite treats these lists as frozen oracles: if one ever
disagrees with the pipeline, the discrepancy gets investigated, not the
fixture edited to match.

Fixtures use their own explicit stopword set so they cannot drift when the
bundled list changes.
"""

from dataclasses import dataclass

STOPWORDS = frozenset({
    "the", "a", "an", "and", "is", "are", "was", "were", "this", "that",
    "with", "have", "from", "for", "not", "you", "your", "but", "will",
})


@dataclass(frozen=True)
class Fixture:
    text: str
    tokens: tuple
    mentions: tuple | None = None
    hashtags: tuple | None = None


FIXTURES = (
    # plain text
    Fixture("Hello world", ("hello", "world")),
    # URLs in each supported shape
    Fixture("GST rollout done http://gst.gov.in",
            ("gst", "rollout", "done")),
    Fixture("Check www.example.com NOW", ("check", "now")),
    Fixture("HtTpS://Bit.ly/x and more", ("more",)),
    Fixture("see www.gst.gov.in for rates", ("see", "rates")),
    Fixture("abchttp://x.y end", ("abc", "end")),
    # mentions and hashtags
    Fixture("@user thanks for this!", ("thanks",), mentions=("user",)),
    Fixture("#Demonetization was bad", ("bad",),
            hashtags=("Demonetization",)),
    Fixture("RT @a @bb ok yes", ("yes",), mentions=("a", "bb")),
    Fixture("@a@b@c chained", ("chained",), mentions=("a", "b", "c")),
    Fixture("@GSTCouncil #GST #GSTRollout coming July1st www.gst.gov.in/help",
            ("coming", "july1st"), mentions=("gstcouncil",),
            hashtags=("GST", "GSTRollout")),
    Fixture("email me@example.com now", ("email", "com", "now"),
            mentions=("example",)),
    Fixture("GSTrollout!!!is#1", ("gstrollout",), hashtags=("1",)),
    # repeated characters
    Fixture("sooooo goooood!!!", ("soo", "good")),
    Fixture("ohhh myyyy god", ("ohh", "myy", "god")),
    Fixture("NOOOOO WAYYYY", ("noo", "wayy")),
    # punctuation and underscores
    Fixture("Tax—reform; really?!", ("tax", "reform", "really")),
    Fixture("can't won't DON'T stop", ("can", "won", "don", "stop")),
    Fixture("foo_bar baz", ("foo", "bar", "baz")),
    Fixture("New   lines\nand\ttabs here", ("new", "lines", "tabs", "here")),
    # short tokens and the http-debris rule; note run collapse happens
    # before the length filter, so "ccc" -> "cc" -> dropped
    Fixture("a bb code word", ("code", "word")),
    Fixture("ccc dddd kept", ("kept",)),
    Fixture("httpx test", ("test",)),
    Fixture("middleHTTPword stays?", ("stays",)),
    Fixture("123 4567 numbers 12", ("123", "4567", "numbers")),
    # non-Latin text (combining marks are not alphanumeric, so Devanagari
    # words split at vowel signs / virama and short pieces drop out)
    Fixture("नमस्ते दुनिया", ("नमस",)),
    Fixture("GST अच्छा है", ("gst",)),
    Fixture("Это хорошо!!!", ("это", "хорошо")),
    Fixture("中国好 happy", ("中国好", "happy")),
    Fixture("I ❤ GST", ("gst",)),
    Fixture("👍👍👍 nice", ("nice",)),
    # blank-out cases
    Fixture("", ()),
    Fixture("@only_mention", (), mentions=("only_mention",)),
    Fixture("#OnlyTag", (), hashtags=("OnlyTag",)),
    Fixture("https://x.co", ()),
    Fixture("!!! ... ???", ()),
    Fixture("aaaa", ()),
)
