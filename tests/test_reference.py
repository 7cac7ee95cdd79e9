"""Differential tests against the independent reference implementation.

tweetlex.reference re-derives cleaning, counting, labeling, resolution, and
whole-run summaries without regexes, bitmasks, or the aggregate classes.
Any disagreement between the two paths is a bug in one of them, so these
tests assert exact agreement from token level up to full-run reports.
"""

import ast
import csv
import datetime as dt
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tweetlex import ingest, reference, report
from tweetlex.errors import OracleMismatchError
from tweetlex.ingest import RecordReader
from tweetlex.lexicon import Category, load_lexicon
from tweetlex.preprocess import preprocess
from tweetlex.reference import (
    naive_clean,
    naive_count,
    naive_label,
    naive_resolve,
    run_reference,
    scan_lexicon_file,
)
from tweetlex.report import AnalyzeConfig, run_analyze
from tweetlex.spatial import (FOREIGN, INDIA_UNSPECIFIED, Rules,
                              load_gazetteer, resolve_location)
from tweetlex.tagger import tag_tweet

import corpus_gen
from corpus_gen import DELHI_LOCATIONS, LOCATION_POOL, TOY_LEXICON
from golden_fixtures import FIXTURES, STOPWORDS
from tag_helpers import label_masks, label_names

_fragments = st.sampled_from([
    "http://t.co/x", "https://", "www.gst.gov.in", "@user", "@GST_Council",
    "#GST", "#1", "http", "sooo", "goooood", "___", "a_b", "!!!", "नमस्ते",
    "大好き", "❤", "RT", "...", "@", "#", "w.w", "India",
    # URL prefixes in mixed case and near misses; joined with "" as well
    # as " ", so a prefix can also start inside a word.  U+017F folds to
    # "s" under re.IGNORECASE but not under str.lower, and U+212A (Kelvin
    # sign) lowercases to an ASCII "k".
    "HtTpS://x", "wWw.", "WWW.y", "httpſ://z", "://", "K",
])
_pieces = st.lists(st.one_of(st.text(max_size=8), _fragments), max_size=14)
_tweety_text = st.one_of(_pieces.map(" ".join), _pieces.map("".join))


@settings(max_examples=400)
@given(text=_tweety_text)
def test_naive_clean_matches_preprocess(text):
    clean = preprocess(text, STOPWORDS)
    tokens, mentions, hashtags = naive_clean(text, STOPWORDS)
    assert tokens == clean.tokens
    assert mentions == clean.mentions
    assert [h.upper() for h in hashtags] == clean.hashtags


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: repr(fx.text)[:48])
def test_naive_clean_matches_hand_traces(fx):
    # Three-way agreement: hand trace, pipeline (covered elsewhere), oracle.
    tokens, mentions, hashtags = naive_clean(fx.text, STOPWORDS)
    assert tuple(tokens) == fx.tokens
    assert tuple(mentions) == (fx.mentions or ())
    assert tuple(hashtags) == (fx.hashtags or ())


_tokens = st.lists(
    st.sampled_from(sorted(TOY_LEXICON) + ["gst", "rollout", "unknownword"]),
    max_size=12,
)


@given(tokens=_tokens)
def test_naive_count_and_label_match_tagger(tokens, toy_lexicon,
                                            toy_lexicon_path):
    table = scan_lexicon_file(str(toy_lexicon_path))
    tag = tag_tweet(tokens, toy_lexicon)

    counts = naive_count(tokens, table)
    vec = tag[0]
    assert counts == {c.label: vec[int(c)] for c in Category if vec[int(c)]}
    assert naive_label(counts) == label_names(tag)


@pytest.mark.parametrize("raw", [r for r, _ in LOCATION_POOL] +
                         list(DELHI_LOCATIONS) + ["", "  ", "mumbai, delhi"])
def test_naive_resolve_matches_resolve_location(raw, bundled_gazetteer):
    assert naive_resolve(raw, bundled_gazetteer) == \
        resolve_location(raw, bundled_gazetteer)


# Letters in both cases, a space, ".", "é" and a Devanagari letter; no "," or
# '"', so a pattern is one plain CSV field.
_GZ_ALPHABET = "abAB .\u00e9\u0915"

# Region names of the drawn gazetteers: the two buckets, two bundled
# regions and four that the bundled gazetteer does not name.
_GZ_REGIONS = (FOREIGN, INDIA_UNSPECIFIED, "Goa", "Kerala", "Manipur",
               "Sikkim", "Puducherry", "\u0913\u0921\u093f\u0936\u093e")


@st.composite
def _gazetteer_case(draw):
    """A gazetteer file's lines and locations to resolve against it.

    Patterns are 1-8 characters: some under three characters, some sharing
    a 3-character stem, one a substring of another at a later priority.
    Locations join pattern fragments, tabs and runs of spaces in mixed case.
    """
    stems = draw(st.lists(st.text("abAB.\u00e9\u0915", min_size=3,
                                  max_size=3), min_size=1, max_size=3))
    patterns = draw(st.lists(st.one_of(
        st.text(_GZ_ALPHABET, min_size=1, max_size=2),
        st.builds(str.__add__, st.sampled_from(stems),
                  st.text(_GZ_ALPHABET, max_size=5)),
        st.text(_GZ_ALPHABET, min_size=3, max_size=8),
    ).filter(str.strip), min_size=1, max_size=12))
    rows = [(pattern, draw(st.sampled_from(_GZ_REGIONS)),
             draw(st.integers(0, 4))) for pattern in patterns]
    outer, _region, priority = draw(st.sampled_from(rows))
    start = draw(st.integers(0, len(outer) - 1))
    inner = outer[start:draw(st.integers(start + 1, len(outer)))]
    if inner.strip():
        rows.append((inner, draw(st.sampled_from(_GZ_REGIONS)),
                     priority + 1))
    lines = [f"{pattern},{region},{priority}"
             for pattern, region, priority in rows]
    fragments = [pattern[i:] for pattern, _r, _p in rows for i in (0, 1)]
    piece = st.one_of(st.sampled_from(fragments),
                      st.sampled_from([" ", "   ", "\t", " \t ", "india"]),
                      st.text(_GZ_ALPHABET, max_size=3))
    locations = []
    for raw in draw(st.lists(st.lists(piece, max_size=6).map("".join),
                             min_size=1, max_size=8)):
        upper = draw(st.lists(st.booleans(), min_size=len(raw),
                              max_size=len(raw)))
        locations.append("".join(c.upper() if up else c
                                 for c, up in zip(raw, upper)))
    return lines, locations


@settings(max_examples=300)
@given(case=_gazetteer_case())
def test_prefix_index_matches_naive_resolve(case, tmp_path_factory):
    lines, locations = case
    path = tmp_path_factory.getbasetemp() / "differential_gazetteer.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rules = load_gazetteer(path)
    restored = pickle.loads(pickle.dumps(rules))
    assert type(restored) is Rules and restored == rules
    assert restored.by_prefix == rules.by_prefix
    assert restored.short == rules.short
    for raw in locations:
        expected = naive_resolve(raw, tuple(rules))
        assert resolve_location(raw, rules) == expected
        assert resolve_location(raw, restored) == expected


# CRLF endings, padded category and flag fields, mixed-case words, and
# indented comments; the loader must read it exactly as the line scan does.
_MESSY_LEXICON = (
    "# word\tcategory\tflag\r\n"
    "   # indented comment\r\n"
    "\t# tab-indented comment\r\n"
    "Calm\tjoy\t0\r\n"
    "CALM\t trust \t1\r\n"
    "  Hope \tanticipation\t 1 \r\n"
    "\r\n"
    "hope\tpositive\t1\r\n"
    "Dread\tfear \t1\r\n"
    "dread\tnegative\t0 \r\n"
    "zeal\tjoy\t0\r\n"
)


@pytest.mark.parametrize("messy", [False, True], ids=["toy", "messy"])
def test_scan_lexicon_matches_loader(messy, toy_lexicon_path, tmp_path):
    path = toy_lexicon_path
    words = set(TOY_LEXICON)
    if messy:
        path = tmp_path / "messy.tsv"
        path.write_bytes(_MESSY_LEXICON.encode("utf-8"))
        words = {"calm", "hope", "dread"}
    lexicon = load_lexicon(path)
    table = scan_lexicon_file(str(path))
    assert set(table) == words
    assert len(table) == len(lexicon)
    assert lexicon == label_masks(table)


@pytest.fixture(scope="module")
def random_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("refcorpus") / "corpus.jsonl"
    corpus_gen.write_random_corpus(path, 800, seed=42)
    return path


class TestFullRunDifferential:
    """run_analyze --oracle recomputes the whole run through the reference
    module and raises on any differing figure; "ok" means zero diffs."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_analyze_agrees_with_reference(self, random_corpus,
                                           toy_lexicon_path, tmp_path,
                                           workers):
        config = AnalyzeConfig(
            input_path=str(random_corpus),
            lexicon_path=str(toy_lexicon_path),
            out_dir=str(tmp_path / f"out{workers}"),
            oracle=True,
            workers=workers,
        )
        result = run_analyze(config)
        assert result.summary["oracle_check"] == "ok"
        assert result.summary["tweets_tagged"] > 0

    def test_summary_equals_reference_summary(self, random_corpus,
                                              toy_lexicon_path, tmp_path,
                                              bundled_stopwords,
                                              bundled_gazetteer):
        # Same comparison as --oracle, but made here directly so the test
        # does not depend on the pipeline's own diffing code.
        config = AnalyzeConfig(
            input_path=str(random_corpus),
            lexicon_path=str(toy_lexicon_path),
            out_dir=str(tmp_path / "out"),
        )
        result = run_analyze(config)
        ref = run_reference(
            str(random_corpus), "jsonl", str(toy_lexicon_path),
            stopwords=bundled_stopwords, gazetteer=bundled_gazetteer)
        assert result.summary == ref["summary"]
        assert result.part.hours.slots == ref["hourly"]

    def test_subcorpus_agrees_with_reference(self, random_corpus,
                                             toy_lexicon_path, tmp_path):
        config = AnalyzeConfig(
            input_path=str(random_corpus),
            lexicon_path=str(toy_lexicon_path),
            out_dir=str(tmp_path / "sub"),
            oracle=True,
            mention=corpus_gen.MENTION_POOL[0].lower(),
        )
        result = run_analyze(config)
        assert result.summary["oracle_check"] == "ok"
        assert result.summary["subcorpus_tweets"] > 0

    def test_windowed_run_agrees(self, random_corpus, toy_lexicon_path,
                                 tmp_path):
        config = AnalyzeConfig(
            input_path=str(random_corpus),
            lexicon_path=str(toy_lexicon_path),
            out_dir=str(tmp_path / "win"),
            oracle=True,
            date_from=dt.date(2017, 7, 2),
            date_to=dt.date(2017, 7, 4),
        )
        result = run_analyze(config)
        assert result.summary["oracle_check"] == "ok"
        assert result.summary["records_rejected"] > 0



# After a generated corpus: an admitted id with an out-of-window twin, and
# a null text, which a CSV corpus cannot hold.  The oracle runs below over
# 2017-07-02 to 2017-07-04.
_FAULT_LINES = [
    {"id": "twin", "created_at": "2017-07-03T10:00:00+05:30", "text": "good"},
    {"id": "twin", "created_at": "2017-07-06T10:00:00+05:30", "text": "bad"},
    {"id": "void", "created_at": "2017-07-03T10:00:00+05:30", "text": None},
]


def _mutate_fields(monkeypatch, mutant):
    """Pass each line's fields from either format's field reader through
    ``mutant(reader, lineno, id, created_at, text, location)``, which
    returns the fields the admission loop sees, or None to drop them."""
    for name in ("_read_jsonl", "_read_csv"):
        def reading(self, fh, read=getattr(RecordReader, name)):
            for fields in read(self, fh):
                if (fields := mutant(self, *fields)) is not None:
                    yield fields
        monkeypatch.setattr(RecordReader, name, reading)


def _window_before_dedup(monkeypatch):
    def mutant(self, lineno, rec_id, created_at, text, loc):
        ts = ingest.parse_timestamp(created_at, self.default_tz)
        if ts is None or self.date_from <= ts.date() <= self.date_to:
            return lineno, rec_id, created_at, text, loc
        self.stats._skip(lineno, "out_of_range", ts.date().isoformat())
    _mutate_fields(monkeypatch, mutant)


def _date_to_off_by_one(monkeypatch):
    init = RecordReader.__init__

    def mutant(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.date_to -= dt.timedelta(days=1)  # as if local >= date_to
    monkeypatch.setattr(RecordReader, "__init__", mutant)


def _null_text_as_empty(monkeypatch):
    def mutant(self, lineno, rec_id, created_at, text, loc):
        return lineno, rec_id, created_at, "" if text is None else text, loc
    _mutate_fields(monkeypatch, mutant)


@pytest.mark.parametrize("fmt, mutate", [
    *(pytest.param("jsonl", mutate, id=mutate.__name__) for mutate
      in (_window_before_dedup, _date_to_off_by_one, _null_text_as_empty)),
    *(pytest.param("csv", mutate, id="csv" + mutate.__name__) for mutate
      in (_window_before_dedup, _date_to_off_by_one)),
])
def test_oracle_catches_an_admission_fault(tmp_path, toy_lexicon_path,
                                           monkeypatch, fmt, mutate):
    corpus = tmp_path / "corpus.jsonl"
    corpus_gen.write_random_corpus(corpus, 300, seed=5)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(raw) + "\n" for raw in _FAULT_LINES)
    if fmt == "csv":
        rows = [json.loads(line) for line in
                corpus.read_text(encoding="utf-8").splitlines()]
        corpus = tmp_path / "corpus.csv"
        with open(corpus, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ingest.CSV_HEADER)
            writer.writerows([row.get(key) for key in ingest.CSV_HEADER]
                             for row in rows if row["text"] is not None)
    config = AnalyzeConfig(
        input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
        out_dir=str(tmp_path / "out"), fmt=fmt, oracle=True,
        date_from=dt.date(2017, 7, 2), date_to=dt.date(2017, 7, 4))
    assert run_analyze(config).summary["oracle_check"] == "ok"
    mutate(monkeypatch)
    with pytest.raises(OracleMismatchError, match="rejected_reasons"):
        run_analyze(config)


def test_oracle_catches_a_handle_pre_check_that_drops_matches(
        tmp_path, toy_lexicon_path, monkeypatch):
    # The generated corpus writes the handle as "@FinMinIndia", so a
    # case-sensitive pre-check skips every tweet that mentions it.
    corpus = tmp_path / "corpus.jsonl"
    corpus_gen.write_random_corpus(corpus, 300, seed=5)
    assert "@FinMinIndia" in corpus.read_text(encoding="utf-8")
    config = AnalyzeConfig(
        input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
        out_dir=str(tmp_path / "out"), oracle=True, mention="finminindia")
    assert run_analyze(config).summary["subcorpus_tweets"] > 0
    monkeypatch.setattr(report, "_may_mention",
                        lambda text, at_handle: at_handle in text)
    with pytest.raises(OracleMismatchError, match="subcorpus_tweets"):
        run_analyze(config)


def test_oracle_agrees_on_a_long_s_url_prefix(tmp_path, toy_lexicon_path):
    # "httpſ://" is no URL prefix in ASCII letters, so "good" stays a
    # token on both paths; re.IGNORECASE would fold the long s to "s" and
    # remove the whole word as a URL.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(
        {"id": "1", "created_at": "2017-07-03T10:00:00+05:30",
         "text": "httpſ://good.example hello"}) + "\n", encoding="utf-8")
    config = AnalyzeConfig(
        input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
        out_dir=str(tmp_path / "out"), oracle=True)
    summary = run_analyze(config).summary
    assert summary["oracle_check"] == "ok"
    assert summary["tweets_tagged"] == 1


_NON_LATIN_WORDS = ("नमस्ते", "भारत", "வணக்கம்", "தமிழ்நாடு", "北京市",
                    "大好き", "καλημέρα", "Ελλάδα", "café", "naïve", "São",
                    "Zürich")


def test_oracle_counts_non_latin_tokens(tmp_path, toy_lexicon_path):
    # Devanagari, Tamil, CJK, Greek and accented-Latin words among the toy
    # lexicon's, so --oracle recounts a non-zero non-Latin token tally.
    rng = random.Random(3)
    vocab = _NON_LATIN_WORDS + tuple(corpus_gen.TOY_LEXICON)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(
        {"id": f"n{i}", "created_at": f"2017-07-0{1 + i % 7}T10:00:00+05:30",
         "text": " ".join(rng.choices(vocab, k=rng.randint(1, 6)))},
        ensure_ascii=False) + "\n" for i in range(300)), encoding="utf-8")
    summaries = []
    for workers in (1, 2):
        summaries.append(run_analyze(AnalyzeConfig(
            input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
            out_dir=str(tmp_path / f"w{workers}"), oracle=True,
            workers=workers)).summary)
    assert summaries[0] == summaries[1]
    assert summaries[0]["oracle_check"] == "ok"
    assert summaries[0]["non_latin_token_tally"] > 0


@pytest.mark.parametrize("text, per_tweet", [
    ("gst rollout https://example.in/café?q=नमस्ते today", 0),  # in a URL
    ("gst rollout #café today", 0),  # hashtag "#caf"; "é" alone is too short
    ("gst rollout @modi\U0001F600 today", 0),  # an emoji after a mention
    ("gst\u00a0rollout \u2014 today\u2019s tax", 0),  # separators
    ("\u212aelvin gst rollout", 0),  # the Kelvin sign lowercases to "k"
    ("gst नमस्ते café", 2),  # "नमस" and "café"
])
def test_oracle_non_latin_tally_is_exact(tmp_path, toy_lexicon_path, text,
                                         per_tweet):
    # More tweets than one chunk holds, so two workers split them.
    n = report.CHUNK_SIZE + 300
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(
        {"id": f"n{i}", "created_at": "2017-07-01T10:00:00+05:30",
         "text": text}, ensure_ascii=False) + "\n" for i in range(n)),
        encoding="utf-8")
    for workers in (1, 2):
        summary = run_analyze(AnalyzeConfig(
            input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
            out_dir=str(tmp_path / f"w{workers}"), oracle=True,
            workers=workers)).summary
        assert summary["oracle_check"] == "ok"
        assert summary["tweets_tagged"] == n
        assert summary["non_latin_token_tally"] == n * per_tweet


def test_oracle_reads_a_rewritten_lexicon_again(random_corpus,
                                                toy_lexicon_path, tmp_path):
    # Two runs in one process on one lexicon path, the file rewritten in
    # between: the reference must scan the file as it is now.
    lexicon = tmp_path / "lexicon.tsv"
    rows = toy_lexicon_path.read_text(encoding="utf-8").splitlines(True)
    for kept in (rows, rows[:len(rows) // 2]):
        lexicon.write_text("".join(kept), encoding="utf-8")
        summary = run_analyze(AnalyzeConfig(
            input_path=str(random_corpus), lexicon_path=str(lexicon),
            out_dir=str(tmp_path / f"out{len(kept)}"), oracle=True)).summary
        assert summary["oracle_check"] == "ok"
        assert summary["lexicon_entries"] == len(kept) // 10


def test_reference_imports_no_pipeline_code():
    # --oracle checks only what the reference computes itself, so a change
    # that makes it share a production path again fails here.
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(["tweetlex"] * bool(node.level)
                              + [node.module or ""]).strip(".")
            names += [f"{module}.{alias.name}" for alias in node.names]
    shared = ("report", "preprocess", "tagger", "temporal", "entities",
              "_kernels")
    for name in names:
        assert name.split(".")[:2] not in [["tweetlex", m] for m in shared]
    assert {name for name in names if name.startswith("tweetlex.ingest")} \
        <= {"tweetlex.ingest.IST", "tweetlex.ingest.CSV_HEADER"}
