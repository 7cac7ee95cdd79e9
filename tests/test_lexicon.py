import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from tweetlex import lexicon
from tweetlex.errors import LexiconError
from tweetlex.lexicon import Category, EMOTIONS, SENTIMENTS, load_lexicon
from tweetlex.reference import scan_lexicon_file

import corpus_gen
from corpus_gen import CATEGORIES, TOY_LEXICON
from tag_helpers import label_masks


def test_category_canonical_order():
    assert [c.label for c in Category] == list(CATEGORIES)
    assert SENTIMENTS == (Category.POSITIVE, Category.NEGATIVE)
    assert [c.label for c in EMOTIONS] == ["joy", "trust", "anticipation",
                                           "surprise", "fear", "sadness",
                                           "anger", "disgust"]


def test_category_from_label(tmp_path):
    lex = load_lexicon(_write(tmp_path, "calm\tjoy\t1\nglad\tpositive\t1\n"))
    assert lex == {"calm": 1 << Category.JOY,
                   "glad": 1 << Category.POSITIVE}
    for token in ("bogus", "JOY"):  # category tokens must be lowercase
        with pytest.raises(LexiconError, match="unknown category"):
            load_lexicon(_write(tmp_path, f"calm\t{token}\t1\n"))


def test_load_toy_lexicon(toy_lexicon):
    assert len(toy_lexicon) == len(TOY_LEXICON)
    assert toy_lexicon == label_masks(TOY_LEXICON)


def test_masks_use_category_bit_positions(toy_lexicon):
    expected = (1 << Category.POSITIVE) | (1 << Category.JOY) | (1 << Category.TRUST)
    assert toy_lexicon["love"] == expected
    assert "unknown" not in toy_lexicon


def test_unknown_word_has_empty_categories(toy_lexicon):
    assert "procedure" not in toy_lexicon


def _write(tmp_path, text):
    path = tmp_path / "lex.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_flag_zero_rows_are_not_stored(tmp_path):
    lex = load_lexicon(_write(tmp_path, "calm\tjoy\t0\ncalm\ttrust\t1\n"))
    assert lex == {"calm": 1 << Category.TRUST}


def test_all_zero_word_is_queryable_but_absent(tmp_path):
    lex = load_lexicon(_write(tmp_path, "calm\tjoy\t0\n"))
    assert len(lex) == 0
    assert lex == {}


@pytest.mark.parametrize("body", ["calm\tjoy\t1\ncalm\ttrust\t0\n",
                                  "# header\ncalm\tjoy\t1\n"])
def test_byte_order_mark_is_dropped(tmp_path, body):
    # The loader and the oracle's scan both read a BOM-prefixed copy as
    # the plain file: the first word is not filed under "\ufeffcalm", and
    # a first-line comment is still a comment.
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(body, encoding="utf-8")
    bom.write_text(body, encoding="utf-8-sig")
    assert load_lexicon(bom) == load_lexicon(plain) == \
        {"calm": 1 << Category.JOY}
    assert scan_lexicon_file(str(bom)) == scan_lexicon_file(str(plain))


def test_comments_and_blank_lines_are_ignored(tmp_path):
    lex = load_lexicon(_write(tmp_path, "# header\n\ncalm\tjoy\t1\n"))
    assert len(lex) == 1


def test_words_are_stored_lowercase(tmp_path):
    lex = load_lexicon(_write(tmp_path, "Calm\tjoy\t1\n"))
    assert lex == {"calm": 1 << Category.JOY}


@pytest.mark.parametrize("content,needle", [
    ("calm\tjoy\n", "3 tab-separated fields"),
    ("calm\tjoy\t1\textra\n", "3 tab-separated fields"),
    ("calm\tserenity\t1\n", "unknown category"),
    ("calm\tjoy\t2\n", "flag must be 0 or 1"),
    ("calm\tjoy\tyes\n", "flag must be 0 or 1"),
    ("calm\tjoy\t1\ncalm\tjoy\t0\n", "duplicate"),
    # Non-adjacent, differing only in case and padding: still (calm, joy).
    ("Calm\tjoy\t1\ncalm\ttrust\t1\n calm \tjoy\t0\n", "line 3: duplicate"),
    # The first ten data rows repeat a category, so they give no block
    # order, and a word's ten rows for one category are ten duplicates.
    pytest.param("".join(f"w{i}\tjoy\t1\n" for i in range(10))
                 + "calm\tjoy\t0\n" * 10, "line 12: duplicate",
                 id="ten-rows-of-one-category"),
    ("\tjoy\t1\n", "empty word"),
    ("two words\tjoy\t1\n", "whitespace"),
])
def test_loader_rejects_bad_rows(tmp_path, content, needle):
    with pytest.raises(LexiconError) as err:
        load_lexicon(_write(tmp_path, content))
    assert needle in str(err.value)


def test_loader_error_names_the_line(tmp_path):
    with pytest.raises(LexiconError) as err:
        load_lexicon(_write(tmp_path, "calm\tjoy\t1\nbroken line\n"))
    assert "line 2" in str(err.value)


# Differential tests of the block match in load_lexicon: a run of ten rows
# for one word, loaded by one regex match, must give exactly what the
# per-line checks give, on any file.

_ORDERS = (CATEGORIES, tuple(sorted(CATEGORIES)))
# Words the loader accepts, duplicates differing only in case or padding
# among them, and words it rejects.
_GOOD_WORDS = ["calm", "Calm", "CALM", " calm ", "glad", "naïve", "İx", "12",
               "c#"]
_BAD_WORDS = ["#tag", "two words", ""]
_HARMLESS = [None, "swap", "case", "pad", "comment", "blank"]
_HARMFUL = ["drop", "repeat", "flag"]


@st.composite
def _block(draw, words, orders, damages):
    """Ten rows for one word in one category order, sometimes damaged."""
    word = draw(st.text("abcdef", min_size=1, max_size=5) | words)
    flags = draw(st.lists(st.sampled_from("01"), min_size=10, max_size=10))
    rows = [f"{word}\t{cat}\t{flag}"
            for cat, flag in zip(draw(st.sampled_from(orders)), flags)]
    i, j = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    damage = draw(st.sampled_from([None] * 6 + damages))
    if damage == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif damage == "case":
        rows[i] = word.upper() + rows[i][len(word):]
    elif damage == "pad":
        rows[i] = rows[i].replace("\t", " \t ")
    elif damage in ("comment", "blank"):
        rows.insert(i, "# note" if damage == "comment" else "")
    elif damage == "drop":
        del rows[i]
    elif damage == "repeat":
        rows[j] = rows[i]
    elif damage == "flag":
        rows[i] = rows[i][:-1] + "2"
    return rows


def _lines(words, harmful):
    lines = [
        st.sampled_from(["", "   ", "# comment", "  # indented", "\t# tabbed"]),
        st.builds("{}\t{}\t{}".format, words, st.sampled_from(CATEGORIES),
                  st.sampled_from(["0", "1", " 1", "0 "])),
    ]
    if harmful:
        lines += [
            st.builds("{}\t{}\t{}".format, words,
                      st.sampled_from((" joy", "JOY", "bogus")),
                      st.sampled_from(["0", "1", "2", "yes", ""])),
            # Short and long rows.
            st.lists(st.sampled_from(["calm", "joy", "1"]),
                     max_size=5).map("\t".join),
        ]
    return st.one_of(lines)


@st.composite
def _lexicon_text(draw):
    """Blocks, mostly in one category order, mixed with single lines;
    about half the files hold only rows the loader accepts, though their
    words may still repeat."""
    harmful = draw(st.booleans())
    words = st.sampled_from(_GOOD_WORDS + _BAD_WORDS * harmful)
    order = draw(st.sampled_from(_ORDERS))
    blocks = draw(st.lists(_block(words, [order] * 3 + list(_ORDERS),
                                  _HARMLESS + _HARMFUL * harmful),
                           max_size=5))
    lines = draw(st.lists(_lines(words, harmful).map(lambda row: [row]),
                          max_size=4))
    parts = draw(st.permutations(blocks + lines))
    rows = [row for part in parts for row in part]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(rows)
    if rows and draw(st.booleans()):
        text += newline
    return text


def _outcome(path, *, block=True, piece=lexicon._PIECE_CHARS):
    """Masks, or the LexiconError text, with the block match on or off and
    the given piece size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lexicon, "_PIECE_CHARS", piece)
        if not block:
            mp.setattr(lexicon, "_block_matcher",
                       lambda order: (re.compile("(?!)"), {}))
        try:
            return load_lexicon(path)
        except LexiconError as exc:
            return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=_lexicon_text(), piece=st.integers(1, 256))
def test_block_match_agrees_with_line_checks(tmp_path_factory, text, piece):
    path = tmp_path_factory.getbasetemp() / "block_match.txt"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(path, block=False)
    assert _outcome(path) == want
    assert _outcome(path, piece=piece) == want
    if isinstance(want, dict):
        assert want == label_masks(scan_lexicon_file(str(path)))


def test_every_piece_boundary(tmp_path):
    rows = [f"{word}\t{cat}\t{(k + n) % 2}"
            for n, word in enumerate(["calm", "glad", "calm"])
            for k, cat in enumerate(CATEGORIES)]
    rows.insert(20, "# the third block repeats calm")
    for n_rows in (21, 31):
        text = "".join(f"{row}\n" for row in rows[:n_rows])
        path = _write(tmp_path, text)
        want = _outcome(path, block=False)
        if n_rows == 21:
            assert set(want) == {"calm", "glad"}
        else:
            assert want.endswith("line 22: duplicate row for ('calm', positive)")
        for piece in range(1, len(text) + 2):
            assert _outcome(path, piece=piece) == want, piece


class _CountingPattern:
    def __init__(self, pattern, hits):
        self._pattern, self._hits = pattern, hits

    def match(self, *args):
        m = self._pattern.match(*args)
        self._hits.append(m is not None)
        return m


@pytest.fixture
def block_hits(monkeypatch):
    """Whether each block match the loader tries finds a word, in order."""
    hits = []
    real = lexicon._block_matcher

    def counting(order):
        pattern, flag_masks = real(order)
        return _CountingPattern(pattern, hits), flag_masks

    monkeypatch.setattr(lexicon, "_block_matcher", counting)
    return hits


def test_alphabetical_category_order_loads_by_block(tmp_path, block_hits):
    # NRC's own file lists each word's rows in alphabetical category order.
    # The file is read with universal newlines, so CRLF line ends match
    # block by block too.
    source = tmp_path / "scaled.txt"
    n_words = 2000
    truth = corpus_gen.write_scaled_lexicon(source, n_words, seed=11)
    rows = source.read_text("utf-8").splitlines()
    blocks = [sorted(rows[i:i + 10], key=lambda r: r.split("\t")[1])
              for i in range(0, len(rows), 10)]
    for newline in ("\n", "\r\n"):
        block_hits.clear()
        path = _write(tmp_path,
                      "".join(f"{r}{newline}" for b in blocks for r in b))
        lex = load_lexicon(path)
        assert lex == label_masks(truth)
        # The first word sets the order and each piece boundary cuts at
        # most one block, whose rows are checked one by one; every other
        # word is one match.
        pieces = -(-path.stat().st_size // lexicon._PIECE_CHARS)
        assert sum(block_hits) >= n_words - pieces, newline


@pytest.mark.parametrize("layout", ["flag_1_only", "shuffled"])
def test_row_by_row_layouts_at_scale(tmp_path, block_hits, layout):
    # Neither layout holds a word's ten rows in the order the loader
    # learns, so no block match succeeds and every row takes the per-line
    # checks.
    source = tmp_path / "scaled.txt"
    truth = corpus_gen.write_scaled_lexicon(source, 2000, seed=13)
    rows = source.read_text("utf-8").splitlines()
    if layout == "flag_1_only":
        rows = [row for row in rows if row.endswith("\t1")]
    else:
        rng = random.Random(17)
        blocks = [rows[i:i + 10] for i in range(0, len(rows), 10)]
        for block in blocks:
            rng.shuffle(block)
        rows = [row for block in blocks for row in block]
    path = _write(tmp_path, "".join(f"{row}\n" for row in rows))
    lex = load_lexicon(path)
    assert not any(block_hits)
    assert lex == label_masks(truth)
    assert lex == label_masks(scan_lexicon_file(str(path)))

    # An early row repeated near the end is refused on its own line.
    late = len(rows) - 5
    word, cat, _flag = rows[3].split("\t")
    rows.insert(late, rows[3])
    path = _write(tmp_path, "".join(f"{row}\n" for row in rows))
    with pytest.raises(LexiconError) as err:
        load_lexicon(path)
    assert str(err.value) == \
        f"{path}: line {late + 1}: duplicate row for ({word!r}, {cat})"
