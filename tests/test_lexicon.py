import pytest

from tweetlex.errors import LexiconError
from tweetlex.lexicon import (Category, EMOTIONS, SENTIMENTS,
                              category_from_label, load_lexicon)

from corpus_gen import CATEGORIES, TOY_LEXICON


def test_category_canonical_order():
    assert [c.label for c in Category] == list(CATEGORIES)
    assert SENTIMENTS == (Category.POSITIVE, Category.NEGATIVE)
    assert [c.label for c in EMOTIONS] == ["joy", "trust", "anticipation",
                                           "surprise", "fear", "sadness",
                                           "anger", "disgust"]


def test_category_from_label():
    assert category_from_label("joy") is Category.JOY
    assert category_from_label("positive") is Category.POSITIVE
    assert category_from_label("bogus") is None
    assert category_from_label("JOY") is None  # lookup wants lowercase


def test_load_toy_lexicon(toy_lexicon):
    assert toy_lexicon.entry_count == len(TOY_LEXICON)
    for word, cats in TOY_LEXICON.items():
        got = {c.label for c in toy_lexicon.categories_of(word)}
        assert got == set(cats), word


def test_lookup_is_case_insensitive(toy_lexicon):
    assert toy_lexicon.categories_of("LOVE") == toy_lexicon.categories_of("love")
    assert "Faith" in toy_lexicon
    assert "notaword" not in toy_lexicon


def test_masks_use_category_bit_positions(toy_lexicon):
    expected = (1 << Category.POSITIVE) | (1 << Category.JOY) | (1 << Category.TRUST)
    assert toy_lexicon.mask_of("love") == expected
    assert toy_lexicon.mask_of("unknown") == 0


def test_unknown_word_has_empty_categories(toy_lexicon):
    assert toy_lexicon.categories_of("procedure") == frozenset()


def _write(tmp_path, text):
    path = tmp_path / "lex.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_flag_zero_rows_are_not_stored(tmp_path):
    lex = load_lexicon(_write(tmp_path, "calm\tjoy\t0\ncalm\ttrust\t1\n"))
    assert lex.entry_count == 1
    assert {c.label for c in lex.categories_of("calm")} == {"trust"}


def test_all_zero_word_is_queryable_but_absent(tmp_path):
    lex = load_lexicon(_write(tmp_path, "calm\tjoy\t0\n"))
    assert lex.entry_count == 0
    assert lex.categories_of("calm") == frozenset()
    assert "calm" not in lex


def test_comments_and_blank_lines_are_ignored(tmp_path):
    lex = load_lexicon(_write(tmp_path, "# header\n\ncalm\tjoy\t1\n"))
    assert lex.entry_count == 1


def test_words_are_stored_lowercase(tmp_path):
    lex = load_lexicon(_write(tmp_path, "Calm\tjoy\t1\n"))
    assert "calm" in lex and "CALM" in lex


@pytest.mark.parametrize("content,needle", [
    ("calm\tjoy\n", "3 tab-separated fields"),
    ("calm\tjoy\t1\textra\n", "3 tab-separated fields"),
    ("calm\tserenity\t1\n", "unknown category"),
    ("calm\tjoy\t2\n", "flag must be 0 or 1"),
    ("calm\tjoy\tyes\n", "flag must be 0 or 1"),
    ("calm\tjoy\t1\ncalm\tjoy\t0\n", "duplicate"),
    # Non-adjacent, differing only in case and padding: still (calm, joy).
    ("Calm\tjoy\t1\ncalm\ttrust\t1\n calm \tjoy\t0\n", "line 3: duplicate"),
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
