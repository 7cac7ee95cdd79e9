"""Frequency-table tests, and the entity counts and mention filter of a
run: ordering, merging, case folding, sub-corpus membership."""

import json

import pytest
from hypothesis import given, strategies as st

from tweetlex.entities import FrequencyTable, top_n
from tweetlex.report import AnalyzeConfig, run_analyze, run_subcorpus


def _run(tmp_path, lexicon_path, texts, mention=None):
    """A run, with tag rows to out/tags.jsonl, over one tweet per text (ids
    "1", "2", ...); with a mention, the sub-corpus run on that handle."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": str(i), "created_at": "2017-07-01T10:00:00Z",
                    "text": text}) + "\n"
        for i, text in enumerate(texts, 1)), encoding="utf-8")
    out = tmp_path / "out"
    config = AnalyzeConfig(input_path=str(corpus),
                           lexicon_path=str(lexicon_path), out_dir=str(out),
                           emit_tags=str(out / "tags.jsonl"), mention=mention)
    return (run_analyze if mention is None else run_subcorpus)(config)


class TestFrequencyTable:
    def test_add_update_count(self):
        table = FrequencyTable()
        table.update(["a"])
        table.update(["a", "a"])
        table.update(["b", "a", "c"])
        assert table.count("a") == 4
        assert table.count("b") == 1
        assert table.count("missing") == 0
        assert table.total_occurrences == 6
        assert table.distinct_keys == 3

    def test_sort_count_desc_then_key_asc(self):
        table = FrequencyTable()
        table.update(["beta", "alpha", "gamma", "beta", "alpha", "delta"])
        assert table.items_sorted() == [
            ("alpha", 2), ("beta", 2), ("delta", 1), ("gamma", 1)]

    @given(counts=st.dictionaries(
        st.text(st.sampled_from("aAbz_9\u00e4\u00df\u20ac\U0001f600"),
                min_size=1, max_size=4),
        st.integers(1, 3)))
    def test_sort_matches_negated_count_key(self, counts):
        # Counts of 1-3 over a few short keys: ties everywhere.
        table = FrequencyTable()
        for key, n in counts.items():
            table.update([key] * n)
        assert table.items_sorted() == sorted(
            counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def test_top_n_truncates(self):
        table = FrequencyTable()
        table.update(["a", "a", "b", "c"])
        assert top_n(table, 2) == [("a", 2), ("b", 1)]
        assert top_n(table, 10) == [("a", 2), ("b", 1), ("c", 1)]

    @pytest.mark.parametrize("n", [0, -1])
    def test_top_n_rejects_nonpositive(self, n):
        with pytest.raises(ValueError):
            top_n(FrequencyTable(), n)

    @given(keys=st.lists(st.sampled_from("abcde"), max_size=40),
           cut=st.integers(0, 40))
    def test_merge_equals_whole(self, keys, cut):
        cut = min(cut, len(keys))
        whole = FrequencyTable()
        whole.update(keys)
        left, right = FrequencyTable(), FrequencyTable()
        left.update(keys[:cut])
        right.update(keys[cut:])
        assert left.merge(right) == whole
        assert whole.total_occurrences == len(keys)


class TestEntityCounting:
    def test_mentions_counted_per_occurrence(self, tmp_path, toy_lexicon_path):
        result = _run(tmp_path, toy_lexicon_path,
                      ["@modi @Modi @pmo good", "@MODI", "plain words"])
        table = result.part.mentions
        assert table.count("modi") == 3
        assert table.count("pmo") == 1
        assert table.total_occurrences == 4

    def test_hashtags_fold_to_uppercase(self, tmp_path, toy_lexicon_path):
        result = _run(tmp_path, toy_lexicon_path,
                      ["#GST #gst #GstRollout", "#gStRoLlOuT"])
        table = result.part.hashtags
        assert table.count("GST") == 2
        assert table.count("GSTROLLOUT") == 2
        assert table.distinct_keys == 2


class TestFilterByMention:
    def test_yields_once_per_matching_tweet(self, tmp_path, toy_lexicon_path):
        result = _run(tmp_path, toy_lexicon_path,
                      ["@modi @modi good", "@pmo good", "@Modi good", "good"],
                      mention="modi")
        assert result.summary["subcorpus_tweets"] == 2
        rows = (tmp_path / "out" / "tags.jsonl").read_text("utf-8")
        assert [json.loads(row)["id"] for row in rows.splitlines()] == \
            ["1", "3"]

    def test_handle_matching_is_exact(self, tmp_path, toy_lexicon_path):
        result = _run(tmp_path, toy_lexicon_path, ["@modiji good"],
                      mention="modi")
        assert result.summary["subcorpus_tweets"] == 0
        assert (tmp_path / "out" / "tags.jsonl").read_bytes() == b""
