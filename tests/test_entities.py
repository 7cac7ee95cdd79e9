"""Frequency-table tests, and the entity counts and mention filter of a
run: ordering, merging, case folding, sub-corpus membership."""

import json
import tracemalloc

from hypothesis import given, strategies as st

from tweetlex import report
from tweetlex.entities import FrequencyTable
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
        assert table.items_sorted() == [("a", 4), ("b", 1), ("c", 1)]
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

    @given(keys=st.lists(st.sampled_from("abcde"), max_size=40),
           cut=st.integers(0, 40))
    def test_merge_equals_whole(self, keys, cut):
        cut = min(cut, len(keys))
        whole = FrequencyTable()
        whole.update(keys)
        left, right = FrequencyTable(), FrequencyTable()
        left.update(keys[:cut])
        right.update(keys[cut:])
        assert left.merge(right).items_sorted() == whole.items_sorted()
        assert whole.total_occurrences == len(keys)

    def test_ranking_and_writing_hold_few_bytes_per_key(self, tmp_path):
        # The mentions.csv and wordcloud path of a run: a ranking of the
        # keys alone, (key, count) rows made one at a time.  A list of
        # (key, count) pairs would take about 80 bytes per key.
        keys = [f"user{i:06d}" for i in range(150_000)]
        table = FrequencyTable()
        table.update(key for i, key in enumerate(keys)
                     for _ in range(i % 7 + 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            summary, rows, top = report._entity_summary(table)
            name, writer, data = report._csv_table(
                "mentions.csv", ("key", "count"), rows)
            writer(tmp_path / name, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / len(keys) < 32
        lines = (tmp_path / name).read_text("utf-8").splitlines()
        assert len(lines) == 1 + len(keys)
        assert lines[1:3] == ["user000006,7", "user000013,7"]
        assert list(top.items())[:2] == [("user000006", 7), ("user000013", 7)]
        assert summary["top40_subtotal"] == 40 * 7


class TestEntityCounting:
    def test_mentions_counted_per_occurrence(self, tmp_path, toy_lexicon_path):
        result = _run(tmp_path, toy_lexicon_path,
                      ["@modi @Modi @pmo good", "@MODI", "plain words"])
        table = result.part.mentions
        assert table.items_sorted() == [("modi", 3), ("pmo", 1)]
        assert table.total_occurrences == 4

    def test_hashtags_fold_to_uppercase(self, tmp_path, toy_lexicon_path):
        result = _run(tmp_path, toy_lexicon_path,
                      ["#GST #gst #GstRollout", "#gStRoLlOuT"])
        table = result.part.hashtags
        assert table.items_sorted() == [("GST", 2), ("GSTROLLOUT", 2)]
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
