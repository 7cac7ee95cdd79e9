"""The benchmark's span tracer against the package it traces.

``perfbench/spans.py`` patches tweetlex call sites by name from outside the
package.  A refactor that moves or renames a traced site would leave its
layer reading zero in traced benchmark runs; this test catches that in
the test suite instead.
"""

import importlib.util
import time
from collections import Counter
from pathlib import Path

from tweetlex import _kernels, reference, report
from tweetlex.entities import FrequencyTable
from tweetlex.ingest import RecordReader
from tweetlex.preprocess import (default_stopwords_path, load_stopwords,
                                 preprocess)
from tweetlex.report import AnalyzeConfig, run_analyze
from tweetlex.spatial import RegionAggregate
from tweetlex.temporal import DayBuckets, HourBuckets

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_run"

# Every object whose attributes the tracer may patch.
OWNERS = (report, _kernels, reference, DayBuckets, HourBuckets,
          RegionAggregate, FrequencyTable, RecordReader)


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_records_aggregate_spans_and_restores(tmp_path):
    spans = _load_spans()
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert DayBuckets.__dict__["add"] is not before[DayBuckets]["add"]
        assert (RegionAggregate.__dict__["add"]
                is not before[RegionAggregate]["add"])
        start = time.perf_counter()
        result = run_analyze(AnalyzeConfig(
            input_path=str(GOLDEN / "corpus.jsonl"),
            lexicon_path=str(GOLDEN / "lexicon.tsv"),
            out_dir=str(tmp_path / "out")))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    for owner in OWNERS:
        assert dict(vars(owner)) == before[owner], owner

    calls = Counter(row[2] for row in tracer.spans)
    summary = result.summary
    assert summary["tweets_tagged"] > 0
    assert summary["locations"]["located"] > 0
    assert calls["temporal.DayBuckets.add"] == summary["tweets_tagged"]
    assert calls["temporal.HourBuckets.add"] == summary["tweets_tagged"]
    assert (calls["spatial.RegionAggregate.add"]
            == summary["locations"]["located"])
    metrics = spans.layer_metrics(tracer.export(), wall)
    assert metrics["temporal.add_s"] > 0
    assert metrics["spatial.aggregate_s"] > 0
    assert metrics["preprocess.calls"] == summary["records_read"] - \
        summary["records_rejected"]
    # The traced token count and tag calls are the ones the run made, so a
    # reshaped cleaning result or tagger signature cannot blank its layer.
    stopwords = load_stopwords(default_stopwords_path())
    texts = [text for _id, _ts, text, _loc
             in RecordReader(str(GOLDEN / "corpus.jsonl"), "jsonl")]
    assert metrics["preprocess.tokens"] == sum(
        len(preprocess(text, stopwords).tokens) for text in texts)
    assert metrics["preprocess.tokens"] > 0
    assert calls["tagger.tag_tweet"] == summary["tweets_tagged"]
