"""What code outside the package reads from it.

``perfbench/sample.py`` runs each benchmark sample through the package's
public entry points and result fields.  A refactor that renames one of them
would fail every benchmark run, so these tests run that script's own
functions on the golden corpus.  The package's ``__all__`` is checked too.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import tweetlex

ROOT = Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"
GOLDEN = ROOT / "tests" / "data" / "golden_run"

# Benchmark runs: a full analyze with every output file, and a windowed
# subcorpus run on a handle with one tagged tweet.
CONFIGS = {
    "analyze": {"emit_tags": "tags.jsonl"},
    "subcorpus": {"mention": "gst_council", "date_from": "2017-07-01",
                  "date_to": "2017-07-02"},
}


@pytest.fixture(scope="module")
def sample():
    """perfbench/sample.py, loaded by path with the sibling modules it
    imports by bare name."""
    siblings = ("calibrate", "spans")
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_sample", PERFBENCH / "sample.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    yield module
    for name in siblings:
        sys.modules.pop(name, None)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_sample_run(sample, tmp_path, kind, trace):
    out_dir = tmp_path / "out"
    result = sample.run({
        "config": {"input_path": str(GOLDEN / "corpus.jsonl"),
                   "lexicon_path": str(GOLDEN / "lexicon.tsv"),
                   **CONFIGS[kind]},
        "out_dir": str(out_dir),
        "trace": trace,
    })
    assert result["ok"], result.get("error")
    summary = result["summary"]
    assert summary["tweets_tagged"] > 0
    assert result["matched"] == \
        summary["tweets_tagged"] + summary["blanks_dropped"]
    assert sorted(result["digests"]) == \
        sorted(p.name for p in out_dir.iterdir())
    assert ("trace" in result) == trace
    if kind == "analyze":
        assert summary["records_read"] == \
            result["matched"] + summary["records_rejected"]
        assert result["distinct_keys"] == \
            summary["mentions"]["distinct"] + summary["hashtags"]["distinct"]
        assert result["digests"] == {
            name: _sha256(GOLDEN / "expected" / name)
            for name in result["digests"]}
    else:
        assert summary["mention"] == "gst_council"
        assert sorted(result["digests"]) == ["daily.csv", "summary.json"]


def test_sample_setup(sample):
    result = sample.setup({
        "config": {"lexicon_path": str(GOLDEN / "lexicon.tsv")},
        "setup_reps": 2,
    })
    assert result["ok"]
    assert len(result["setup_s"]) == len(result["factors"]) == 2


def test_every_exported_name_imports():
    namespace = {}
    exec("from tweetlex import *", namespace)
    assert set(tweetlex.__all__) <= set(namespace)
