"""What code outside the package reads from it.

``perfbench/sample.py`` runs each benchmark sample through the package's
public entry points and result fields.  A refactor that renames one of them
would fail every benchmark run, so these tests run that script's own
functions on the golden corpus.  ``perfbench/run.py`` records
``tweetlex._kernels.BACKEND`` and ``perfbench/spans.py`` replaces that
module's ``tokenize`` and ``count_masks``, so those three are checked, and
so is the package's ``__all__``.  And no module-level function or class of
the package is left that only tests use.
"""

import ast
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import tweetlex
from tweetlex import _kernels

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "tweetlex"
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


def test_kernel_module_attributes():
    assert _kernels.BACKEND == tweetlex.BACKEND == "pure"
    assert callable(_kernels.tokenize)
    assert callable(_kernels.count_masks)


def _used_names(statement: ast.AST) -> set[str]:
    """Names and attribute names that ``statement`` reads or calls."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_package_definition_has_a_caller_outside_tests():
    # A definition's use of its own name (recursion) does not count, nor
    # does an import, a docstring or a comment: only a name or attribute
    # read in package code or in perfbench/.
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text("utf-8")).body:
            names = _used_names(statement)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                defined[statement.name] = path.name
                names.discard(statement.name)
            used |= names
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _used_names(ast.parse(path.read_text("utf-8")))
    assert len(defined) > 50
    assert {name: module for name, module in defined.items()
            if name not in used} == {}
