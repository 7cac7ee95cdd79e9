"""End-to-end run and CLI tests.

The golden-run files under tests/data/golden_run/expected were derived by
hand from the six-record corpus next to them (token traces, label argmaxes,
IST conversions, region rules) and frozen; the pipeline must reproduce them
byte for byte.  The rest covers determinism across worker counts, the
emit-tags path handling, subcorpus and top subcommands, the oracle
write-after-verify contract, and the exit-code contract.
"""

import csv
import importlib.metadata
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import tweetlex
from tweetlex import reference
from tweetlex.errors import OracleMismatchError
from tweetlex.lexicon import Category
from tweetlex.report import (AnalyzeConfig, run_analyze, run_subcorpus,
                             write_tags_jsonl)
from tweetlex.tagger import EMOTION_LABELS, OVERALL_LABELS, SENTIMENT_LABELS
from tweetlex.cli import main

import corpus_gen

GOLDEN = Path(__file__).parent / "data" / "golden_run"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

GOLDEN_FILES = (
    "daily.csv", "hourly.csv", "mentions.csv", "hashtags.csv", "regions.csv",
    "wordcloud_mentions.json", "wordcloud_hashtags.json", "tags.jsonl",
    "summary.json",
)


def _golden_args(out_dir, *extra):
    return ["analyze",
            "--input", str(GOLDEN / "corpus.jsonl"),
            "--lexicon", str(GOLDEN / "lexicon.tsv"),
            "--out", str(out_dir), *extra]


def _read_tree(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestGoldenRun:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_byte_exact(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        rc = main(_golden_args(out, "--emit-tags", "--threads", threads))
        assert rc == 0
        got = _read_tree(out)
        assert sorted(got) == sorted(GOLDEN_FILES)
        for name in GOLDEN_FILES:
            expected = (GOLDEN / "expected" / name).read_bytes()
            assert got[name] == expected, f"{name} diverged from golden copy"
        err = capsys.readouterr().err
        assert "tagged 4 tweets" in err

    def test_oracle_agrees_on_golden_corpus(self, tmp_path):
        rc = main(_golden_args(tmp_path / "out", "--oracle"))
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["oracle_check"] == "ok"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("det") / "corpus.jsonl"
    corpus_gen.write_random_corpus(path, 600, seed=7)
    return path


class TestDeterminism:
    def test_worker_count_never_changes_output(self, corpus, toy_lexicon_path,
                                               tmp_path):
        trees = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            run_analyze(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
                workers=workers))
            trees[workers] = _read_tree(out)
        assert trees[1] == trees[2] == trees[3]

    def test_rerun_is_byte_identical(self, corpus, toy_lexicon_path, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            run_analyze(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out)))
            outs.append(_read_tree(out))
        assert outs[0] == outs[1]


class TestEmitTags:
    def test_relative_name_lands_in_out_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(_golden_args(out, "--emit-tags", "mytags.jsonl"))
        assert rc == 0
        assert (out / "mytags.jsonl").exists()
        assert not (out / "tags.jsonl").exists()

    def test_absolute_path_honored(self, tmp_path, capsys):
        target = tmp_path / "elsewhere.jsonl"
        rc = main(_golden_args(tmp_path / "out", "--emit-tags", str(target)))
        assert rc == 0
        assert target.read_bytes() == \
            (GOLDEN / "expected" / "tags.jsonl").read_bytes()

    def test_off_by_default(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_golden_args(out)) == 0
        assert not (out / "tags.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_follow_admitted_order_across_chunks(
            self, tmp_path, toy_lexicon_path, bundled_stopwords, workers):
        # 3,500 lines make four chunks.  Four lines take the id of an
        # earlier line, two of them from an earlier chunk, so admission
        # shifts every later chunk's boundary.
        corpus = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(corpus, 3500, seed=31)
        lines = corpus.read_text("utf-8").splitlines(keepends=True)
        for dup, orig in ((5, 2), (1500, 40), (2600, 1023), (3499, 3000)):
            record = json.loads(lines[dup])
            record["id"] = json.loads(lines[orig])["id"]
            lines[dup] = json.dumps(record, ensure_ascii=False) + "\n"
        corpus.write_text("".join(lines), encoding="utf-8")
        # Expected rows from first principles: first occurrence of an id
        # wins, and a tweet is tagged when the reference cleaner leaves a
        # token.
        seen, expected = set(), []
        for line in lines:
            record = json.loads(line)
            if record["id"] in seen:
                continue
            seen.add(record["id"])
            if reference.naive_clean(record["text"], bundled_stopwords)[0]:
                expected.append(record["id"])
        out = tmp_path / "out"
        result = run_analyze(AnalyzeConfig(
            input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
            out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
            workers=workers))
        assert result.summary["rejected_reasons"] == {"duplicate": 4}
        rows = (out / "tags.jsonl").read_text("utf-8").splitlines()
        assert [json.loads(row)["id"] for row in rows] == expected
        assert len(expected) == result.summary["tweets_tagged"]


_TAG_LABEL_COMBOS = list(itertools.product(
    range(len(SENTIMENT_LABELS)), range(len(EMOTION_LABELS)),
    range(len(OVERALL_LABELS)), (False, True)))

# Characters JSON must escape or that need care in UTF-8, mixed with any
# other encodable character.
_ID_CHARS = st.one_of(
    st.sampled_from('"\\\x7f\u2028\u2029'),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x10000),
    st.characters(),
)


def _dumped_rows(rows) -> bytes:
    """tags.jsonl bytes as json.dumps lays out each row as a dict."""
    return "".join(json.dumps({
        "id": rec_id,
        "counts": dict(zip((c.label for c in Category), vector)),
        "sentiment": SENTIMENT_LABELS[s],
        "emotion": EMOTION_LABELS[e],
        "overall": OVERALL_LABELS[o],
        "tied": tied,
    }, ensure_ascii=False) + "\n"
        for rec_id, vector, s, e, o, tied in rows).encode("utf-8")


class TestTagRowFormat:
    @given(ids=st.lists(st.text(_ID_CHARS, min_size=1), min_size=1,
                        max_size=8),
           vectors=st.lists(st.lists(st.integers(0, 2**40), min_size=10,
                                     max_size=10), min_size=1, max_size=8),
           cut=st.integers(0, len(_TAG_LABEL_COMBOS)))
    def test_equals_json_dumps_of_row_dict(self, ids, vectors, cut):
        # Every label and tie combination once per example, written in
        # two appends.
        rows = [(ids[i % len(ids)], vectors[i % len(vectors)], s, e, o, tied)
                for i, (s, e, o, tied) in enumerate(_TAG_LABEL_COMBOS)]
        fh = io.BytesIO()
        write_tags_jsonl(fh, rows[:cut])
        write_tags_jsonl(fh, rows[cut:])
        assert fh.getvalue() == _dumped_rows(rows)


class TestEmptyCorpus:
    def test_header_only_files_and_null_peak(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(empty),
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "daily.csv").read_text() == "date,channel,label,count\n"
        assert (out / "hourly.csv").read_text() == "slot,count\n"
        assert (out / "regions.csv").read_text().count("\n") == 1
        assert (out / "mentions.csv").read_text() == "key,count\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["records_read"] == 0
        assert summary["peak_hour_slot"] is None
        assert json.loads((out / "wordcloud_hashtags.json").read_text()) == {}


class TestSubcorpus:
    def test_writes_only_daily_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["subcorpus", "--mention", "@GST_Council",
                   *_golden_args(out)[1:]])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["daily.csv", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mention"] == "gst_council"
        assert summary["subcorpus_tweets"] == 1
        assert summary["tweets_tagged"] == 1
        # Only the July 1 tweet mentions the handle.
        daily = (out / "daily.csv").read_text()
        assert "2017-07-01,sentiment,positive,1" in daily
        assert "2017-07-02" not in daily

    def test_blank_tweet_counts_as_matched_but_untagged(self, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        rc = main(["subcorpus", "--mention", "PMOIndia",
                   *_golden_args(out)[1:]])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mention"] == "pmoindia"
        assert summary["subcorpus_tweets"] == 1
        assert summary["blanks_dropped"] == 1
        assert summary["tweets_tagged"] == 0
        assert summary["peak_hour_slot"] is None
        assert (out / "daily.csv").read_text() == "date,channel,label,count\n"

    def test_empty_handle_rejected(self, tmp_path, capsys):
        rc = main(["subcorpus", "--mention", "@",
                   *_golden_args(tmp_path / "out")[1:]])
        assert rc == 1
        assert not (tmp_path / "out").exists()

    def test_api_requires_mention(self, toy_lexicon_path, tmp_path):
        config = AnalyzeConfig(input_path=str(GOLDEN / "corpus.jsonl"),
                               lexicon_path=str(toy_lexicon_path),
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(Exception, match="mention"):
            run_subcorpus(config)


@pytest.fixture(scope="module")
def longtail_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("longtail") / "corpus.jsonl"
    corpus_gen.write_longtail_corpus(path, 2000, seed=11)
    return path


class TestTopCommand:
    def test_mentions_ranking(self, capsys):
        rc = main(["top", "--what", "mentions",
                   "--input", str(GOLDEN / "corpus.jsonl")])
        assert rc == 0
        assert capsys.readouterr().out == "gst_council,1\npmoindia,1\n"

    def test_hashtags_ranking_with_n(self, capsys):
        rc = main(["top", "--what", "hashtags", "-n", "1",
                   "--input", str(GOLDEN / "corpus.jsonl")])
        assert rc == 0
        assert capsys.readouterr().out == "GST,3\n"

    @pytest.mark.parametrize("what", ["mentions", "hashtags"])
    @pytest.mark.parametrize("corpus_name", ["golden", "longtail"])
    def test_equals_head_of_analyze_table(self, tmp_path, capsys,
                                          longtail_corpus, corpus_name,
                                          what):
        corpus = (GOLDEN / "corpus.jsonl" if corpus_name == "golden"
                  else longtail_corpus)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(corpus),
                     "--lexicon", str(GOLDEN / "lexicon.tsv"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["top", "--what", what, "-n", "40",
                     "--input", str(corpus)]) == 0
        table = (out / f"{what}.csv").read_text("utf-8").splitlines()[1:]
        assert capsys.readouterr().out.splitlines() == table[:40]
        # Both sides agreeing is not enough: the keys must be folded, and
        # the long tail must run past the cut.
        fold = str.lower if what == "mentions" else str.upper
        keys = [line.rsplit(",", 1)[0] for line in table]
        assert keys == [fold(key) for key in keys]
        if corpus_name == "longtail":
            assert len(table) > 40


class TestOracleFailurePath:
    def test_mismatch_aborts_before_writing(self, tmp_path, monkeypatch,
                                            capsys):
        # Sabotage the reference labeler; the run must fail loudly and the
        # output directory must never appear (write-after-verify).
        monkeypatch.setattr(reference, "_pick",
                            lambda counts, order: ("positive", False))
        out = tmp_path / "out"
        config = AnalyzeConfig(input_path=str(GOLDEN / "corpus.jsonl"),
                               lexicon_path=str(GOLDEN / "lexicon.tsv"),
                               out_dir=str(out), oracle=True)
        with pytest.raises(OracleMismatchError, match="pipeline="):
            run_analyze(config)
        assert not out.exists()

    def test_mismatch_leaves_tags_path_and_tempdir_untouched(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(reference, "_pick",
                            lambda counts, order: ("positive", False))
        spill_dir = tmp_path / "tmp"
        spill_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
        tags = tmp_path / "elsewhere" / "tags.jsonl"
        tags.parent.mkdir()
        tags.write_bytes(b"an earlier run's rows\n")
        out = tmp_path / "out"
        config = AnalyzeConfig(input_path=str(GOLDEN / "corpus.jsonl"),
                               lexicon_path=str(GOLDEN / "lexicon.tsv"),
                               out_dir=str(out), emit_tags=str(tags),
                               oracle=True)
        with pytest.raises(OracleMismatchError, match="pipeline="):
            run_analyze(config)
        assert tags.read_bytes() == b"an earlier run's rows\n"
        assert not out.exists()
        assert list(spill_dir.iterdir()) == []

    def test_cli_reports_mismatch_as_config_failure(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(reference, "_pick",
                            lambda counts, order: ("positive", False))
        rc = main(_golden_args(tmp_path / "out", "--oracle"))
        assert rc == 1
        assert "reference run disagrees" in capsys.readouterr().err

    def test_oracle_rejects_stdin(self, tmp_path, monkeypatch, capsys):
        # Refused before a byte of input is read or any output is made.
        stdin = io.BytesIO((GOLDEN / "corpus.jsonl").read_bytes())
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
        out = tmp_path / "out"
        rc = main(["analyze", "--input", "-",
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out), "--oracle"])
        assert rc == 1
        assert "--oracle needs a file input" in capsys.readouterr().err
        assert stdin.tell() == 0
        assert not out.exists()


class TestCsvFormat:
    def test_csv_corpus_end_to_end(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        corpus.write_text(
            "id,created_at,text,user_location\n"
            "c1,2017-07-01T10:00:00+05:30,good glad day,Mumbai\n"
            "c2,2017-07-01T11:00:00+05:30,bad poor show,\n",
            encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(corpus), "--format", "csv",
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tweets_tagged"] == 2
        assert summary["locations"] == {"located": 1, "unknown": 1,
                                        "india_total": 1, "foreign": 0}


class TestLocationMemo:
    def test_each_run_resolves_with_its_own_gazetteer(self, tmp_path,
                                                      toy_lexicon_path):
        # Two in-process runs on one corpus, with gazetteers that send the
        # same location string to different regions: a location memo that
        # outlived its run would hand the second run the first's region.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"m{i}", "created_at": "2017-07-01T10:00:00Z",
                        "text": "good day", "user_location": "Springfield"})
            + "\n" for i in range(3)), encoding="utf-8")
        tweets = {}
        for region in ("Goa", "Kerala"):
            gazetteer = tmp_path / f"{region}.csv"
            gazetteer.write_text(f"springfield,{region},1\n", encoding="utf-8")
            out = tmp_path / region
            run_analyze(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out), gazetteer_path=str(gazetteer)))
            with open(out / "regions.csv", newline="") as fh:
                tweets[region] = {row["region"]: int(row["tweets"])
                                  for row in csv.DictReader(fh)}
        assert (tweets["Goa"]["Goa"], tweets["Goa"]["Kerala"]) == (3, 0)
        assert (tweets["Kerala"]["Goa"], tweets["Kerala"]["Kerala"]) == (0, 3)


class TestLoneSurrogateId:
    def test_rejected_at_admission_and_tags_encode(self, tmp_path, capsys):
        # json.dumps escapes the lone surrogate as \ud800, which json.loads
        # turns back into a str that no UTF-8 writer can encode.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": rec_id, "created_at": "2017-07-01T10:00:00Z",
                        "text": "good day"}) + "\n"
            for rec_id in ("ok1", "\ud800", "ok2")), encoding="ascii")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(corpus),
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out), "--emit-tags"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        assert summary["rejected_reasons"] == {"id": 1}
        tags = (out / "tags.jsonl").read_bytes().decode("utf-8")
        assert [json.loads(line)["id"] for line in tags.splitlines()] == \
            ["ok1", "ok2"]


class TestInvalidUtf8:
    def test_bad_byte_is_a_counted_rejection(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(
            b'{"id": "a", "created_at": "2017-07-01T10:00:00Z", '
            b'"text": "good \xff day"}\n'
            b'{"id": "b", "created_at": "2017-07-01T10:00:00Z", '
            b'"text": "good day"}\n')
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(corpus),
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out), "--oracle"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        assert summary["rejected_reasons"] == {"encoding": 1}
        assert summary["tweets_tagged"] == 1
        assert summary["oracle_check"] == "ok"

    @pytest.mark.parametrize("option,content", [
        ("--lexicon", b"good\tjoy\t1\ncaf\xff\tjoy\t1\n"),
        ("--stopwords", b"the\ncaf\xff\n"),
        ("--gazetteer", b"mumbai,Maharashtra,1\ncaf\xff,Goa,1\n"),
    ], ids=["lexicon", "stopwords", "gazetteer"])
    def test_bad_byte_in_data_file_exits_1(self, tmp_path, option, content):
        bad = tmp_path / "data.txt"
        bad.write_bytes(content)
        files = {"--lexicon": str(GOLDEN / "lexicon.tsv"), option: str(bad)}
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "tweetlex.cli", "analyze",
             "--input", str(GOLDEN / "corpus.jsonl"), "--out", str(out),
             *(arg for item in files.items() for arg in item)],
            capture_output=True, text=True, timeout=120, env=_child_env())
        assert proc.returncode == 1, proc.stderr
        assert str(bad) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestExitCodes:
    def test_missing_input_is_io_failure(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path / "nope.jsonl"),
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_out_is_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        rc = main(_golden_args(blocker))
        assert rc == 2

    def test_bad_lexicon_is_config_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("word only one field\n", encoding="utf-8")
        rc = main(["analyze", "--input", str(GOLDEN / "corpus.jsonl"),
                   "--lexicon", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_bad_gazetteer_is_config_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("place,Atlantis,1\n", encoding="utf-8")
        rc = main(_golden_args(tmp_path / "out", "--gazetteer", str(bad)))
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        [],
        ["analyze"],
        ["frobnicate"],
        ["analyze", "--input", "x", "--lexicon", "y", "--out", "z",
         "--threads", "0"],
        ["analyze", "--input", "x", "--lexicon", "y", "--out", "z",
         "--from", "July 1"],
        ["analyze", "--input", "x", "--lexicon", "y", "--out", "z",
         "--default-tz", "UTC+5"],
        ["top", "--what", "everything", "--input", "x"],
    ])
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def _declared_entry_point():
    """The ``tweetlex`` console script that pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["tweetlex"]


def _child_env(**extra):
    """Environment in which a child process imports the package under test."""
    env = dict(os.environ, **extra)
    src = str(Path(tweetlex.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _installed_script_missing():
    try:
        importlib.metadata.distribution("tweetlex")
    except importlib.metadata.PackageNotFoundError:
        return True
    return shutil.which("tweetlex") is None


def _analyze_stdin(command, out, **env):
    return subprocess.run(
        [*command, "analyze", "--input", "-",
         "--lexicon", str(GOLDEN / "lexicon.tsv"), "--out", str(out)],
        input=(GOLDEN / "corpus.jsonl").read_bytes(),
        capture_output=True, timeout=120, env=_child_env(**env))


class TestInstalledEntryPoint:
    def test_stdin_corpus_through_real_process(self, tmp_path):
        # Run the declared entry point the way pip's script wrapper does, so
        # the test needs no installation; once with the host's stdin
        # encoding and once with an ASCII one, which must not change a byte.
        module, func = _declared_entry_point().split(":")
        command = [sys.executable, "-c",
                   f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'tweetlex'; sys.exit({func}())"]
        for label, env in (("default", {}),
                           ("ascii", {"PYTHONIOENCODING": "ascii"})):
            out = tmp_path / label
            proc = _analyze_stdin(command, out, **env)
            assert proc.returncode == 0, proc.stderr.decode()
            for name in ("daily.csv", "hourly.csv", "summary.json"):
                got = (out / name).read_bytes()
                assert got == (GOLDEN / "expected" / name).read_bytes()

    @pytest.mark.skipif(
        _installed_script_missing(),
        reason="no installed tweetlex distribution with a tweetlex "
               "executable on PATH")
    def test_stdin_corpus_through_installed_script(self, tmp_path):
        dist = importlib.metadata.distribution("tweetlex")
        scripts = [ep.value for ep in dist.entry_points
                   if ep.group == "console_scripts" and ep.name == "tweetlex"]
        assert scripts == [_declared_entry_point()]
        out = tmp_path / "out"
        proc = _analyze_stdin(["tweetlex"], out)
        assert proc.returncode == 0, proc.stderr.decode()
        for name in ("daily.csv", "hourly.csv", "summary.json"):
            got = (out / name).read_bytes()
            assert got == (GOLDEN / "expected" / name).read_bytes()

    def test_module_invocation_matches(self, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "tweetlex.cli", *_golden_args(out)],
            capture_output=True, timeout=120, env=_child_env())
        assert proc.returncode == 0, proc.stderr.decode()
        assert (out / "summary.json").read_bytes() == \
            (GOLDEN / "expected" / "summary.json").read_bytes()
