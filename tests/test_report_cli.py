"""End-to-end run and CLI tests.

The golden-run files under tests/data/golden_run/expected were derived by
hand from the six-record corpus next to them (token traces, label argmaxes,
IST conversions, region rules) and frozen; the pipeline must reproduce them
byte for byte.  The rest covers determinism across worker counts, the
emit-tags path handling, subcorpus and top subcommands, the oracle
write-after-verify contract, and the exit-code contract.
"""

import csv
import errno
import importlib.metadata
import io
import itertools
import json
import multiprocessing
import multiprocessing.connection
import os
import random
import shutil
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import types
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import tweetlex
from tweetlex import _kernels, ingest, reference, report, spatial
from tweetlex.entities import FrequencyTable
from tweetlex.errors import OracleMismatchError, TweetlexError
from tweetlex.ingest import RecordReader
from tweetlex.lexicon import Category, load_lexicon
from tweetlex.preprocess import default_stopwords_path
from tweetlex.report import (AnalyzeConfig, run_analyze, run_subcorpus,
                             write_tags_jsonl)
from tweetlex.tagger import EMOTION_LABELS, OVERALL_LABELS, SENTIMENT_LABELS
from tweetlex.cli import main

import corpus_gen
import cross_python

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


@pytest.fixture
def two_cpus(monkeypatch):
    """Fake two usable CPUs, so that a run with two or more workers starts
    one helper process on any host."""
    monkeypatch.setattr(report.os, "sched_getaffinity", lambda _pid: {0, 1},
                        raising=False)


@pytest.fixture
def four_cpus(monkeypatch):
    """Fake four usable CPUs, so that a four-worker run starts three helper
    processes on any host."""
    monkeypatch.setattr(report.os, "sched_getaffinity",
                        lambda _pid: {0, 1, 2, 3}, raising=False)


#: Records of a corpus of nine chunks and a 17-record tail.
_NINE_CHUNKS_AND_A_TAIL = 9 * report.CHUNK_SIZE + 17


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

    def test_subcorpus_worker_count_never_changes_output(
            self, corpus, toy_lexicon_path, tmp_path):
        trees = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            run_subcorpus(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
                workers=workers, mention="gst_council"))
            trees[workers] = _read_tree(out)
        assert trees[1] == trees[2] == trees[3]
        assert sorted(trees[1]) == ["daily.csv", "summary.json", "tags.jsonl"]
        assert trees[1]["tags.jsonl"]

    def test_subcorpus_oracle_adds_only_its_summary_key(
            self, corpus, toy_lexicon_path, tmp_path):
        trees = {}
        for oracle in (False, True):
            out = tmp_path / f"oracle{oracle}"
            run_subcorpus(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
                mention="finminindia", oracle=oracle))
            trees[oracle] = _read_tree(out)
        checked = json.loads(trees[True].pop("summary.json"))
        assert checked.pop("oracle_check") == "ok"
        assert checked == json.loads(trees[False].pop("summary.json"))
        assert trees[False] == trees[True]

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_start_method_never_changes_output(
            self, toy_lexicon_path, tmp_path, monkeypatch, two_cpus, method):
        # Python 3.14 starts processes with forkserver by default on Linux;
        # a helper must then get all its state from its start arguments.
        # The run makes its helpers and pipes through report.multiprocessing
        # (test_workers_never_exceed_the_cpus counts them there).
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        context = multiprocessing.get_context(method)
        helpers, main_chunks = [], []
        main_pid, process_chunk = os.getpid(), report._process_chunk

        def helper(*args, **kwargs):
            helpers.append(context.Process(*args, **kwargs))
            return helpers[-1]

        def counted(records, *state):
            if os.getpid() == main_pid:
                main_chunks.append(len(records))
            return process_chunk(records, *state)

        corpus = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(corpus, 3000, seed=13)
        trees = {}
        for workers in (1, 2):
            if workers == 2:
                monkeypatch.setattr(report, "multiprocessing",
                                    types.SimpleNamespace(
                                        Process=helper, Pipe=context.Pipe))
                monkeypatch.setattr(report, "_process_chunk", counted)
                # No result is ready before the corpus ends, as when the
                # helper is slow: it takes chunks 0 and 1, and the main
                # process, with the helper _IN_FLIGHT chunks ahead, runs
                # chunk 2.
                monkeypatch.setattr(multiprocessing.connection.Connection,
                                    "poll", lambda _conn, _timeout=0.0: False)
            out = tmp_path / f"w{workers}"
            run_analyze(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
                workers=workers))
            trees[workers] = _read_tree(out)
        assert trees[1] == trees[2]
        assert sorted(trees[1]) == sorted(GOLDEN_FILES)
        assert [proc.exitcode for proc in helpers] == [0]
        assert main_chunks == [3000 - 2 * report.CHUNK_SIZE]

    @staticmethod
    def _tree(corpus, toy_lexicon_path, out, workers) -> dict[str, bytes]:
        """The files of a run on ``corpus`` with tag rows into ``out``."""
        run_analyze(AnalyzeConfig(
            input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
            out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
            workers=workers))
        return _read_tree(out)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the pipe ends are recorded in the forking process")
    def test_chunks_go_to_the_helper_with_fewest_in_flight(
            self, toy_lexicon_path, tmp_path, monkeypatch, four_cpus):
        # No result is ready before the corpus ends, as when every helper
        # is slow: chunks 0-5 go to the three helpers in turn, each to the
        # one with the fewest in flight, the lowest index on ties, and the
        # main process, with every helper _IN_FLIGHT chunks ahead, runs
        # chunks 6-9 itself.
        context = multiprocessing.get_context("fork")
        main_pid, process_chunk = os.getpid(), report._process_chunk
        send = multiprocessing.connection.Connection.send
        main_ends, sent, main_chunks = [], [], []

        def pipe():
            main_end, child = context.Pipe()
            main_ends.append(main_end)
            return main_end, child

        def sending(conn, chunk):
            """Note the helper and the first record id of each chunk."""
            if os.getpid() == main_pid:
                sent.append((main_ends.index(conn), chunk and chunk[0][0]))
            send(conn, chunk)

        def counted(records, *state):
            if os.getpid() == main_pid:
                main_chunks.append(len(records))
            return process_chunk(records, *state)

        corpus = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(corpus, _NINE_CHUNKS_AND_A_TAIL,
                                       seed=13)
        one = self._tree(corpus, toy_lexicon_path, tmp_path / "w1", 1)
        monkeypatch.setattr(report, "multiprocessing", types.SimpleNamespace(
            Process=context.Process, Pipe=pipe))
        monkeypatch.setattr(report, "_process_chunk", counted)
        monkeypatch.setattr(multiprocessing.connection.Connection, "poll",
                            lambda _conn, _timeout=0.0: False)
        monkeypatch.setattr(multiprocessing.connection.Connection, "send",
                            sending)
        four = self._tree(corpus, toy_lexicon_path, tmp_path / "w4", 4)

        assert four == one
        assert sorted(one) == sorted(GOLDEN_FILES)
        first_ids = [json.loads(line)["id"] for line in
                     corpus.read_text(encoding="utf-8").splitlines()
                     ][::report.CHUNK_SIZE]
        assert sent == [(h, first_ids[k])
                        for k, h in enumerate([0, 1, 2, 0, 1, 2])] + \
            [(0, None), (1, None), (2, None)]
        assert main_chunks == [report.CHUNK_SIZE] * 3 + [17]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the delay is patched into a forked helper")
    def test_results_out_of_chunk_order_merge_in_chunk_order(
            self, toy_lexicon_path, tmp_path, monkeypatch, four_cpus):
        # The first helper sleeps 50 ms before each of its chunks, so the
        # other two send the results of later chunks before it sends that
        # of chunk 0.
        context = multiprocessing.get_context("fork")
        process_chunk, helpers = report._process_chunk, []

        def slow(records, *state):
            time.sleep(0.05)
            return process_chunk(records, *state)

        def slowed(work):
            def slow_work(*args):
                report._process_chunk = slow  # in the forked helper only
                work(*args)
            return slow_work

        def helper(*, target, **kwargs):
            if not helpers:
                target = slowed(target)
            helpers.append(context.Process(target=target, **kwargs))
            return helpers[-1]

        corpus = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(corpus, _NINE_CHUNKS_AND_A_TAIL,
                                       seed=13)
        one = self._tree(corpus, toy_lexicon_path, tmp_path / "w1", 1)
        monkeypatch.setattr(report, "multiprocessing", types.SimpleNamespace(
            Process=helper, Pipe=context.Pipe))
        four = self._tree(corpus, toy_lexicon_path, tmp_path / "w4", 4)

        assert four == one
        assert [proc.exitcode for proc in helpers] == [0, 0, 0]
        assert multiprocessing.active_children() == []

    @staticmethod
    def _started_per_run(cpus, toy_lexicon_path, tmp_path, monkeypatch):
        """Run a 3,000-line corpus at 1 and 3 workers with ``cpus``
        usable CPUs faked; return the output trees and the number of
        processes started so far after each run, by worker count."""
        monkeypatch.setattr(report.os, "sched_getaffinity",
                            lambda _pid: set(range(cpus)), raising=False)
        started = []

        class CountedProcess(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(report, "multiprocessing", types.SimpleNamespace(
            Process=CountedProcess, Pipe=multiprocessing.Pipe))
        corpus = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(corpus, 3000, seed=13)
        trees, counts = {}, {}
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            run_analyze(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
                workers=workers))
            trees[workers] = _read_tree(out)
            counts[workers] = len(started)
        summary = json.loads(trees[1]["summary.json"])
        assert summary["records_read"] > report.CHUNK_SIZE
        return trees, counts

    def test_workers_never_exceed_the_cpus(self, toy_lexicon_path, tmp_path,
                                           monkeypatch):
        # Two CPUs are faked, so the run stays small on any host.
        trees, counts = self._started_per_run(2, toy_lexicon_path, tmp_path,
                                              monkeypatch)
        assert counts == {1: 0, 3: 1}
        assert trees[1] == trees[3]

    def test_one_cpu_runs_the_chunks_in_process(self, toy_lexicon_path,
                                                tmp_path, monkeypatch):
        trees, counts = self._started_per_run(1, toy_lexicon_path, tmp_path,
                                              monkeypatch)
        assert counts == {1: 0, 3: 0}
        assert trees[1] == trees[3]

    def test_rerun_is_byte_identical(self, corpus, toy_lexicon_path, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            run_analyze(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out)))
            outs.append(_read_tree(out))
        assert outs[0] == outs[1]


def _run_script(script: str, *args) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter on this checkout's package, so
    that a run that hangs fails the test at the timeout instead of hanging
    the suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script),
                           *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=60)


#: Runs argv[1] (corpus) with argv[2] (lexicon) into argv[3] on two fork
#: workers, the main process and one helper; the helper exits with code 3
#: at its second chunk, which it always takes: chunks 0 and 1 go to it
#: before it can fall _IN_FLIGHT chunks behind.  Prints the error and then
#: the number of live child processes.  Two usable CPUs are faked, so the
#: helper starts on any host.
_DYING_WORKER = """
    import multiprocessing, os, sys
    from tweetlex import report
    from tweetlex.errors import TweetlexError

    os.sched_getaffinity = lambda _pid: {0, 1}

    process_chunk, calls, main_pid = report._process_chunk, [], os.getpid()

    def dying(records, *state):
        if os.getpid() != main_pid:
            calls.append(len(records))
            if len(calls) == 2:
                os._exit(3)
        return process_chunk(records, *state)

    report._process_chunk = dying
    report.multiprocessing = multiprocessing.get_context("fork")
    try:
        report.run_analyze(report.AnalyzeConfig(
            input_path=sys.argv[1], lexicon_path=sys.argv[2],
            out_dir=sys.argv[3], workers=2))
    except TweetlexError as exc:
        print(exc)
    print(len(multiprocessing.active_children()))
"""

#: Runs argv[1] with argv[2] into argv[3] with tag rows at 1 and 2 workers
#: and prints whether the two output trees are equal.  Two usable CPUs are
#: faked, so the helper starts on any host.
_TWO_RUNS = """
    import os, sys
    from pathlib import Path
    from tweetlex import report

    os.sched_getaffinity = lambda _pid: {0, 1}

    trees = []
    for workers in (1, 2):
        out = Path(sys.argv[3]) / f"w{workers}"
        report.run_analyze(report.AnalyzeConfig(
            input_path=sys.argv[1], lexicon_path=sys.argv[2],
            out_dir=str(out), emit_tags=str(out / "tags.jsonl"),
            workers=workers))
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    print(trees[0] == trees[1])
"""


#: Runs argv[1] with argv[2] into argv[3] with tag rows on two fork
#: workers, the helper sleeping argv[4] seconds before its first chunk,
#: then prints this process's peak resident memory in KiB (VmHWM, its own,
#: as cross_python's _PEAK_CLI reads it).  Two usable CPUs are faked, so
#: the helper starts on any host.
_STALLED_HELPER = """
    import multiprocessing, os, sys, time
    from tweetlex import report

    os.sched_getaffinity = lambda _pid: {0, 1}
    report.multiprocessing = multiprocessing.get_context("fork")
    work, process_chunk = report._work, report._process_chunk

    def stalled(records, *state):
        report._process_chunk = process_chunk
        time.sleep(float(sys.argv[4]))
        return process_chunk(records, *state)

    def stalling(*args):
        report._process_chunk = stalled  # in the forked helper only
        work(*args)

    report._work = stalling
    report.run_analyze(report.AnalyzeConfig(
        input_path=sys.argv[1], lexicon_path=sys.argv[2],
        out_dir=sys.argv[3], emit_tags=os.path.join(sys.argv[3], "tags.jsonl"),
        workers=2))
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh
                   if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the faults are patched into forked workers")
class TestWorkerProcesses:
    """Worker processes never outlive a run, a worker that fails ends the
    run with an error instead of hanging it, and one that stalls holds back
    few results."""

    @pytest.fixture
    def six_chunks(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(path, 6 * report.CHUNK_SIZE, seed=17)
        return path

    def test_dead_worker_is_an_error_naming_its_exit_code(
            self, six_chunks, toy_lexicon_path, tmp_path):
        out = tmp_path / "out"
        proc = _run_script(_DYING_WORKER, six_chunks, toy_lexicon_path, out)
        assert proc.returncode == 0, proc.stderr
        error, children = proc.stdout.splitlines()
        assert "exited with code 3" in error
        assert children == "0"
        assert not out.exists()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="each run reads its peak memory from /proc")
    def test_a_stalled_helper_holds_back_few_results(
            self, toy_lexicon_path, tmp_path):
        # While the helper sleeps on chunk 0, the main process works on the
        # later chunks itself.  Held behind chunk 0, the results of all 62
        # raise the peak by about 12 MiB (0.2 MiB each); _MAX_HELD, 16 of
        # them, take no more than the 4 MiB allowed here, and took under
        # 0.5 MiB in 4 runs.
        corpus = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(corpus, 64 * report.CHUNK_SIZE,
                                       seed=17)
        peaks, trees = [], []
        for stall in (0, 2):
            out = tmp_path / f"stall{stall}"
            proc = _run_script(_STALLED_HELPER, corpus, toy_lexicon_path,
                               out, stall)
            assert proc.returncode == 0, proc.stderr
            peaks.append(int(proc.stdout) << 10)
            trees.append(_read_tree(out))
        assert trees[0] == trees[1]
        assert peaks[1] <= peaks[0] + (4 << 20), (peaks[0] >> 10,
                                                  peaks[1] >> 10)

    @pytest.mark.parametrize("fault",
                             [None, "worker", "main", "reader", "spill"])
    def test_no_worker_outlives_the_run(self, six_chunks, toy_lexicon_path,
                                        tmp_path, monkeypatch, two_cpus,
                                        fault):
        monkeypatch.setattr(report, "multiprocessing",
                            multiprocessing.get_context("fork"))
        main_pid, calls, alive = os.getpid(), [], []

        def failing(function, error, nth, in_main):
            """``function``, raising ``error`` at its ``nth`` call in the
            main process (``in_main``) or in a forked helper; the main
            process notes its live helpers as it raises."""
            def wrapped(*args):
                if (os.getpid() == main_pid) == in_main:
                    calls.append(args)
                    if len(calls) == nth:
                        alive.append(len(multiprocessing.active_children()))
                        raise error
                return function(*args)
            return wrapped

        error = {"worker": ValueError("chunk fault"),
                 "main": ValueError("main chunk fault"),
                 "reader": OSError(errno.EIO, "read fault"),
                 "spill": OSError(errno.ENOSPC, "spill fault")}.get(fault)
        if fault == "worker":
            # The helper always takes chunks 0 and 1.
            monkeypatch.setattr(report, "_process_chunk",
                                failing(report._process_chunk, error, 2,
                                        in_main=False))
        elif fault == "main":
            # No result is ready before the corpus ends, so the main
            # process runs chunk 2 while the helper holds chunks 0 and 1.
            monkeypatch.setattr(multiprocessing.connection.Connection,
                                "poll", lambda _conn, _timeout=0.0: False)
            monkeypatch.setattr(report, "_process_chunk",
                                failing(report._process_chunk, error, 1,
                                        in_main=True))
        elif fault == "reader":
            read = RecordReader.__iter__

            def reading(reader):
                for n, record in enumerate(read(reader)):
                    if n == 2 * report.CHUNK_SIZE:
                        raise error
                    yield record
            monkeypatch.setattr(RecordReader, "__iter__", reading)
        elif fault == "spill":
            monkeypatch.setattr(report, "write_tags_jsonl",
                                failing(report.write_tags_jsonl, error, 3,
                                        in_main=True))
        config = AnalyzeConfig(input_path=str(six_chunks),
                               lexicon_path=str(toy_lexicon_path),
                               out_dir=str(tmp_path / "out"),
                               emit_tags=str(tmp_path / "out" / "tags.jsonl"),
                               workers=2)
        if fault is None:
            assert run_analyze(config).summary["records_read"] == \
                6 * report.CHUNK_SIZE
        else:
            with pytest.raises(type(error)) as raised:
                run_analyze(config)
            assert raised.value.args == error.args
            assert not (tmp_path / "out").exists()
        assert alive == ([1] if fault in ("main", "spill") else [])
        assert multiprocessing.active_children() == []

    @pytest.fixture
    def wide_chunks(self, tmp_path):
        # Each chunk pickles to about 1 MB and each result, with its tag
        # rows and 8,192 distinct 80-letter hashtags, to about 700 KB: both
        # past a socket pair's buffer (208 KiB on Linux by default).
        rng = random.Random(5)
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(6 * report.CHUNK_SIZE):
                tags = " ".join("#" + "".join(rng.choices("abcdefgh", k=80))
                                for _ in range(8))
                text = f"{tags} good day " + "gst rollout " * 28
                fh.write(json.dumps({
                    "id": f"t{i}", "created_at": "2017-07-01T10:00:00+05:30",
                    "text": text, "user_location": "Delhi"}) + "\n")
        return path

    def test_chunks_and_results_past_the_pipe_buffer(self, wide_chunks,
                                                     toy_lexicon_path,
                                                     tmp_path):
        proc = _run_script(_TWO_RUNS, wide_chunks, toy_lexicon_path,
                           tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_helper_fault_is_raised_past_a_broken_send(
            self, wide_chunks, toy_lexicon_path, tmp_path, monkeypatch,
            two_cpus):
        # The helper raises after its second chunk.  By then the main
        # process has often begun to send it a third, past the pipe's
        # buffer, which the helper never reads: that send breaks when the
        # helper exits, and the exception the helper sent back first must
        # be raised, not a dead-worker error.
        monkeypatch.setattr(report, "multiprocessing",
                            multiprocessing.get_context("fork"))
        main_pid, process_chunk, calls = os.getpid(), report._process_chunk, []

        def failing(records, *state):
            result = process_chunk(records, *state)
            if os.getpid() != main_pid:
                calls.append(len(records))
                if len(calls) == 2:
                    raise ValueError("helper fault")
            return result

        monkeypatch.setattr(report, "_process_chunk", failing)
        with pytest.raises(ValueError, match="helper fault"):
            run_analyze(AnalyzeConfig(input_path=str(wide_chunks),
                                      lexicon_path=str(toy_lexicon_path),
                                      out_dir=str(tmp_path / "out"),
                                      workers=2))
        assert multiprocessing.active_children() == []


def _figures(result) -> tuple:
    """Every figure of a ``_process_chunk`` result, comparable with ==."""
    part, tag_rows = result
    return (part.day.by_ordinal, part.hours.slots,
            part.mentions.items_sorted(), part.hashtags.items_sorted(),
            part.regions.rows, part.matched, part.blanks, part.ties,
            part.non_latin, tag_rows)


class TestHelperLoop:
    def test_helper_ends_when_the_main_process_is_gone(
            self, bundled_stopwords, bundled_gazetteer):
        # _work runs in a thread on a pipe whose other end stands for the
        # main process: closing that end is the main process's death.
        state = (load_lexicon(GOLDEN / "lexicon.tsv"), bundled_stopwords,
                 bundled_gazetteer, True, None)
        [chunk] = report._iter_chunks(
            RecordReader(str(GOLDEN / "corpus.jsonl"), "jsonl"))
        main_end, helper_end = multiprocessing.Pipe()
        # What a forked helper inherits of the main process's end: _work
        # closes it at once.
        inherited, spare = multiprocessing.Pipe()
        threads = set(threading.enumerate())
        helper = threading.Thread(target=report._work,
                                  args=(helper_end, inherited, state),
                                  daemon=True)
        helper.start()
        try:
            main_end.send(chunk)
            assert _figures(main_end.recv()) == \
                _figures(report._process_chunk(chunk, *state))
            main_end.close()
            helper.join(timeout=5)
            assert not helper.is_alive()
            assert set(threading.enumerate()) == threads
        finally:
            for end in (main_end, helper_end, spare):
                end.close()
        assert inherited.closed


#: Runs argv[1] (corpus) with argv[2] (lexicon) into argv[3] as a one-worker
#: analyze, a subcorpus run on argv[4] and ``tweetlex top``, then as an
#: oracle run, then on two workers, and prints as JSON which of
#: ``multiprocessing`` and ``tweetlex.reference`` are loaded after each
#: step, and whether the two-worker files equal the one-worker ones.  Two
#: usable CPUs are faked, so the helper starts on any host.
_LOADED_MODULES = """
    import contextlib, io, json, os, sys
    from pathlib import Path
    from tweetlex import report
    from tweetlex.cli import main

    os.sched_getaffinity = lambda _pid: {0, 1}
    corpus, lexicon, out, handle = sys.argv[1:]

    def run(name, entry=report.run_analyze, **fields):
        entry(report.AnalyzeConfig(
            input_path=corpus, lexicon_path=lexicon, out_dir=f"{out}/{name}",
            emit_tags=f"{out}/{name}/tags.jsonl", **fields))
        return {p.name: p.read_text("utf-8")
                for p in Path(out, name).iterdir()}

    def loaded():
        return [name for name in ("multiprocessing", "tweetlex.reference")
                if name in sys.modules]

    one = run("w1")
    run("sub", report.run_subcorpus, mention=handle)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["top", "--what", "mentions", "--input", corpus])
    steps = {"one worker": loaded()}
    run("oracle", oracle=True)
    steps["oracle"] = loaded()
    two = run("w2", workers=2)
    steps["two workers"] = loaded()
    print(json.dumps({"steps": steps, "same files": one == two}))
"""


#: Runs a one-worker analyze, a subcorpus run on argv[4] and ``top`` on
#: argv[1] (corpus) with argv[2] (lexicon) into argv[3] through the CLI,
#: and prints which of ``dataclasses`` and ``inspect`` it pulls in loaded.
_NO_DATACLASSES = """
    import contextlib, io, json, sys
    from tweetlex.cli import main

    corpus, lexicon, out, handle = sys.argv[1:]
    common = ["--input", corpus, "--lexicon", lexicon, "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes = [
            main(["analyze", *common, "--out", f"{out}/w1",
                  "--emit-tags", "tags.jsonl"]),
            main(["subcorpus", *common, "--out", f"{out}/sub",
                  "--mention", handle]),
            main(["top", "--what", "hashtags", "--input", corpus])]
    print(json.dumps({"codes": codes,
                      "loaded": [name for name in ("dataclasses", "inspect")
                                 if name in sys.modules]}))
"""


class TestLoadedModules:
    def test_helper_and_oracle_code_load_only_when_used(self, tmp_path):
        proc = _run_script(_LOADED_MODULES, GOLDEN / "corpus.jsonl",
                           GOLDEN / "lexicon.tsv", tmp_path, "gst_council")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["steps"] == {
            "one worker": [],
            "oracle": ["tweetlex.reference"],
            "two workers": ["multiprocessing", "tweetlex.reference"],
        }
        assert result["same files"]

    def test_runs_load_no_dataclasses(self, tmp_path):
        proc = _run_script(_NO_DATACLASSES, GOLDEN / "corpus.jsonl",
                           GOLDEN / "lexicon.tsv", tmp_path, "gst_council")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0, 0, 0]
        assert result["loaded"] == []


class TestWindowFlags:
    def test_from_to_equal_config_window(self, corpus, toy_lexicon_path,
                                          tmp_path, capsys):
        cli_out, api_out = tmp_path / "cli", tmp_path / "api"
        assert main(["analyze", "--input", str(corpus),
                     "--lexicon", str(toy_lexicon_path),
                     "--out", str(cli_out),
                     "--from", "2017-07-02", "--to", "2017-07-04"]) == 0
        run_analyze(AnalyzeConfig(
            input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
            out_dir=str(api_out), date_from=date(2017, 7, 2),
            date_to=date(2017, 7, 4)))
        tree = _read_tree(cli_out)
        assert tree == _read_tree(api_out)
        # The corpus spans July 1-7, so both bounds are inclusive.
        days = {line.split(",", 1)[0]
                for line in tree["daily.csv"].decode().splitlines()[1:]}
        assert days == {"2017-07-02", "2017-07-03", "2017-07-04"}
        summary = json.loads(tree["summary.json"])
        assert summary["rejected_reasons"]["out_of_range"] > 0

    @pytest.mark.parametrize("command", ["analyze", "subcorpus", "top"])
    def test_reversed_window_is_a_usage_error(self, command, tmp_path,
                                               capsys):
        out = tmp_path / "out"
        argv = [command, "--input", str(GOLDEN / "corpus.jsonl"),
                "--from", "2017-07-05", "--to", "2017-07-01"]
        if command == "top":
            argv += ["--what", "mentions"]
        else:
            argv += ["--lexicon", str(GOLDEN / "lexicon.tsv"),
                     "--out", str(out)]
        if command == "subcorpus":
            argv += ["--mention", "gst_council"]
        assert main(argv) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty date window" in captured.err

    def test_reversed_window_is_refused_before_any_file_is_read(
            self, tmp_path):
        # Neither file exists: the refusal must come before either is opened.
        with pytest.raises(TweetlexError, match="empty date window"):
            run_analyze(AnalyzeConfig(
                input_path=str(tmp_path / "missing.jsonl"),
                lexicon_path=str(tmp_path / "missing.tsv"),
                out_dir=str(tmp_path / "out"), date_from=date(2017, 7, 5),
                date_to=date(2017, 7, 1)))
        assert not (tmp_path / "out").exists()


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

    # Another output or the corpus is a refused run (exit 1) naming that
    # path; the last three cannot be a new file and are unwritable outputs
    # (exit 2): one in a missing directory, the --out directory itself,
    # and the existing directory above it.
    @pytest.mark.parametrize("target", [
        *(name for name in GOLDEN_FILES if name != "tags.jsonl"), "input",
        "sub/tags.jsonl", ".", ".."])
    def test_refuses_another_file_of_the_run(self, tmp_path, capsys, target):
        # The corpus is copied so that naming it as the tags path cannot
        # harm the checked-in one.
        corpus = tmp_path / "corpus.jsonl"
        shutil.copyfile(GOLDEN / "corpus.jsonl", corpus)
        out = tmp_path / "out"
        tags = str(corpus) if target == "input" else target
        rc = main(["analyze", "--input", str(corpus),
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out), "--emit-tags", tags])
        err = capsys.readouterr().err
        if target in ("sub/tags.jsonl", ".", ".."):
            assert rc == 2
            assert err.startswith("tweetlex: i/o error:"), err
        else:
            assert rc == 1
            assert str(out / tags) in err
        assert not out.exists()
        assert corpus.read_bytes() == (GOLDEN / "corpus.jsonl").read_bytes()

    def test_refuses_the_lexicon_through_a_relative_path(
            self, tmp_path, monkeypatch, capsys):
        lexicon = tmp_path / "lexicon.tsv"
        shutil.copyfile(GOLDEN / "lexicon.tsv", lexicon)
        monkeypatch.chdir(tmp_path)
        rc = main(["analyze", "--input", str(GOLDEN / "corpus.jsonl"),
                   "--lexicon", "lexicon.tsv", "--out", "out",
                   "--emit-tags", str(tmp_path / "out" / ".." / "lexicon.tsv")])
        assert rc == 1
        assert not (tmp_path / "out").exists()
        assert lexicon.read_bytes() == (GOLDEN / "lexicon.tsv").read_bytes()

    def test_relative_library_path_lands_in_out_dir(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        result = run_analyze(AnalyzeConfig(
            input_path=str(GOLDEN / "corpus.jsonl"),
            lexicon_path=str(GOLDEN / "lexicon.tsv"), out_dir=str(out),
            emit_tags="tags.jsonl"))
        assert result.written[-2] == out / "tags.jsonl"
        assert (out / "tags.jsonl").read_bytes() == \
            (GOLDEN / "expected" / "tags.jsonl").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_subcorpus_tags_may_take_a_table_name_it_does_not_write(
            self, tmp_path):
        # A subcorpus run writes no regions.csv, so its tags may go there.
        out = tmp_path / "out"
        result = run_analyze(AnalyzeConfig(
            input_path=str(GOLDEN / "corpus.jsonl"),
            lexicon_path=str(GOLDEN / "lexicon.tsv"), out_dir=str(out),
            mention="gst_council", emit_tags=str(out / "regions.csv")))
        assert result.written == [out / "daily.csv", out / "regions.csv",
                                  out / "summary.json"]
        rows = (out / "regions.csv").read_text("utf-8").splitlines()
        assert len(rows) == result.summary["tweets_tagged"] == 1
        assert json.loads(rows[0])["id"]

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
    # Lone surrogates (category Cs) are not encodable; admission rejects
    # such an id, so no tag row carries one.
    st.characters(exclude_categories=("Cs",)),
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

    @pytest.mark.parametrize("handle", [
        "fin-min", "@fin.min", "fin min", "f\u00efnmin", "finmin\n",
        "\u212aerala", "@@foo"],
        ids=["hyphen", "dot", "space", "non-ascii", "newline",
             "kelvin-sign", "double-at"])
    def test_handle_outside_grammar_rejected(self, tmp_path, capsys,
                                             handle):
        # preprocess only ever yields [a-z0-9_]+ mentions, so such a
        # handle could match nothing.  Only one "@" is stripped, and only
        # an ASCII handle is lowercased: str.lower would turn U+212A
        # (Kelvin sign) into an ASCII "k" and run on "kerala".
        rc = main(["subcorpus", "--mention", handle,
                   *_golden_args(tmp_path / "out")[1:]])
        assert rc == 1
        assert "mention handle" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mixed_case_handle_accepted(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["subcorpus", "--mention", "@FinMin",
                   *_golden_args(out)[1:]])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mention"] == "finmin"
        assert summary["subcorpus_tweets"] == 0

    def test_api_requires_mention(self, toy_lexicon_path, tmp_path):
        config = AnalyzeConfig(input_path=str(GOLDEN / "corpus.jsonl"),
                               lexicon_path=str(toy_lexicon_path),
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(Exception, match="mention"):
            run_subcorpus(config)

    @pytest.mark.parametrize("handle", ["PMOIndia", "fin-min", ""])
    def test_analyze_api_refuses_what_subcorpus_refuses(
            self, toy_lexicon_path, tmp_path, handle):
        # run_analyze takes the mention filter too.  It refuses a handle no
        # mention can equal before any input is read: the input is missing.
        config = AnalyzeConfig(input_path=str(tmp_path / "missing.jsonl"),
                               lexicon_path=str(toy_lexicon_path),
                               out_dir=str(tmp_path / "out"),
                               mention=handle)
        with pytest.raises(TweetlexError, match="mention handle"):
            run_analyze(config)
        assert not (tmp_path / "out").exists()

    def test_api_rejects_uppercase_handle(self, toy_lexicon_path, tmp_path):
        # Only the CLI lowercases; the library takes the handle as given.
        config = AnalyzeConfig(input_path=str(GOLDEN / "corpus.jsonl"),
                               lexicon_path=str(toy_lexicon_path),
                               out_dir=str(tmp_path / "out"),
                               mention="FinMin")
        with pytest.raises(TweetlexError, match="mention handle"):
            run_subcorpus(config)
        assert not (tmp_path / "out").exists()


class TestSubcorpusWork:
    """A subcorpus run cleans only the admitted tweets whose lowercased
    text holds "@" + handle; an analyze run cleans every admitted tweet."""

    WINDOW = {"date_from": date(2017, 7, 2), "date_to": date(2017, 7, 5)}

    @pytest.fixture
    def cleaned(self, monkeypatch):
        texts = []
        preprocess = report.preprocess

        def counted(text, stopwords):
            texts.append(text)
            return preprocess(text, stopwords)
        monkeypatch.setattr(report, "preprocess", counted)
        return texts

    def _config(self, corpus, lexicon, out, **extra):
        return AnalyzeConfig(input_path=str(corpus), lexicon_path=str(lexicon),
                             out_dir=str(out), **self.WINDOW, **extra)

    def _admitted_texts(self, corpus):
        return [text for _id, _ts, text, _loc
                in RecordReader(str(corpus), "jsonl", **self.WINDOW)]

    # "finmin" is a prefix of the corpus's "FinMinIndia": the check passes
    # those tweets, and preprocess matches none of them.
    @pytest.mark.parametrize("handle", ["finminindia", "gst_council",
                                        "finmin"])
    def test_subcorpus_cleans_only_possible_carriers(
            self, corpus, toy_lexicon_path, tmp_path, cleaned, handle):
        texts = self._admitted_texts(corpus)
        result = run_subcorpus(self._config(corpus, toy_lexicon_path,
                                            tmp_path / "out",
                                            mention=handle))
        carriers = [text for text in texts if "@" + handle in text.lower()]
        assert cleaned == carriers
        assert 0 < len(carriers) < len(texts)
        assert result.part.matched <= len(carriers)

    def test_analyze_cleans_every_admitted_tweet(
            self, corpus, toy_lexicon_path, tmp_path, cleaned):
        texts = self._admitted_texts(corpus)
        result = run_analyze(self._config(corpus, toy_lexicon_path,
                                          tmp_path / "out"))
        assert cleaned == texts
        assert result.summary["records_rejected"] > 0
        assert result.part.matched == len(texts)


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

    def test_n_truncates_ranking(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(
            {"id": "1", "created_at": "2017-07-01T10:00:00Z",
             "text": "@a @a @b @c"}) + "\n", encoding="utf-8")
        argv = ["top", "--what", "mentions", "--input", str(corpus)]
        assert main([*argv, "-n", "2"]) == 0
        assert capsys.readouterr().out == "a,2\nb,1\n"
        assert main([*argv, "-n", "10"]) == 0
        assert capsys.readouterr().out == "a,2\nb,1\nc,1\n"

    @pytest.mark.parametrize("what", ["mentions", "hashtags"])
    def test_never_tokenizes(self, capsys, monkeypatch, what):
        argv = ["top", "--what", what, "--input", str(GOLDEN / "corpus.jsonl")]
        assert main(argv) == 0
        printed = capsys.readouterr().out

        def refuse(text, stopwords):
            raise AssertionError("top tokenized a text")
        monkeypatch.setattr(_kernels, "tokenize", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == printed

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_exits_1(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["top", "--what", "mentions", "-n", n,
                  "--input", str(GOLDEN / "corpus.jsonl")])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

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


def _rewriting(function, rewrite, field=None):
    """``function`` with ``rewrite`` applied to its result, or to each key
    in the named field of its CleanTweet result."""
    def rewritten(*args):
        result = function(*args)
        if field is None:
            return rewrite(result)
        keys = getattr(result, field)
        return result._replace(**{field: [rewrite(key) for key in keys]})
    return rewritten


def _swap(a: str, b: str):
    return lambda key: {a: b, b: a}.get(key, key)


class TestOracleTallies:
    """Faults that leave every summary figure as it was: --oracle finds
    them in the tables and the rejections it also compares."""

    @staticmethod
    def _oracle_error(corpus, tmp_path, **extra) -> str:
        out = tmp_path / "out"
        with pytest.raises(OracleMismatchError) as info:
            run_analyze(AnalyzeConfig(
                input_path=str(corpus),
                lexicon_path=str(GOLDEN / "lexicon.tsv"), out_dir=str(out),
                oracle=True, **extra))
        assert not out.exists()
        return str(info.value)

    def test_swapped_regions(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "resolve_location", _rewriting(
            report.resolve_location, _swap("Maharashtra", "Karnataka")))
        message = self._oracle_error(corpus, tmp_path)
        assert "\n  regions.Karnataka: pipeline=" in message
        assert "\n  regions.Maharashtra: pipeline=" in message
        assert "summary." not in message

    def test_swapped_hashtags(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "preprocess", _rewriting(
            report.preprocess, _swap("GST", "GSTROLLOUT"), "hashtags"))
        message = self._oracle_error(corpus, tmp_path)
        assert "\n  hashtags.GST: pipeline=" in message
        assert "\n  hashtags.GSTROLLOUT: pipeline=" in message
        assert "summary." not in message

    def test_shifted_rejection_line(self, corpus, tmp_path, monkeypatch):
        skip = ingest.ReadStats._skip
        monkeypatch.setattr(ingest.ReadStats, "_skip",
                            lambda self, lineno, *rest:
                            skip(self, lineno + 1, *rest))
        message = self._oracle_error(corpus, tmp_path,
                                     date_from=date(2017, 7, 2),
                                     date_to=date(2017, 7, 4))
        assert "\n  rejections.0: pipeline=(" in message
        assert "summary." not in message

    def test_region_label_counts(self, corpus, tmp_path, monkeypatch):
        # Maharashtra's positive tweets are counted as negative: its tweet
        # count and every summary figure stay as they were.
        add = spatial.RegionAggregate.add
        positive = SENTIMENT_LABELS.index("positive")
        negative = SENTIMENT_LABELS.index("negative")

        def miscounting(self, tag, region):
            vector, s, e, o, tied = tag
            if region == "Maharashtra" and s == positive:
                tag = vector, negative, e, o, tied
            add(self, tag, region)

        monkeypatch.setattr(spatial.RegionAggregate, "add", miscounting)
        lines = self._oracle_error(corpus, tmp_path).splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("  regions.Maharashtra: pipeline=(")

    def test_swapped_equal_counts_in_a_ranking(self, corpus, tmp_path,
                                               monkeypatch):
        # A table's first two keys of equal count, if it has two, change
        # places: every count, and so every summary figure, stays as it was.
        items_sorted, swapped = FrequencyTable.items_sorted, set()

        def swapping(table):
            items = items_sorted(table)
            i = next((i for i in range(len(items) - 1)
                      if items[i][1] == items[i + 1][1]), None)
            if i is not None:
                items[i:i + 2] = items[i + 1], items[i]
                swapped.update(key for key, _count in items[i:i + 2])
            return items

        monkeypatch.setattr(FrequencyTable, "items_sorted", swapping)
        lines = self._oracle_error(corpus, tmp_path).splitlines()[1:]
        assert swapped
        assert sorted(line.split(": pipeline=(")[0].split(".", 1)[1]
                      for line in lines) == sorted(swapped)
        assert all(line.startswith(("  mentions.", "  hashtags."))
                   for line in lines)

    def test_long_mismatch_list_is_capped(self, longtail_corpus, tmp_path,
                                          monkeypatch):
        distinct = run_analyze(AnalyzeConfig(
            input_path=str(longtail_corpus),
            lexicon_path=str(GOLDEN / "lexicon.tsv"),
            out_dir=str(tmp_path / "plain"))).summary["mentions"]["distinct"]
        monkeypatch.setattr(report, "preprocess", _rewriting(
            report.preprocess, str.upper, "mentions"))
        lines = self._oracle_error(longtail_corpus, tmp_path).splitlines()
        # Each key is missing once on each side.
        total = 2 * distinct
        assert total > report.MAX_MISMATCHES
        assert lines[0] == "reference run disagrees with pipeline:"
        assert len(lines) == 1 + report.MAX_MISMATCHES + 1
        assert all(line.startswith("  mentions.") for line in lines[1:-1])
        assert lines[-1] == (f"  ... and {total - report.MAX_MISMATCHES}"
                             f" more, {total} in all")


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

    def test_worker_count_never_changes_output(self, longtail_corpus,
                                               toy_lexicon_path, tmp_path):
        # Shaped like perfbench's longtail_tags: long-tail entities, a
        # distinct location per row, and every tenth row rejected as a
        # duplicate id, a bad timestamp or a short row.
        corpus = tmp_path / "corpus.csv"
        with open(longtail_corpus, encoding="utf-8") as src, \
                open(corpus, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "created_at", "text", "user_location"])
            prev_id = None
            for i, line in enumerate(src):
                rec = json.loads(line)
                loc = rec["user_location"]
                row = [rec["id"], rec["created_at"], rec["text"],
                       f"{loc} {i}" if loc else ""]
                if i % 30 == 10:
                    row[0] = prev_id
                elif i % 30 == 20:
                    row[1] = "2017-07-32T10:00:00"
                elif i % 30 == 29:
                    row = row[:3]
                writer.writerow(row)
                prev_id = rec["id"]
        trees = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_analyze(AnalyzeConfig(
                input_path=str(corpus), fmt="csv",
                lexicon_path=str(toy_lexicon_path), out_dir=str(out),
                emit_tags=str(out / "tags.jsonl"), workers=workers))
            trees[workers] = _read_tree(out)
        assert trees[1] == trees[2]
        summary = json.loads(trees[1]["summary.json"])
        assert set(summary["rejected_reasons"]) == {
            "duplicate", "timestamp", "malformed"}
        # More than one chunk, so two workers really split the run.
        assert summary["records_read"] - summary["records_rejected"] \
            > report.CHUNK_SIZE
        assert trees[1]["tags.jsonl"]

    def test_rows_the_csv_module_rejects(self, tmp_path, toy_lexicon_path):
        # Line 3 holds a field past csv.field_size_limit(); line 5 opens a
        # quoted field that passes the limit before its line ends, so the
        # rest of that field, on line 6, is read as a short row of its own.
        limit = csv.field_size_limit()
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("\n".join([
            "id,created_at,text,user_location",
            "a,2017-07-01T10:00:00+05:30,good glad day,Delhi",
            f"b,2017-07-01T11:00:00+05:30,{'x' * (limit + 1)},Delhi",
            "c,2017-07-01T12:00:00+05:30,bad poor show,",
            f'd,2017-07-01T13:00:00+05:30,"{"y" * limit}',
            'still quoted",Delhi',
            "e,2017-07-02T09:00:00+05:30,hope and faith,Mumbai",
        ]) + "\n", encoding="utf-8")
        reader = RecordReader(corpus, "csv")
        tally = reference.ReadTally()
        assert list(reader) == list(reference.naive_read(corpus, "csv",
                                                         tally))
        assert reader.stats.diagnostics == tally.diagnostics
        assert [diagnostic[:2] for diagnostic in tally.diagnostics] == [
            (3, "malformed"), (5, "malformed"), (6, "malformed")]
        trees = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            summary = run_analyze(AnalyzeConfig(
                input_path=str(corpus), fmt="csv",
                lexicon_path=str(toy_lexicon_path), out_dir=str(out),
                oracle=True, workers=workers)).summary
            assert summary["oracle_check"] == "ok"
            trees[workers] = _read_tree(out)
        assert trees[1] == trees[2]
        assert summary["records_read"] == 6
        assert summary["rejected_reasons"] == {"malformed": 3}
        assert summary["tweets_tagged"] == 3

    def test_row_with_nul_is_malformed(self, tmp_path, toy_lexicon_path):
        corpus = tmp_path / "corpus.csv"
        corpus.write_bytes(cross_python.NUL_CORPUS.encode("utf-8"))
        reader = RecordReader(corpus, "csv")
        assert [record[0] for record in reader] == ["c2"]
        assert reader.stats.diagnostics == [
            (2, "malformed", "line contains NUL")]
        trees = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            summary = run_analyze(AnalyzeConfig(
                input_path=str(corpus), fmt="csv",
                lexicon_path=str(toy_lexicon_path), out_dir=str(out),
                oracle=True, workers=workers)).summary
            assert summary["oracle_check"] == "ok"
            trees[workers] = _read_tree(out)
        assert trees[1] == trees[2]
        assert summary["rejected_reasons"] == {"malformed": 1}

    def test_overlong_header_field_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(
            "id,created_at,text," + "u" * (csv.field_size_limit() + 1)
            + "\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(corpus), "--format", "csv",
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out)])
        assert rc == 1
        assert "unreadable CSV header" in capsys.readouterr().err
        assert not out.exists()


class TestRegionsCsv:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_row_recounted_by_reference(self, tmp_path,
                                              toy_lexicon_path,
                                              bundled_stopwords,
                                              bundled_gazetteer, workers):
        # --oracle compares each region's sentiment, emotion and overall
        # label counts, not the file; this recounts every row of
        # regions.csv, its order, total rows and cum_share included, with
        # the reference cleaner, tagger and resolver.
        corpus = tmp_path / "corpus.jsonl"
        corpus_gen.write_random_corpus(corpus, 2500, seed=29)
        out = tmp_path / "out"
        run_analyze(AnalyzeConfig(input_path=str(corpus),
                                  lexicon_path=str(toy_lexicon_path),
                                  out_dir=str(out), workers=workers))

        sentiments = (*reference.SENTIMENT_ORDER, "neutral")
        emotions = reference.EMOTION_ORDER
        table = reference.scan_lexicon_file(str(toy_lexicon_path))
        counts: dict[str, dict] = {}
        for _id, _ts, text, location in RecordReader(str(corpus), "jsonl"):
            tokens = reference.naive_clean(text, bundled_stopwords)[0]
            if not tokens:
                continue
            region = reference.naive_resolve(location, bundled_gazetteer)
            if region == spatial.UNKNOWN:
                continue
            s, e, _o, _tied = reference.naive_label(
                reference.naive_count(tokens, table))
            tally = counts.setdefault(region, {"tweets": 0, "sentiment": {},
                                               "emotion": {}})
            tally["tweets"] += 1
            tally["sentiment"][s] = tally["sentiment"].get(s, 0) + 1
            tally["emotion"][e] = tally["emotion"].get(e, 0) + 1

        empty = {"tweets": 0, "sentiment": {}, "emotion": {}}

        def row(name, regions):
            """name, tweets and label columns summed over ``regions``."""
            tallies = [counts.get(region, empty) for region in regions]
            cols = [sum(t[channel].get(label, 0) for t in tallies)
                    for channel, labels in (("sentiment", sentiments),
                                            ("emotion", emotions))
                    for label in labels]
            return [name, sum(t["tweets"] for t in tallies), *cols]

        grand = sum(t["tweets"] for t in counts.values())
        states = sorted(bundled_gazetteer.regions, key=lambda n: (
            -counts.get(n, empty)["tweets"], n))
        expected, running = [], 0
        for name in (*states, spatial.INDIA_UNSPECIFIED):
            expected.append(row(name, [name]))
            running += expected[-1][1]
            expected[-1].append(f"{running / grand:.6f}")
        india = [*states, spatial.INDIA_UNSPECIFIED]
        india_row = row("INDIA_TOTAL", india)
        expected.append(india_row + [f"{india_row[1] / grand:.6f}"])
        foreign = row(spatial.FOREIGN, [spatial.FOREIGN])
        running += foreign[1]
        expected.append(foreign + [f"{running / grand:.6f}"])
        expected.append(row("TOTAL", [*india, spatial.FOREIGN])
                        + ["1.000000"])
        expected = [[str(cell) for cell in line] for line in expected]

        with open(out / "regions.csv", encoding="utf-8", newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["region", "tweets", *sentiments, *emotions,
                          "cum_share"]
        assert got[1:] == expected
        # The corpus exercises the label columns, not only the totals.
        total = expected[-1]
        assert int(total[1]) == grand > 1000
        assert all(int(cell) > 0 for cell in total[2:-1])


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
        # A gazetteer's regions.csv has a row only for the regions it names.
        assert (tweets["Goa"]["Goa"], tweets["Goa"].get("Kerala", 0)) == (3, 0)
        assert (tweets["Kerala"].get("Goa", 0),
                tweets["Kerala"]["Kerala"]) == (0, 3)


class TestGazetteerRegions:
    def test_an_added_region_gets_a_row(self, tmp_path, toy_lexicon_path,
                                        bundled_gazetteer, monkeypatch):
        # The bundled gazetteer plus a rule for a region it does not name:
        # the region is a regions.csv row at every worker count, with
        # helpers taking chunks, and --oracle agrees.
        monkeypatch.setattr(report.os, "sched_getaffinity",
                            lambda _pid: {0, 1, 2}, raising=False)
        gazetteer = tmp_path / "gazetteer.csv"
        gazetteer.write_text(
            spatial.default_gazetteer_path().read_text("utf-8")
            + "imphal,Manipur,1\n", encoding="utf-8")
        rules = spatial.load_gazetteer(gazetteer)
        assert spatial.resolve_location("Imphal, Manipur", rules) == "Manipur"
        assert rules.regions == bundled_gazetteer.regions | {"Manipur"}
        places = ("Imphal, Manipur", "Mumbai", "London", "Springfield")
        lines = 3 * report.CHUNK_SIZE + 5
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"g{i}", "created_at": "2017-07-01T10:00:00Z",
                        "text": "good day", "user_location": places[i % 4]})
            + "\n" for i in range(lines)), encoding="utf-8")
        trees = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            summary = run_analyze(AnalyzeConfig(
                input_path=str(corpus), lexicon_path=str(toy_lexicon_path),
                out_dir=str(out), gazetteer_path=str(gazetteer),
                oracle=True, workers=workers)).summary
            assert summary["oracle_check"] == "ok"
            trees[workers] = _read_tree(out)
        assert trees[1] == trees[2] == trees[3]
        with open(tmp_path / "w3" / "regions.csv", newline="") as fh:
            tweets = {row["region"]: int(row["tweets"])
                      for row in csv.DictReader(fh)}
        assert (tweets["Manipur"], tweets["Maharashtra"]) == \
            (len(range(0, lines, 4)), len(range(1, lines, 4)))
        assert len(tweets) == 24 + 4

    def test_a_region_left_out_has_no_row(self, tmp_path, capsys):
        # The bundled gazetteer without its Kerala rules: the golden run
        # writes the golden files, less regions.csv's Kerala row.
        gazetteer = tmp_path / "gazetteer.csv"
        with open(spatial.default_gazetteer_path(), encoding="utf-8") as fh:
            kept = [line for line in fh if ",Kerala," not in line]
        gazetteer.write_text("".join(kept), encoding="utf-8")
        out = tmp_path / "out"
        assert main(_golden_args(out, "--gazetteer", str(gazetteer),
                                 "--oracle")) == 0
        got = _read_tree(out)
        for name in set(GOLDEN_FILES) - {"tags.jsonl", "summary.json",
                                         "regions.csv"}:
            assert got[name] == (GOLDEN / "expected" / name).read_bytes()
        expected = (GOLDEN / "expected" / "regions.csv").read_bytes()
        assert b"\nKerala," in expected
        assert got["regions.csv"] == b"".join(
            line for line in expected.splitlines(keepends=True)
            if not line.startswith(b"Kerala,"))


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


class TestUnparseableLines:
    """Lines that a run tallies as rejections instead of ending on them."""

    @staticmethod
    def _corpus(tmp_path, odd_line: str) -> Path:
        corpus = tmp_path / "corpus.jsonl"
        good = [json.dumps({"id": f"ok{i}", "created_at": "2017-07-01T10:00:00Z",
                            "text": "good day @gst_council"})
                for i in range(2)]
        corpus.write_text("\n".join([good[0], odd_line, good[1]]) + "\n",
                          encoding="utf-8")
        return corpus

    def _analyze(self, tmp_path, corpus, *extra) -> dict:
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(corpus),
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out), "--oracle", *extra])
        assert rc == 0
        return json.loads((out / "summary.json").read_text("utf-8"))

    @pytest.mark.parametrize("created_at", ["9999-12-31T23:00:00-10:00",
                                            "0001-01-01T00:00:00+10:00"],
                             ids=["late", "early"])
    def test_local_time_past_year_range_is_a_timestamp_rejection(
            self, tmp_path, capsys, created_at):
        corpus = self._corpus(tmp_path, json.dumps(
            {"id": "odd", "created_at": created_at, "text": "good day"}))
        summary = self._analyze(tmp_path, corpus)
        assert summary["rejected_reasons"] == {"timestamp": 1}
        assert summary["tweets_tagged"] == 2
        assert summary["oracle_check"] == "ok"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_deeply_nested_line_is_malformed(self, tmp_path, capsys,
                                             threads):
        corpus = self._corpus(tmp_path, "[" * 200_000)
        summary = self._analyze(tmp_path, corpus, "--threads", threads)
        assert summary["rejected_reasons"] == {"malformed": 1}
        assert summary["tweets_tagged"] == 2
        assert summary["oracle_check"] == "ok"

    def test_top_skips_deeply_nested_line(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path, "[" * 200_000)
        rc = main(["top", "--what", "mentions", "--input", str(corpus)])
        assert rc == 0
        assert capsys.readouterr().out == "gst_council,2\n"

    # Past Python's int-string conversion limit, json.loads raises a plain
    # ValueError, not a JSONDecodeError.
    OVERSIZED_INT = '{"id": "odd", "text": "good day", "n": %s}' % ("1" * 5000)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_oversized_integer_is_malformed(self, tmp_path, capsys, threads):
        corpus = self._corpus(tmp_path, self.OVERSIZED_INT)
        summary = self._analyze(tmp_path, corpus, "--threads", threads)
        assert summary["rejected_reasons"] == {"malformed": 1}
        assert summary["tweets_tagged"] == 2
        assert summary["oracle_check"] == "ok"

    def test_top_skips_oversized_integer(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path, self.OVERSIZED_INT)
        rc = main(["top", "--what", "mentions", "--input", str(corpus)])
        assert rc == 0
        assert capsys.readouterr().out == "gst_council,2\n"


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

    @pytest.mark.parametrize("under", [False, True],
                             ids=["out-is-file", "ancestor-is-file"])
    def test_file_out_refused_before_input_is_read(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   under):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        stdin = io.BytesIO((GOLDEN / "corpus.jsonl").read_bytes())
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
        out = blocker / "sub" / "out" if under else blocker
        rc = main(["analyze", "--input", "-",
                   "--lexicon", str(GOLDEN / "lexicon.tsv"),
                   "--out", str(out)])
        assert rc == 2
        assert "i/o error" in capsys.readouterr().err
        assert stdin.tell() == 0
        assert blocker.read_text(encoding="utf-8") == "a file, not a directory"

    @pytest.mark.parametrize("command", ["analyze", "top"])
    def test_closed_stdin_is_io_failure(self, tmp_path, command):
        # A child started with fd 0 closed has sys.stdin None.  analyze is
        # given a bad lexicon: refusing stdin first makes it exit 2, not 1.
        bad = tmp_path / "bad.tsv"
        bad.write_text("word only one field\n", encoding="utf-8")
        out = tmp_path / "out"
        args = (["analyze", "--input", "-", "--lexicon", str(bad),
                 "--out", str(out)] if command == "analyze"
                else ["top", "--what", "mentions", "--input", "-"])
        proc = subprocess.run(
            ["/bin/sh", "-c", 'exec "$0" "$@" 0<&-', sys.executable,
             "-m", "tweetlex.cli", *args],
            stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
            env=_child_env())
        stderr = proc.stderr.decode()
        assert proc.returncode == 2, stderr
        assert stderr.startswith("tweetlex: i/o error:"), stderr
        assert not out.exists()

    @pytest.mark.parametrize("role", ["input", "lexicon", "stopwords",
                                      "gazetteer"])
    @pytest.mark.parametrize("command, name", [
        ("analyze", "daily.csv"), ("analyze", "regions.csv"),
        ("subcorpus", "daily.csv"), ("subcorpus", "summary.json")])
    def test_output_that_is_an_input_is_refused(self, tmp_path, capsys,
                                                command, name, role):
        out = tmp_path / "out"
        out.mkdir()
        sources = {"input": GOLDEN / "corpus.jsonl",
                   "lexicon": GOLDEN / "lexicon.tsv",
                   "stopwords": Path(str(default_stopwords_path())),
                   "gazetteer": Path(str(spatial.default_gazetteer_path()))}
        shutil.copyfile(sources[role], out / name)
        paths = {**sources, role: out / name}
        argv = [command, "--input", str(paths["input"]),
                "--lexicon", str(paths["lexicon"]),
                "--stopwords", str(paths["stopwords"]),
                "--gazetteer", str(paths["gazetteer"]), "--out", str(out)]
        if command == "subcorpus":
            argv[1:1] = ["--mention", "GST_Council"]
        rc = main(argv)
        assert rc == 1
        assert "would overwrite an input" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_bytes() == sources[role].read_bytes()

    @pytest.mark.parametrize("output", ["regions.csv", "tags.jsonl"])
    @pytest.mark.parametrize("link", [os.symlink, os.link],
                             ids=["symlink", "hardlink"])
    def test_output_linked_to_an_input_is_refused(self, tmp_path, capsys,
                                                  link, output):
        lexicon = tmp_path / "lexicon.tsv"
        shutil.copyfile(GOLDEN / "lexicon.tsv", lexicon)
        out = tmp_path / "out"
        out.mkdir()
        link(lexicon, out / output)
        rc = main(["analyze", "--input", str(GOLDEN / "corpus.jsonl"),
                   "--lexicon", str(lexicon), "--out", str(out),
                   "--emit-tags", "tags.jsonl"])
        assert rc == 1
        assert "would overwrite" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [output]
        assert lexicon.read_bytes() == (GOLDEN / "lexicon.tsv").read_bytes()

    @pytest.mark.parametrize("command, name", [
        ("analyze", "daily.csv"), ("analyze", "regions.csv"),
        ("analyze", "summary.json"), ("subcorpus", "daily.csv"),
        ("subcorpus", "summary.json"), ("analyze", "tags.jsonl")])
    def test_directory_at_output_refused_before_input_is_read(
            self, tmp_path, monkeypatch, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        stdin = io.BytesIO((GOLDEN / "corpus.jsonl").read_bytes())
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
        argv = [command, "--input", "-",
                "--lexicon", str(GOLDEN / "lexicon.tsv"), "--out", str(out)]
        if command == "subcorpus":
            argv[1:1] = ["--mention", "GST_Council"]
        if name == "tags.jsonl":
            argv += ["--emit-tags", name]
        rc = main(argv)
        assert rc == 2
        assert "i/o error" in capsys.readouterr().err
        assert stdin.tell() == 0
        assert [p.name for p in out.iterdir()] == [name]

    def test_subcorpus_checks_only_the_files_it_writes(self, tmp_path,
                                                       capsys):
        # A subcorpus run writes no regions.csv, so neither a directory
        # nor the lexicon there stops it.
        out = tmp_path / "out"
        (out / "regions.csv").mkdir(parents=True)
        lexicon = out / "hourly.csv"
        shutil.copyfile(GOLDEN / "lexicon.tsv", lexicon)
        rc = main(["subcorpus", "--mention", "GST_Council",
                   "--input", str(GOLDEN / "corpus.jsonl"),
                   "--lexicon", str(lexicon), "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["daily.csv", "hourly.csv", "regions.csv", "summary.json"]
        assert lexicon.read_bytes() == (GOLDEN / "lexicon.tsv").read_bytes()

    def test_checked_names_are_the_files_written(self, tmp_path):
        tables = ["daily.csv", "hourly.csv", "mentions.csv", "hashtags.csv",
                  "regions.csv", "wordcloud_mentions.json",
                  "wordcloud_hashtags.json"]
        runs = (("analyze", None, None, tables + ["summary.json"]),
                ("subcorpus", "gst_council", None,
                 ["daily.csv", "summary.json"]),
                ("tags", None, "tags.jsonl",
                 tables + ["tags.jsonl", "summary.json"]))
        for label, mention, emit_tags, names in runs:
            out = tmp_path / label
            result = run_analyze(AnalyzeConfig(
                input_path=str(GOLDEN / "corpus.jsonl"),
                lexicon_path=str(GOLDEN / "lexicon.tsv"), out_dir=str(out),
                mention=mention, emit_tags=emit_tags))
            assert result.written == [out / name for name in names]
            assert sorted(p.name for p in out.iterdir()) == sorted(names)

    def test_bad_lexicon_is_config_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("word only one field\n", encoding="utf-8")
        rc = main(["analyze", "--input", str(GOLDEN / "corpus.jsonl"),
                   "--lexicon", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_bad_gazetteer_is_config_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("place,TOTAL,1\n", encoding="utf-8")
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
        # Forms some Pythons' date.fromisoformat reads as 2017-07-04.
        ["top", "--what", "mentions", "--input", "x", "--from", "20170704"],
        ["top", "--what", "mentions", "--input", "x", "--to", "2017-W27-2"],
        # Counts that are not integers.
        ["top", "--what", "mentions", "--input", "x", "-n", "abc"],
        ["analyze", "--input", "x", "--lexicon", "y", "--out", "z",
         "--threads", "x"],
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
