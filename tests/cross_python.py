"""Golden-run check for one Python interpreter, standard library only.

Usage: python tests/cross_python.py PYTHON

Runs the golden corpus through ``PYTHON -m tweetlex.cli analyze --emit-tags
--threads 2`` with ``PYTHONPATH`` set to this checkout's ``src``, and
compares every output file with ``tests/data/golden_run/expected`` byte for
byte. Then it runs the corpus again with ``--oracle`` and requires exit 0,
runs ``NUL_CORPUS`` with ``--oracle``, which must reject its NUL row as
malformed and tag the other, and runs ``SEPARATOR_CORPUS`` and
``UNICODE_CORPUS`` with ``--oracle``, each of which must give a fixed
sentiment tally. Then it runs the golden corpus with ``--gazetteer
NUL_GAZETTEER``, which must exit 1 with a ``tweetlex: error:`` line that
names line 2 and no traceback. Then it writes a random corpus of
``MULTI_CHUNK_LINES`` lines with ``corpus_gen`` and requires byte-identical
files from ``--threads 1`` and ``--threads 2`` with two usable CPUs faked,
so that a helper process takes chunks beside the main process under
PYTHON's default start method. It requires a one-worker golden run to load
neither ``dataclasses`` nor ``inspect`` (``loaded_module_problems``).
Last, where ``/proc`` exists, it runs one-line corpora whose line is a few
MiB long and requires each run's peak memory to stay within a small
multiple of its line's size (``long_line_problems``). Neither this script
nor the run needs pytest, so PYTHON may be an interpreter that has only its
standard library.

Exits 0 when everything matches. Otherwise it prints one line per
difference to stderr and exits 1.
"""

import csv
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import corpus_gen

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_run"

#: Lines of the random corpus run at one and two workers: four chunks of
#: ``tweetlex.report.CHUNK_SIZE`` (1,024) records and part of a fifth.
MULTI_CHUNK_LINES = 4 * 1024 + 100

#: A CSV corpus whose second line holds a NUL character. Python 3.10's csv
#: module raises on that line and later ones read it; on every Python it
#: must be one malformed rejection.
NUL_CORPUS = ("id,created_at,text,user_location\n"
              "n1,2017-07-01T10:00:00+05:30,good \0 day,Delhi\n"
              "c2,2017-07-01T11:00:00+05:30,bad poor show,\n")

#: A gazetteer whose second line holds a NUL character. Python 3.10's csv
#: module raises on that line and later ones read it; on every Python it
#: must be a fatal gazetteer error.
NUL_GAZETTEER = "new delhi,Delhi-NCR,1\nmum\0bai,Maharashtra,1\n"

#: A JSONL corpus in which each tweet's only lexicon word comes after the
#: run of spaces that removing its mentions and hashtags leaves, and holds
#: a run of one letter: "goooood" and "poooor" must still collapse to
#: "good" and "poor".
SEPARATOR_CORPUS = (
    '{"id": "s1", "created_at": "2017-07-01T10:00:00+05:30", '
    '"text": "@a @b #c goooood!!!"}\n'
    '{"id": "s2", "created_at": "2017-07-01T11:00:00+05:30", '
    '"text": "#x #y poooor..."}\n')

#: A JSONL corpus of non-ASCII texts, which the pure tokenizer splits with
#: its Unicode regex rather than its ASCII byte table. Lexicon words sit
#: next to a curly quote, a no-break space, an emoji, a Devanagari word,
#: ``é`` and ``ß``. The last two are letters, so "goodé" and "goodß" are
#: not "good": the second tweet is negative only if they stay whole
#: tokens. Every character is in Unicode 13 or older, so all supported
#: Pythons read it alike.
UNICODE_CORPUS = (
    '{"id": "u1", "created_at": "2017-07-01T10:00:00+05:30", '
    '"text": "Café \u201cGOOD\u201d\u00a0straße love\U0001f600"}\n'
    '{"id": "u2", "created_at": "2017-07-01T11:00:00+05:30", '
    '"text": "\u201cbad\u201d goodé goodß"}\n'
    '{"id": "u3", "created_at": "2017-07-01T12:00:00+05:30", '
    '"text": "\u092a\u0930 hope\U0001f600 wonder"}\n')

#: Characters in the long run of ``long_line_problems``' text lines.
LONG_RUN = 4 * 1024 * 1024

#: A one-line run may peak above the baseline one-line run by at most this
#: many times its line's size in bytes.
PEAK_PER_LINE_BYTE = 5

#: Runs the CLI with argv[1:], then prints its exit code and the peak
#: resident memory of this process in KiB (VmHWM). Read from /proc, it is
#: this process's own: ``ru_maxrss`` would also carry the spawning
#: process's peak.
_PEAK_CLI = """
import sys
from tweetlex.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, next(line.split()[1] for line in fh
                     if line.startswith("VmHWM:")))
"""

#: Runs the CLI with argv[1:], then prints its exit code and which of
#: ``dataclasses`` and ``inspect`` the run loaded. No run needs either.
_LOADED_CLI = """
import sys
from tweetlex.cli import main
code = main(sys.argv[1:])
print(code, *[name for name in ("dataclasses", "inspect")
              if name in sys.modules])
"""

#: The CLI with two usable CPUs faked, so that ``--threads 2`` starts a
#: helper process on any host.
_TWO_CPU_CLI = """
import os, sys
os.sched_getaffinity = lambda _pid: {0, 1}
from tweetlex.cli import main
sys.exit(main(sys.argv[1:]))
"""

#: The daily sentiment tally each ``--oracle`` corpus must give.
TALLIES = {
    "separator": (SEPARATOR_CORPUS,
                  {"positive": 1, "negative": 1, "neutral": 0}),
    "unicode": (UNICODE_CORPUS, {"positive": 2, "negative": 1, "neutral": 0}),
}


def _analyze(python, corpus: Path, lexicon: Path, out_dir: Path, *extra,
             cli=("-m", "tweetlex.cli")):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [python, *cli, "analyze",
           "--input", str(corpus), "--lexicon", str(lexicon),
           "--out", str(out_dir), *extra]
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=300)


def check(python, golden: Path = GOLDEN) -> list[str]:
    """The differences between PYTHON's golden run and ``golden/expected``,
    and a failed ``--oracle`` run, one line each; empty when none."""
    problems = []
    expected_dir = golden / "expected"
    corpus, lexicon = golden / "corpus.jsonl", golden / "lexicon.tsv"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = _analyze(python, corpus, lexicon, out,
                        "--emit-tags", "--threads", "2")
        if proc.returncode != 0:
            return [f"analyze exited {proc.returncode}: "
                    f"{proc.stderr.strip()}"]
        expected = sorted(p.name for p in expected_dir.iterdir())
        got = sorted(p.name for p in out.iterdir())
        if got != expected:
            problems.append(f"wrote {got}, expected {expected}")
        for name in expected:
            path = out / name
            if (path.is_file() and path.read_bytes()
                    != (expected_dir / name).read_bytes()):
                problems.append(f"{name} differs from the golden copy")
        proc = _analyze(python, corpus, lexicon, Path(tmp) / "oracle",
                        "--oracle")
        if proc.returncode != 0:
            problems.append(f"--oracle exited {proc.returncode}: "
                            f"{proc.stderr.strip()}")
        nul = Path(tmp) / "nul.csv"
        nul.write_bytes(NUL_CORPUS.encode("utf-8"))
        out = Path(tmp) / "nul"
        proc = _analyze(python, nul, lexicon, out, "--format", "csv",
                        "--oracle", "--threads", "2")
        if proc.returncode != 0:
            problems.append(f"NUL corpus: --oracle exited {proc.returncode}:"
                            f" {proc.stderr.strip()}")
        else:
            summary = json.loads((out / "summary.json").read_text("utf-8"))
            got = (summary["rejected_reasons"], summary["tweets_tagged"])
            if got != ({"malformed": 1}, 1):
                problems.append(f"NUL corpus: rejected {got[0]} and tagged "
                                f"{got[1]}, expected one malformed row and "
                                f"one tagged tweet")
        for name, (text, want) in TALLIES.items():
            runs = Path(tmp) / f"{name}.jsonl"
            runs.write_bytes(text.encode("utf-8"))
            out = Path(tmp) / name
            proc = _analyze(python, runs, lexicon, out, "--oracle",
                            "--threads", "2")
            if proc.returncode != 0:
                problems.append(f"{name} corpus: --oracle exited "
                                f"{proc.returncode}: {proc.stderr.strip()}")
                continue
            sentiment = Counter()
            with open(out / "daily.csv", encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    if row["channel"] == "sentiment":
                        sentiment[row["label"]] += int(row["count"])
            if sentiment != want:
                problems.append(f"{name} corpus: daily.csv sentiment "
                                f"{dict(sentiment)}, expected {want}")
        gazetteer = Path(tmp) / "nul_gazetteer.csv"
        gazetteer.write_bytes(NUL_GAZETTEER.encode("utf-8"))
        proc = _analyze(python, corpus, lexicon, Path(tmp) / "nul_gazetteer",
                        "--gazetteer", str(gazetteer))
        if (proc.returncode != 1 or "tweetlex: error:" not in proc.stderr
                or "line 2" not in proc.stderr
                or "Traceback" in proc.stderr):
            problems.append(f"NUL gazetteer: exited {proc.returncode}, "
                            f"expected 1 with a 'tweetlex: error:' line "
                            f"naming line 2: {proc.stderr.strip()}")
        problems += _multi_chunk_problems(python, Path(tmp))
        problems += loaded_module_problems(python, Path(tmp))
        problems += long_line_problems(python, Path(tmp))
    return problems


def _multi_chunk_problems(python, tmp: Path) -> list[str]:
    """Differences between the ``--threads 1`` and ``--threads 2`` files of
    a random corpus of ``MULTI_CHUNK_LINES`` lines."""
    corpus, lexicon = tmp / "multi.jsonl", tmp / "multi_lexicon.tsv"
    corpus_gen.write_random_corpus(corpus, MULTI_CHUNK_LINES, seed=24)
    corpus_gen.write_toy_lexicon(lexicon)
    trees = []
    for threads in ("1", "2"):
        out = tmp / f"multi{threads}"
        proc = _analyze(python, corpus, lexicon, out, "--emit-tags",
                        "--threads", threads, cli=("-c", _TWO_CPU_CLI))
        if proc.returncode != 0:
            return [f"multi-chunk corpus: --threads {threads} exited "
                    f"{proc.returncode}: {proc.stderr.strip()}"]
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    one, two = trees
    return [f"multi-chunk corpus: {name} differs between --threads 1 and 2"
            for name in sorted(set(one) | set(two))
            if one.get(name) != two.get(name)]


def loaded_module_problems(python, tmp: Path) -> list[str]:
    """A one-worker golden run that fails or loads ``dataclasses`` or
    ``inspect``, as one line; empty when it does neither."""
    proc = _analyze(python, GOLDEN / "corpus.jsonl", GOLDEN / "lexicon.tsv",
                    tmp / "loaded", "--threads", "1", cli=("-c", _LOADED_CLI))
    if proc.returncode != 0 or proc.stdout.split() != ["0"]:
        return [f"one-worker run: exited {proc.returncode} and printed "
                f"{proc.stdout.strip()!r}, expected 0 and no dataclasses or "
                f"inspect loaded: {proc.stderr.strip()}"]
    return []


def _tweet(text: str, location: str = "Delhi") -> str:
    return json.dumps({"id": "t1", "created_at": "2017-07-01T10:00:00+05:30",
                       "text": text, "user_location": location},
                      ensure_ascii=False) + "\n"


def long_line_problems(python, tmp: Path) -> list[str]:
    """The one-line corpora whose analyze run peaks more than
    ``PEAK_PER_LINE_BYTE`` times the line's size in bytes above a one-line
    run of a short tweet. Their lines hold a text with a run of
    ``LONG_RUN`` ``y``s, a text of ``LONG_RUN`` characters in short runs
    (``yyyz`` repeated, each ``yyy`` shortened), a text with a run of
    ``LONG_RUN`` spaces, and a location of 1 Mi random CJK letters. Empty
    where there is no ``/proc/self/status`` to read the peak from."""
    if not Path("/proc/self/status").exists():
        return []
    rng = random.Random(10)
    cjk = "".join(map(chr, rng.choices(range(0x4E00, 0xA000), k=1 << 20)))
    lines = {"baseline": _tweet("good day gst"),
             "letter run": _tweet("good " + "y" * LONG_RUN),
             "short runs": _tweet("good " + "yyyz" * (LONG_RUN // 4)),
             "space run": _tweet("good" + " " * LONG_RUN + "day"),
             "CJK location": _tweet("good day", cjk)}
    peaks = {}
    for n, (name, line) in enumerate(lines.items()):
        corpus = tmp / f"long{n}.jsonl"
        corpus.write_text(line, encoding="utf-8")
        proc = _analyze(python, corpus, GOLDEN / "lexicon.tsv",
                        tmp / f"long{n}", cli=("-c", _PEAK_CLI))
        code, peak = (["", ""] + proc.stdout.split())[-2:]
        if proc.returncode != 0 or code != "0":
            return [f"{name} line: exited {proc.returncode}, analyze gave "
                    f"{code!r}: {proc.stderr.strip()}"]
        peaks[name] = int(peak) * 1024
    baseline = peaks.pop("baseline")
    problems = []
    for name, peak in peaks.items():
        size = len(lines[name].encode("utf-8"))
        bound = baseline + PEAK_PER_LINE_BYTE * size
        if peak > bound:
            problems.append(f"{name} line of {size} bytes: peak memory "
                            f"{peak >> 20} MiB, over {bound >> 20} MiB (the "
                            f"baseline run's {baseline >> 20} MiB plus "
                            f"{PEAK_PER_LINE_BYTE} times the line)")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tests/cross_python.py PYTHON", file=sys.stderr)
        return 2
    python = args[0]
    problems = check(python)
    for problem in problems:
        print(f"{python}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{python}: golden run matches; --oracle agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
