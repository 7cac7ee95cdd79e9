"""Golden-run check for one Python interpreter, standard library only.

Usage: python tests/cross_python.py PYTHON

Runs the golden corpus through ``PYTHON -m tweetlex.cli analyze --emit-tags
--threads 2`` with ``PYTHONPATH`` set to this checkout's ``src``, and
compares every output file with ``tests/data/golden_run/expected`` byte for
byte. Then it runs the corpus again with ``--oracle`` and requires exit 0,
runs ``NUL_CORPUS`` with ``--oracle``, which must reject its NUL row as
malformed and tag the other, and runs ``SEPARATOR_CORPUS`` and
``UNICODE_CORPUS`` with ``--oracle``, each of which must give a fixed
sentiment tally. Last it runs the golden corpus with ``--gazetteer
NUL_GAZETTEER``, which must exit 1 with a ``tweetlex: error:`` line that
names line 2 and no traceback. Neither this script nor the run needs pytest, so PYTHON
may be an interpreter that has only its standard library.

Exits 0 when everything matches. Otherwise it prints one line per
difference to stderr and exits 1.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_run"

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

#: The daily sentiment tally each ``--oracle`` corpus must give.
TALLIES = {
    "separator": (SEPARATOR_CORPUS,
                  {"positive": 1, "negative": 1, "neutral": 0}),
    "unicode": (UNICODE_CORPUS, {"positive": 2, "negative": 1, "neutral": 0}),
}


def _analyze(python, corpus: Path, lexicon: Path, out_dir: Path, *extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [python, "-m", "tweetlex.cli", "analyze",
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
