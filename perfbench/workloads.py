"""Seeded workload generator for the end-to-end benchmark.

Each workload is generated from ``--seed`` into a scratch directory: an
NRC-scale lexicon (14,182 words x 10 categories = 141,820 rows) and one
corpus.  Nothing generated is committed.  The generator counts, while it
writes, what the pipeline must report back (lines, every rejection reason,
admitted records, distinct locations, mention and hashtag occurrences), so
the benchmark checks ``summary.json`` against numbers fixed at build time.

Every tweet carries at least one filler word (a content word that is not a
stopword), so no admitted tweet is blank and every admitted tweet is tagged
and location-resolved exactly once.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import corpus_gen

IST = corpus_gen.IST
START = date(2017, 7, 1)
DAYS = 7
LEXICON_WORDS = 14182

#: Lines per corpus.  Set-up (the lexicon load) is a fixed ~0.45 s per run,
#: so each corpus is large enough for the layers its workload exists for to
#: lead its traced wall (README.md has the measured shares), yet small
#: enough for a closed loop of about ten runs to fit in --seconds.
SIZES = {
    "bulk_1w": 16000,
    "bulk_nproc": 16000,
    "longtail_tags": 16000,
    "window_subcorpus": 30000,
}

#: Region each LOCATION_POOL string resolves to, keyed by the raw string.
_POOL_REGION = dict(corpus_gen.LOCATION_POOL)

WINDOW_HANDLE = "FinMinIndia"


@dataclass
class Expected:
    """What a correct run over the generated corpus reports."""

    lines: int = 0
    rejected: Counter = field(default_factory=Counter)
    admitted: int = 0
    lexicon_entries: int = 0
    locations: Counter = field(default_factory=Counter)  # raw string -> n
    regions: Counter = field(default_factory=Counter)    # region -> n
    mentions: Counter = field(default_factory=Counter)
    hashtags: Counter = field(default_factory=Counter)
    mention_carriers: int = 0

    def as_dict(self) -> dict:
        return {
            "lines": self.lines,
            "rejected": dict(sorted(self.rejected.items())),
            "admitted": self.admitted,
            "lexicon_entries": self.lexicon_entries,
            "distinct_locations": len(self.locations),
            "mention_carriers": self.mention_carriers,
            "mention_occurrences": sum(self.mentions.values()),
            "distinct_mentions": len(self.mentions),
            "hashtag_occurrences": sum(self.hashtags.values()),
            "distinct_hashtags": len(self.hashtags),
        }


@dataclass
class Workload:
    """Generated inputs plus the run configuration and expectations."""

    name: str
    config: dict          # AnalyzeConfig fields, JSON-friendly
    expected: Expected
    subcorpus: bool = False


def _timestamp(rng: random.Random, day: date) -> str:
    when = datetime(day.year, day.month, day.day, rng.randrange(24),
                    rng.randrange(60), rng.randrange(60), tzinfo=IST)
    if rng.random() < 0.1:
        return when.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return when.isoformat()


def _words(rng: random.Random, lexicon_words: list[str]) -> list[str]:
    """About 10 tokens, 40% lexicon words, led by one filler word."""
    fillers = corpus_gen.FILLER_WORDS
    words = [rng.choice(fillers)]
    for _ in range(rng.randint(5, 13)):
        words.append(rng.choice(lexicon_words) if rng.random() < 0.4
                     else rng.choice(fillers))
    return words


def _admit(exp: Expected, loc: str | None, region: str,
           mentions: list[str], hashtags: list[str]) -> None:
    exp.admitted += 1
    exp.locations[loc] += 1
    exp.regions[region] += 1
    if mentions:
        exp.mention_carriers += 1
    exp.mentions.update(m.lower() for m in mentions)
    exp.hashtags.update(h.upper() for h in hashtags)


def _write_lexicon(path: Path, seed: int) -> tuple[list[str], int]:
    truth = corpus_gen.write_scaled_lexicon(path, LEXICON_WORDS, seed)
    with open(path, encoding="utf-8") as fh:
        words = sorted({line.split("\t", 1)[0] for line in fh})
    assert len(words) == LEXICON_WORDS
    return words, len(truth)


def _bulk(path: Path, n: int, rng: random.Random, words: list[str],
          exp: Expected) -> None:
    """JSONL, no rejects, locations from the 19-string pool, short-tail
    mentions and hashtags."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            text = _words(rng, words)
            mentions = ([rng.choice(corpus_gen.MENTION_POOL)]
                        if rng.random() < 0.25 else [])
            hashtags = ([rng.choice(corpus_gen.HASHTAG_POOL)]
                        if rng.random() < 0.25 else [])
            text += ["@" + m for m in mentions] + ["#" + h for h in hashtags]
            loc = rng.choice(corpus_gen.LOCATION_POOL)[0]
            day = START + timedelta(days=rng.randrange(DAYS))
            fh.write(json.dumps({
                "id": f"b{i:07d}",
                "created_at": _timestamp(rng, day),
                "text": " ".join(text),
                "user_location": loc,
            }, ensure_ascii=False) + "\n")
            exp.lines += 1
            _admit(exp, loc, _POOL_REGION[loc], mentions, hashtags)


def _tail_rank(rng: random.Random) -> int:
    """Long-tail key rank: 30% from a Pareto head of hot keys, the rest
    spread over a million keys that are mostly seen once."""
    if rng.random() < 0.3:
        return int(rng.paretovariate(1.0))
    return rng.randrange(1, 10**6)


def _longtail(path: Path, n: int, rng: random.Random, words: list[str],
              exp: Expected) -> None:
    """CSV with about 10% rejected rows (duplicate ids, bad timestamps,
    short rows), a distinct location per line and long-tail entities.

    A numeric suffix keeps each location distinct without changing the
    region it resolves to: no gazetteer pattern contains a digit.
    """
    located_pool = [loc for loc, _r in corpus_gen.LOCATION_POOL
                    if loc is not None]
    admitted_ids: list[str] = []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "created_at", "text", "user_location"])
        for i in range(n):
            text = _words(rng, words)
            mentions = [f"u{_tail_rank(rng)}_{rng.choice('abc')}"
                        for _ in range(rng.randint(1, 3))]
            hashtags = [rng.choice(("Tag", "tag", "TAG"))
                        + str(_tail_rank(rng))
                        for _ in range(rng.randint(0, 2))]
            text += ["@" + m for m in mentions] + ["#" + h for h in hashtags]
            base = located_pool[i % len(located_pool)]
            loc = f"{base} {i}"
            day = START + timedelta(days=rng.randrange(DAYS))
            stamp = _timestamp(rng, day)
            rec_id = f"c{i:07d}"
            roll = rng.random()
            exp.lines += 1
            if roll < 0.03 and admitted_ids:
                writer.writerow([rng.choice(admitted_ids), stamp,
                                 " ".join(text), loc])
                exp.rejected["duplicate"] += 1
            elif roll < 0.07:
                writer.writerow([rec_id, f"2017-07-{32 + i % 60}T10:00:00",
                                 " ".join(text), loc])
                exp.rejected["timestamp"] += 1
            elif roll < 0.10:
                writer.writerow([rec_id, stamp, " ".join(text)])
                exp.rejected["malformed"] += 1
            else:
                writer.writerow([rec_id, stamp, " ".join(text), loc])
                admitted_ids.append(rec_id)
                _admit(exp, loc, _POOL_REGION[base], mentions, hashtags)


def _window(path: Path, n: int, rng: random.Random, words: list[str],
            exp: Expected, window_day: date) -> None:
    """JSONL over seven days; 10% of tweets mention WINDOW_HANDLE.  Only
    tweets on window_day (local time) are admitted; the subcorpus run
    tags the admitted ones that carry the handle."""
    others = [m for m in corpus_gen.MENTION_POOL if m != WINDOW_HANDLE]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            text = _words(rng, words)
            if rng.random() < 0.10:
                mentions = [WINDOW_HANDLE]
            elif rng.random() < 0.2:
                mentions = [rng.choice(others)]
            else:
                mentions = []
            text += ["@" + m for m in mentions]
            loc = rng.choice(corpus_gen.LOCATION_POOL)[0]
            day = START + timedelta(days=rng.randrange(DAYS))
            fh.write(json.dumps({
                "id": f"w{i:07d}",
                "created_at": _timestamp(rng, day),
                "text": " ".join(text),
                "user_location": loc,
            }, ensure_ascii=False) + "\n")
            exp.lines += 1
            if day != window_day:
                exp.rejected["out_of_range"] += 1
            elif WINDOW_HANDLE in mentions:
                _admit(exp, loc, _POOL_REGION[loc], mentions, [])
            else:
                exp.admitted += 1  # admitted by ingest, not in the subcorpus


def generate(name: str, seed: int, workdir: Path, workers: int) -> Workload:
    """Write workload ``name`` for ``seed`` under ``workdir``.

    ``workers`` is the pool size for ``bulk_nproc``; the other workloads
    run on one worker.
    """
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    # Both bulk workloads draw the same lexicon and corpus for a seed, so
    # their outputs must be byte-identical.
    family = "bulk" if name.startswith("bulk") else name
    rng = random.Random(f"{family}:{seed}")
    lexicon = workdir / "lexicon.tsv"
    words, entries = _write_lexicon(lexicon, rng.randrange(2**32))
    exp = Expected(lexicon_entries=entries)
    n = SIZES[name]
    config = {"lexicon_path": str(lexicon), "workers": 1}
    subcorpus = False
    if name in ("bulk_1w", "bulk_nproc"):
        corpus = workdir / "corpus.jsonl"
        _bulk(corpus, n, rng, words, exp)
        if name == "bulk_nproc":
            config["workers"] = workers
    elif name == "longtail_tags":
        corpus = workdir / "corpus.csv"
        _longtail(corpus, n, rng, words, exp)
        config["fmt"] = "csv"
        config["emit_tags"] = "tags.jsonl"
    else:
        corpus = workdir / "corpus.jsonl"
        window_day = START + timedelta(days=rng.randrange(DAYS))
        _window(corpus, n, rng, words, exp, window_day)
        config["mention"] = WINDOW_HANDLE.lower()
        config["date_from"] = config["date_to"] = window_day.isoformat()
        subcorpus = True
    config["input_path"] = str(corpus)
    return Workload(name, config, exp, subcorpus)
