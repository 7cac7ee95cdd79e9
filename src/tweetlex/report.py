"""End-to-end corpus runs: chunked processing, merging, and file emission.

A run streams admitted records in chunks of 1024 through a worker function
(in-process when workers == 1, a multiprocessing pool otherwise), merges the
per-chunk partial aggregates in chunk order, and only then writes output
files.  Per-tweet tag rows are not held: the main process appends each
chunk's rows to an anonymous temporary file as it takes the chunk, and
copies that file out with the others.  Given the same inputs and
configuration, every output file is byte-identical run to run, whatever
the worker count: chunk order is fixed by the corpus, pool results are
consumed in submission order, and all emission is sorted with "\n" line
endings and a fixed JSON key layout.

Wall-clock timing never goes into summary.json (that would break the
byte-identical contract); the CLI reports it on stderr.
"""

from __future__ import annotations

import errno
import itertools
import json
import multiprocessing
import os
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import date, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from . import reference
from .entities import FrequencyTable
from .errors import OracleMismatchError, TweetlexError
from .ingest import IST, ReadStats, Record, RecordReader
from .lexicon import Category, load_lexicon
from .preprocess import (count_non_ascii_tokens, default_stopwords_path,
                         is_mention_key, load_stopwords, preprocess)
from .spatial import (FOREIGN, INDIA_UNSPECIFIED, INDIAN_REGIONS, UNKNOWN,
                      RegionAggregate, Rules, default_gazetteer_path,
                      load_gazetteer, resolve_location)
from .tagger import (EMOTION_LABELS, EMOTION_NEUTRAL, NEUTRAL, OVERALL_LABELS,
                     SENTIMENT_LABELS, tag_tweet)
from .temporal import (CHANNELS, DAY_ROW, DayBuckets, HourBuckets, peak_slot,
                       row_tweets, sum_rows)

CHUNK_SIZE = 1024

WORDCLOUD_TOP_N = 40

#: Differing figures an oracle mismatch lists before it counts the rest.
MAX_MISMATCHES = 20

# tags.jsonl line fragments.  A line is, byte for byte, json.dumps(row,
# ensure_ascii=False) of the dict {"id", "counts", "sentiment", "emotion",
# "overall", "tied"}; only the id is encoded per row, by the encoder that
# json.dumps(id, ensure_ascii=False) builds.
_dump_id = json.JSONEncoder(ensure_ascii=False).encode
_TAG_COUNTS = (', "counts": {'
               + ", ".join(f"{json.dumps(c.label)}: %d" for c in Category)
               + "}")
_TAG_SENTIMENT = tuple(f', "sentiment": {json.dumps(label)}'
                       for label in SENTIMENT_LABELS)
_TAG_EMOTION = tuple(f', "emotion": {json.dumps(label)}'
                     for label in EMOTION_LABELS)
_TAG_OVERALL = tuple(f', "overall": {json.dumps(label)}'
                     for label in OVERALL_LABELS)
_TAG_TIED = (', "tied": false}\n', ', "tied": true}\n')

# The files a run may write into its output directory.
_OUTPUT_NAMES = ("daily.csv", "hourly.csv", "mentions.csv", "hashtags.csv",
                 "regions.csv", "wordcloud_mentions.json",
                 "wordcloud_hashtags.json", "summary.json")

# regions.csv label columns: the sentiment labels, then the emotion labels
# without neutral, which are the first len(_REGION_COLS) slots of a label row.
_REGION_COLS = SENTIMENT_LABELS + EMOTION_LABELS[:EMOTION_NEUTRAL]


@dataclass
class AnalyzeConfig:
    """Everything one run needs; paths may be str or Path."""

    input_path: str
    lexicon_path: str
    out_dir: str
    fmt: str = "jsonl"
    stopwords_path: str | None = None
    gazetteer_path: str | None = None
    default_tz: timezone = IST
    date_from: date | None = None
    date_to: date | None = None
    emit_tags: str | None = None
    oracle: bool = False
    workers: int = 1
    mention: str | None = None


@dataclass
class _Partial:
    """Mergeable result of one chunk of records."""

    day: DayBuckets = field(default_factory=DayBuckets)
    hours: HourBuckets = field(default_factory=HourBuckets)
    mentions: FrequencyTable = field(default_factory=FrequencyTable)
    hashtags: FrequencyTable = field(default_factory=FrequencyTable)
    regions: RegionAggregate = field(default_factory=RegionAggregate)
    matched: int = 0
    blanks: int = 0
    ties: int = 0
    non_latin: int = 0
    # (id, vector, sentiment, emotion, overall, tied) per tagged tweet,
    # kept only for --emit-tags and only in a chunk's own partial: the
    # main process spills them as it takes the chunk, and merge drops them.
    tag_rows: list = field(default_factory=list)

    def merge(self, other: "_Partial") -> "_Partial":
        self.day.merge(other.day)
        self.hours.merge(other.hours)
        self.mentions.merge(other.mentions)
        self.hashtags.merge(other.hashtags)
        self.regions.merge(other.regions)
        self.matched += other.matched
        self.blanks += other.blanks
        self.ties += other.ties
        self.non_latin += other.non_latin
        return self


# Worker-process state, set once per worker by _init_worker.  With the
# default fork start this is cheap; initargs keep it correct under spawn.
_G: dict = {}


def _init_worker(masks: dict[str, int], stopwords: frozenset[str],
                 rules: Rules, emit_tags: bool, mention: str | None) -> None:
    _G["masks"] = masks
    _G["stopwords"] = stopwords
    _G["rules"] = rules
    _G["emit_tags"] = emit_tags
    _G["mention"] = mention


def _may_mention(text: str, at_handle: str) -> bool:
    """Whether ``text`` can mention ``at_handle`` ("@" plus a lowercase
    handle): a cheap test before ``preprocess`` that every match passes.

    A matched mention is "@" plus ASCII handle characters that stand
    together in ``text``: URL removal puts a space in place of each URL,
    so it never joins characters.  ``str.lower`` maps each ASCII letter to
    its own lowercase form wherever it stands, so that run reads as
    ``at_handle`` in ``text.lower()``.
    """
    return at_handle in text.lower()


def _process_chunk(records: list[Record]) -> _Partial:
    masks = _G["masks"]
    stopwords = _G["stopwords"]
    rules = _G["rules"]
    emit_tags = _G["emit_tags"]
    mention = _G["mention"]
    if mention is not None:
        at_handle = "@" + mention
        records = [record for record in records
                   if _may_mention(record[2], at_handle)]

    part = _Partial()
    region_of: dict = {}  # raw location -> region, for this chunk only
    for rec_id, timestamp, text, location in records:
        clean = preprocess(text, stopwords)
        if mention is not None and mention not in clean.mentions:
            continue
        part.matched += 1
        part.mentions.update(clean.mentions)
        part.hashtags.update(clean.hashtags)
        if not clean.tokens:
            part.blanks += 1
            continue
        part.non_latin += count_non_ascii_tokens(clean.tokens)
        tag = tag_tweet(clean.tokens, masks)
        vector, s, e, o, tied = tag
        if tied:
            part.ties += 1
        part.day.add(tag, timestamp)
        part.hours.add(timestamp)
        region = region_of.get(location)
        if region is None:
            region = region_of[location] = resolve_location(location, rules)
        if region != UNKNOWN:
            part.regions.add(tag, region)
        if emit_tags:
            part.tag_rows.append((rec_id, vector, s, e, o, tied))
    return part


def _iter_chunks(records: Iterable[Record]) -> Iterator[list[Record]]:
    records = iter(records)
    while chunk := list(itertools.islice(records, CHUNK_SIZE)):
        yield chunk


def _run_chunks(reader: RecordReader, initargs: tuple, workers: int,
                spill: BinaryIO | None) -> _Partial:
    """Process and merge every chunk in corpus order; with a ``spill``
    file, append each chunk's tag rows to it before the merge."""
    total = _Partial()

    def take(part: _Partial) -> None:
        if spill is not None:
            write_tags_jsonl(spill, part.tag_rows)
        total.merge(part)

    if workers <= 1:
        _init_worker(*initargs)
        try:
            for chunk in _iter_chunks(reader):
                take(_process_chunk(chunk))
        finally:
            _G.clear()
        return total
    # Processes beyond the CPUs this one may run on only add start-up cost.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with multiprocessing.Pool(min(workers, cpus), initializer=_init_worker,
                              initargs=initargs) as pool:
        for part in pool.imap(_process_chunk, _iter_chunks(reader)):
            take(part)
    return total


@dataclass
class RunResult:
    """In-memory view of a finished run, for callers and tests."""

    summary: dict
    part: _Partial
    out_dir: Path
    written: list[Path]


def _entity_summary(table: FrequencyTable) -> tuple[dict, list, dict]:
    """A mention or hashtag table's summary figures, ranking and top 40."""
    ranked = table.items_sorted()
    top = dict(ranked[:WORDCLOUD_TOP_N])
    return {"distinct": table.distinct_keys,
            "total_occurrences": table.total_occurrences,
            "top40_subtotal": sum(top.values())}, ranked, top


def _region_table(regions: RegionAggregate) -> list[tuple[str, list[int]]]:
    """regions.csv's (name, label row) pairs in file order: every Indian
    region (tweet count desc, then name), INDIA_UNSPECIFIED, then the
    INDIA_TOTAL, FOREIGN and TOTAL rows."""
    rows, empty = regions.rows, [0] * len(DAY_ROW)
    india = sorted(((name, rows.get(name, empty)) for name in INDIAN_REGIONS),
                   key=lambda item: (-row_tweets(item[1]), item[0]))
    india.append((INDIA_UNSPECIFIED, rows.get(INDIA_UNSPECIFIED, empty)))
    india_total = sum_rows(row for _name, row in india)
    foreign = rows.get(FOREIGN, empty)
    return india + [("INDIA_TOTAL", india_total), (FOREIGN, foreign),
                    ("TOTAL", sum_rows([india_total, foreign]))]


def _daily_cells(day: DayBuckets) -> Iterator[tuple[str, str, str, int]]:
    """daily.csv's (ISO date, channel, label, count) cells in file order:
    by date, then in DAY_ROW order, zeros included."""
    for when in sorted(day.rows):
        iso = when.isoformat()
        for (channel, label), count in zip(DAY_ROW, day.rows[when]):
            yield iso, channel, label, count


def _outputs(config: AnalyzeConfig, stats: ReadStats, part: _Partial,
             masks: dict) -> tuple[dict, list]:
    """The summary.json dict, and the run's tables as (file name, writer,
    data) triples in write order: the daily table alone on a subcorpus
    run, all seven tables otherwise."""
    totals = sum_rows(part.day.rows.values())
    read = {
        "records_read": stats.lines,
        "records_rejected": stats.skipped_total,
        "rejected_reasons": dict(sorted(stats.skipped.items())),
    }
    tagging = {
        "blanks_dropped": part.blanks,
        "tweets_tagged": part.hours.total,
        "neutral_counts": {channel: totals[DAY_ROW.index((channel, NEUTRAL))]
                           for channel in CHANNELS},
        "tie_count": part.ties,
    }
    tables = [("daily.csv", write_daily_csv, part.day)]
    if config.mention is not None:
        return {"mention": config.mention, **read,
                "subcorpus_tweets": part.matched, **tagging,
                "peak_hour_slot": peak_slot(part.hours),
                "lexicon_entries": len(masks)}, tables
    mention_summary, mentions, mention_top = _entity_summary(part.mentions)
    hashtag_summary, hashtags, hashtag_top = _entity_summary(part.hashtags)
    regions = _region_table(part.regions)
    india_total, foreign, located = (row_tweets(row)
                                     for _name, row in regions[-3:])
    summary = {
        **read, **tagging,
        "non_latin_token_tally": part.non_latin,
        "peak_hour_slot": peak_slot(part.hours),
        "mentions": mention_summary,
        "hashtags": hashtag_summary,
        "locations": {
            "located": located,
            "unknown": part.hours.total - located,
            "india_total": india_total,
            "foreign": foreign,
        },
        "lexicon_entries": len(masks),
    }
    return summary, tables + [
        ("hourly.csv", write_hourly_csv, part.hours),
        ("mentions.csv", write_freq_csv, mentions),
        ("hashtags.csv", write_freq_csv, hashtags),
        ("regions.csv", write_regions_csv, regions),
        ("wordcloud_mentions.json", write_json, mention_top),
        ("wordcloud_hashtags.json", write_json, hashtag_top),
    ]


def _diff_dicts(prefix: str, mine, ref, out: list[str]) -> None:
    """Append a line per differing figure, walking dicts in key order and
    lists in index order."""
    if isinstance(mine, list) and isinstance(ref, list):
        mine, ref = dict(enumerate(mine)), dict(enumerate(ref))
    if isinstance(mine, dict) and isinstance(ref, dict):
        for key in sorted(set(mine) | set(ref)):
            _diff_dicts(f"{prefix}{key}.", mine.get(key), ref.get(key), out)
    elif mine != ref:
        out.append(f"{prefix[:-1]}: pipeline={mine!r} reference={ref!r}")


def _check_oracle(config: AnalyzeConfig, stats: ReadStats, summary: dict,
                  part: _Partial, stopwords: frozenset[str],
                  rules: Rules) -> None:
    """Recompute the run through tweetlex.reference and compare each of
    its named tallies with the pipeline's.

    Raises OracleMismatchError listing the first MAX_MISMATCHES differing
    figures and the count of the rest.  The reference makes its own pass
    over the input, so run_analyze admits an oracle run only on a file
    input.
    """
    ref = reference.run_reference(
        config.input_path, config.fmt, config.lexicon_path,
        stopwords=stopwords, gazetteer=rules, default_tz=config.default_tz,
        date_from=config.date_from, date_to=config.date_to,
        mention_filter=config.mention)
    daily: dict[str, dict] = {channel: {} for channel in CHANNELS}
    for iso, channel, label, count in _daily_cells(part.day):
        if count:
            daily[channel].setdefault(iso, {})[label] = count
    mine = {"summary": summary, "daily": daily, "hourly": part.hours.slots,
            "mentions": dict(part.mentions.items_sorted()),
            "hashtags": dict(part.hashtags.items_sorted()),
            "regions": {region: row_tweets(row)
                        for region, row in part.regions.rows.items()},
            "rejections": stats.diagnostics}
    diffs: list[str] = []
    for name in mine:
        _diff_dicts(f"{name}.", mine[name], ref[name], diffs)
    if len(diffs) > MAX_MISMATCHES:
        diffs[MAX_MISMATCHES:] = [f"... and {len(diffs) - MAX_MISMATCHES}"
                                  f" more, {len(diffs)} in all"]
    if diffs:
        raise OracleMismatchError(
            "reference run disagrees with pipeline:\n  " + "\n  ".join(diffs))


def _open_out(path: Path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_daily_csv(path: Path, day: DayBuckets) -> None:
    """date,channel,label,count with every canonical label present (zeros
    included) so the file shape does not depend on the data."""
    with _open_out(path) as fh:
        fh.write("date,channel,label,count\n")
        for iso, channel, label, count in _daily_cells(day):
            fh.write(f"{iso},{channel},{label},{count}\n")


def write_hourly_csv(path: Path, hours: HourBuckets) -> None:
    """slot,count over the 24 local-time slots; header only when the run
    tagged nothing."""
    with _open_out(path) as fh:
        fh.write("slot,count\n")
        if hours.total == 0:
            return
        for slot in range(24):
            fh.write(f"{slot},{hours.slots[slot]}\n")


def write_freq_csv(path: Path, ranked: list[tuple[str, int]]) -> None:
    """key,count over a table's items_sorted() list."""
    with _open_out(path) as fh:
        fh.write("key,count\n")
        for key, count in ranked:
            fh.write(f"{key},{count}\n")


def write_regions_csv(path: Path,
                      table: list[tuple[str, list[int]]]) -> None:
    """name,tweets, the _REGION_COLS counts and cum_share for each row of
    a _region_table.

    cum_share accumulates tweets/located-total down the state rows through
    INDIA_UNSPECIFIED and FOREIGN; the derived INDIA_TOTAL and TOTAL rows
    show their own share instead.  Header only when nothing was located.
    """
    with _open_out(path) as fh:
        fh.write(",".join(("region", "tweets", *_REGION_COLS, "cum_share"))
                 + "\n")
        grand = row_tweets(table[-1][1])
        if grand == 0:
            return
        running = 0
        for name, row in table:
            tweets = row_tweets(row)
            if name in ("INDIA_TOTAL", "TOTAL"):
                share = tweets
            else:
                running += tweets
                share = running
            counts = map(str, row[:len(_REGION_COLS)])
            fh.write(",".join([name, str(tweets), *counts,
                               f"{share / grand:.6f}"]) + "\n")


def write_tags_jsonl(fh: BinaryIO, rows: list[tuple]) -> None:
    """Append one JSON object per tagged tweet, labels named, to the binary
    file ``fh``: a line per row, as UTF-8, in row order."""
    fh.write("".join([
        '{"id": ' + _dump_id(rec_id)
        + _TAG_COUNTS % tuple(vector) + _TAG_SENTIMENT[s] + _TAG_EMOTION[e]
        + _TAG_OVERALL[o] + _TAG_TIED[tied]
        for rec_id, vector, s, e, o, tied in rows]).encode("utf-8"))


def write_spilled_tags(path: Path, spill: BinaryIO) -> None:
    """Copy the tag rows spilled during the run into ``path``."""
    spill.seek(0)
    with open(path, "wb") as fh:
        shutil.copyfileobj(spill, fh)


def write_json(path: Path, data: dict) -> None:
    """summary.json or a wordcloud file, ending in a newline."""
    with _open_out(path) as fh:
        json.dump(data, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _check_tags_path(config: AnalyzeConfig) -> None:
    """Refuse a tags path that names an output or an input of the run, a
    directory, or a file in a missing directory other than ``out_dir``."""
    tags = Path(config.emit_tags).resolve()
    out_dir = Path(config.out_dir).resolve()
    taken = [out_dir / name for name in _OUTPUT_NAMES]
    taken += [Path(p).resolve()
              for p in (config.input_path, config.lexicon_path,
                        config.stopwords_path, config.gazetteer_path)
              if p is not None and p != "-"]
    if tags in taken:
        raise TweetlexError(f"--emit-tags {config.emit_tags} would "
                            f"overwrite another file of the run")
    if tags == out_dir or tags.is_dir() or \
            not (tags.parent == out_dir or tags.parent.is_dir()):
        raise TweetlexError(f"--emit-tags {config.emit_tags} is not a file "
                            f"in an existing directory or in --out")


def run_analyze(config: AnalyzeConfig) -> RunResult:
    """Full corpus run; writes files only after all checks pass.

    With emit_tags, tag rows stream through an anonymous temporary file
    (in tempfile's directory, TMPDIR) and are copied out at the end.
    """
    if config.oracle and config.input_path == "-":
        raise TweetlexError("--oracle needs a file input, not stdin")
    if config.mention is not None and not is_mention_key(config.mention):
        raise TweetlexError(
            f"a mention handle is lowercase ASCII letters, digits and "
            f"underscores, got {config.mention!r}")
    if config.emit_tags is not None:
        _check_tags_path(config)
    out_dir = Path(config.out_dir)
    # A file on the --out path would stop mkdir only after the whole run.
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(errno.ENOTDIR,
                                     os.strerror(errno.ENOTDIR), str(path))
    reader = RecordReader(config.input_path, config.fmt,
                          default_tz=config.default_tz,
                          date_from=config.date_from,
                          date_to=config.date_to)
    masks = load_lexicon(config.lexicon_path)
    stopwords = load_stopwords(config.stopwords_path
                               or default_stopwords_path())
    rules = load_gazetteer(config.gazetteer_path or default_gazetteer_path())
    initargs = (masks, stopwords, rules, config.emit_tags is not None,
                config.mention)
    with (tempfile.TemporaryFile() if config.emit_tags is not None
          else nullcontext()) as spill:
        part = _run_chunks(reader, initargs, config.workers, spill)
        summary, tables = _outputs(config, reader.stats, part, masks)
        if config.oracle:
            _check_oracle(config, reader.stats, summary, part,
                          stopwords, rules)
            summary["oracle_check"] = "ok"

        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = [(out_dir / name, writer, data)
                   for name, writer, data in tables]
        if spill is not None:
            outputs.append((Path(config.emit_tags), write_spilled_tags, spill))
        outputs.append((out_dir / "summary.json", write_json, summary))
        for path, writer, data in outputs:
            writer(path, data)
    return RunResult(summary, part, out_dir,
                     [path for path, _writer, _data in outputs])


def run_subcorpus(config: AnalyzeConfig) -> RunResult:
    """Analyze only the tweets mentioning config.mention; writes the
    daily table and a subcorpus-shaped summary."""
    if config.mention is None:
        raise TweetlexError("subcorpus runs need a mention handle")
    return run_analyze(config)
