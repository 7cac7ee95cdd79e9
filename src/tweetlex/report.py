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

import json
import multiprocessing
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import date, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from . import reference
from .entities import FrequencyTable, count_entities
from .errors import OracleMismatchError, TweetlexError
from .ingest import IST, RecordReader, TweetRecord
from .lexicon import Category, Lexicon, load_lexicon
from .preprocess import (count_non_ascii_tokens, default_stopwords_path,
                         load_stopwords, preprocess)
from .spatial import (FOREIGN, INDIA_UNSPECIFIED, INDIAN_REGIONS, UNKNOWN,
                      Gazetteer, RegionAggregate, RegionStats,
                      default_gazetteer_path, load_gazetteer,
                      resolve_location)
from .tagger import (EMOTION_LABELS, EMOTION_NEUTRAL, OVERALL_LABELS,
                     OVERALL_NEUTRAL, SENTIMENT_LABELS, SENTIMENT_NEUTRAL,
                     tag_tweet)
from .temporal import CHANNELS, DAY_ROW, DayBuckets, HourBuckets, peak_slot

CHUNK_SIZE = 1024

WORDCLOUD_TOP_N = 40

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

# regions.csv label columns: the sentiment labels, then the emotion labels
# without neutral.
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
    unknown_locations: int = 0
    matched: int = 0
    blanks: int = 0
    tagged: int = 0
    neutral: dict = field(default_factory=lambda: {c: 0 for c in CHANNELS})
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
        self.unknown_locations += other.unknown_locations
        self.matched += other.matched
        self.blanks += other.blanks
        self.tagged += other.tagged
        for channel in CHANNELS:
            self.neutral[channel] += other.neutral[channel]
        self.ties += other.ties
        self.non_latin += other.non_latin
        return self


# Worker-process state, set once per worker by _init_worker.  With the
# default fork start this is cheap; initargs keep it correct under spawn.
_G: dict = {}


def _init_worker(lex: Lexicon, stopwords: frozenset[str], gz: Gazetteer,
                 default_tz: timezone, emit_tags: bool,
                 mention: str | None) -> None:
    _G["lex"] = lex
    _G["stopwords"] = stopwords
    _G["gz"] = gz
    # raw location -> region under gz.  Made afresh with gz, so it never
    # outlives the run (or the gazetteer) it was filled by.
    _G["regions"] = {}
    _G["tz"] = default_tz
    _G["emit_tags"] = emit_tags
    _G["mention"] = mention


def _process_chunk(records: list[TweetRecord]) -> _Partial:
    lex: Lexicon = _G["lex"]
    stopwords = _G["stopwords"]
    gz: Gazetteer = _G["gz"]
    region_of: dict = _G["regions"]
    tz = _G["tz"]
    emit_tags = _G["emit_tags"]
    mention = _G["mention"]

    part = _Partial()
    for record in records:
        clean = preprocess(record, stopwords)
        if mention is not None and mention not in clean.mentions:
            continue
        part.matched += 1
        count_entities(clean, part.mentions, part.hashtags)
        if not clean.tokens:
            part.blanks += 1
            continue
        part.tagged += 1
        part.non_latin += count_non_ascii_tokens(clean.tokens)
        tag = tag_tweet(clean, lex)
        vector, s, e, o, tied = tag
        if s == SENTIMENT_NEUTRAL:
            part.neutral["sentiment"] += 1
        if e == EMOTION_NEUTRAL:
            part.neutral["emotion"] += 1
        if o == OVERALL_NEUTRAL:
            part.neutral["overall"] += 1
        if tied:
            part.ties += 1
        local = record.timestamp.astimezone(tz)
        part.day.add(tag, local)
        part.hours.add(local)
        raw_location = record.user_location
        region = region_of.get(raw_location)
        if region is None:
            region = region_of[raw_location] = resolve_location(raw_location,
                                                                gz)
        if region == UNKNOWN:
            part.unknown_locations += 1
        else:
            part.regions.add(tag, region)
        if emit_tags:
            part.tag_rows.append((record.id, vector, s, e, o, tied))
    return part


def _iter_chunks(records: Iterable[TweetRecord],
                 size: int = CHUNK_SIZE) -> Iterator[list[TweetRecord]]:
    chunk: list[TweetRecord] = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
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
    with multiprocessing.Pool(workers, initializer=_init_worker,
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


def _load_inputs(config: AnalyzeConfig):
    lex = load_lexicon(config.lexicon_path)
    stopwords = load_stopwords(config.stopwords_path
                               or default_stopwords_path())
    gz = load_gazetteer(config.gazetteer_path or default_gazetteer_path())
    return lex, stopwords, gz


def _build_summary(config: AnalyzeConfig, reader: RecordReader,
                   part: _Partial, lex: Lexicon, mentions: list | None,
                   hashtags: list | None) -> dict:
    """The summary.json dict; ``mentions`` and ``hashtags`` are the sorted
    tables, None on a subcorpus run."""
    stats = reader.stats
    peak = peak_slot(part.hours)
    if config.mention is not None:
        return {
            "mention": config.mention,
            "records_read": stats.lines,
            "records_rejected": stats.skipped_total,
            "rejected_reasons": dict(sorted(stats.skipped.items())),
            "subcorpus_tweets": part.matched,
            "blanks_dropped": part.blanks,
            "tweets_tagged": part.tagged,
            "neutral_counts": dict(part.neutral),
            "tie_count": part.ties,
            "peak_hour_slot": peak,
            "lexicon_entries": lex.entry_count,
        }
    return {
        "records_read": stats.lines,
        "records_rejected": stats.skipped_total,
        "rejected_reasons": dict(sorted(stats.skipped.items())),
        "blanks_dropped": part.blanks,
        "tweets_tagged": part.tagged,
        "neutral_counts": dict(part.neutral),
        "tie_count": part.ties,
        "non_latin_token_tally": part.non_latin,
        "peak_hour_slot": peak,
        "mentions": {
            "distinct": part.mentions.distinct_keys,
            "total_occurrences": part.mentions.total_occurrences,
            "top40_subtotal": sum(c for _k, c in
                                  mentions[:WORDCLOUD_TOP_N]),
        },
        "hashtags": {
            "distinct": part.hashtags.distinct_keys,
            "total_occurrences": part.hashtags.total_occurrences,
            "top40_subtotal": sum(c for _k, c in
                                  hashtags[:WORDCLOUD_TOP_N]),
        },
        "locations": {
            "located": part.regions.grand_total(),
            "unknown": part.unknown_locations,
            "india_total": part.regions.india_total(),
            "foreign": part.regions.count(FOREIGN),
        },
        "lexicon_entries": lex.entry_count,
    }


def _diff_dicts(prefix: str, mine, ref, out: list[str]) -> None:
    if isinstance(mine, dict) and isinstance(ref, dict):
        for key in sorted(set(mine) | set(ref), key=str):
            _diff_dicts(f"{prefix}{key}.", mine.get(key), ref.get(key), out)
    elif mine != ref:
        out.append(f"{prefix[:-1]}: pipeline={mine!r} reference={ref!r}")


def _check_oracle(config: AnalyzeConfig, summary: dict,
                  part: _Partial, stopwords: frozenset[str],
                  gz: Gazetteer) -> None:
    """Recompute the run through tweetlex.reference and compare.

    Raises OracleMismatchError listing every differing figure.  The
    reference makes its own pass over the input, so run_analyze admits an
    oracle run only on a file input.
    """
    ref = reference.run_reference(
        config.input_path, config.fmt, config.lexicon_path,
        stopwords=stopwords, gazetteer=gz, default_tz=config.default_tz,
        date_from=config.date_from, date_to=config.date_to,
        mention_filter=config.mention)
    mine_daily: dict[str, dict] = {channel: {} for channel in CHANNELS}
    for day, row in part.day.rows.items():
        for (channel, label), count in zip(DAY_ROW, row):
            if count:
                mine_daily[channel].setdefault(day.isoformat(), {})[label] = count
    diffs: list[str] = []
    _diff_dicts("summary.", summary, ref["summary"], diffs)
    _diff_dicts("daily.", mine_daily, ref["daily"], diffs)
    for slot in range(24):
        if part.hours.slots[slot] != ref["hourly"][slot]:
            diffs.append(f"hourly.{slot}: pipeline={part.hours.slots[slot]}"
                         f" reference={ref['hourly'][slot]}")
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
        for when in day.dates():
            iso = when.isoformat()
            for (channel, label), count in zip(DAY_ROW, day.rows[when]):
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


def _region_csv_row(name: str, stats: RegionStats, share: str) -> str:
    counts = stats.sentiment + stats.emotion[:EMOTION_NEUTRAL]
    return ",".join([name, str(stats.tweets), *map(str, counts), share]) + "\n"


def write_regions_csv(path: Path, regions: RegionAggregate) -> None:
    """Region table: all Indian regions (tweet count desc, then name),
    then INDIA_UNSPECIFIED, the INDIA_TOTAL and FOREIGN rows, and TOTAL.

    cum_share accumulates tweets/located-total down the state rows through
    INDIA_UNSPECIFIED and FOREIGN; the derived INDIA_TOTAL and TOTAL rows
    show their own share instead.  Header only when nothing was located.
    """
    with _open_out(path) as fh:
        fh.write(",".join(("region", "tweets", *_REGION_COLS, "cum_share"))
                 + "\n")
        grand = regions.grand_total()
        if grand == 0:
            return
        empty = RegionStats()
        states = sorted(INDIAN_REGIONS,
                        key=lambda name: (-regions.count(name), name))
        running = 0
        india = RegionStats()
        total = RegionStats()
        for name in states:
            stats = regions.regions.get(name, empty)
            running += stats.tweets
            india.merge(stats)
            fh.write(_region_csv_row(name, stats, f"{running / grand:.6f}"))
        unspec = regions.regions.get(INDIA_UNSPECIFIED, empty)
        running += unspec.tweets
        india.merge(unspec)
        fh.write(_region_csv_row(INDIA_UNSPECIFIED, unspec,
                                 f"{running / grand:.6f}"))
        total.merge(india)
        fh.write(_region_csv_row("INDIA_TOTAL", india,
                                 f"{india.tweets / grand:.6f}"))
        foreign = regions.regions.get(FOREIGN, empty)
        running += foreign.tweets
        total.merge(foreign)
        fh.write(_region_csv_row(FOREIGN, foreign, f"{running / grand:.6f}"))
        fh.write(_region_csv_row("TOTAL", total, f"{grand / grand:.6f}"))


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


def write_wordcloud_json(path: Path, ranked: list[tuple[str, int]]) -> None:
    """key -> count mapping for the top 40 keys of a table's items_sorted()
    list, in rank order, ready to feed a wordcloud renderer."""
    with _open_out(path) as fh:
        json.dump(dict(ranked[:WORDCLOUD_TOP_N]), fh,
                  ensure_ascii=False, indent=2)
        fh.write("\n")


def write_summary_json(path: Path, summary: dict) -> None:
    with _open_out(path) as fh:
        json.dump(summary, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def run_analyze(config: AnalyzeConfig) -> RunResult:
    """Full corpus run; writes files only after all checks pass.

    With emit_tags, tag rows stream through an anonymous temporary file
    (in tempfile's directory, TMPDIR) and are copied out at the end.
    """
    if config.oracle and config.input_path == "-":
        raise TweetlexError("--oracle needs a file input, not stdin")
    lex, stopwords, gz = _load_inputs(config)
    reader = RecordReader(config.input_path, config.fmt,
                          default_tz=config.default_tz,
                          date_from=config.date_from,
                          date_to=config.date_to)
    initargs = (lex, stopwords, gz, config.default_tz,
                config.emit_tags is not None, config.mention)
    with (tempfile.TemporaryFile() if config.emit_tags is not None
          else nullcontext()) as spill:
        part = _run_chunks(reader, initargs, config.workers, spill)
        mentions = hashtags = None
        if config.mention is None:
            mentions = part.mentions.items_sorted()
            hashtags = part.hashtags.items_sorted()
        summary = _build_summary(config, reader, part, lex, mentions,
                                 hashtags)
        if config.oracle:
            _check_oracle(config, summary, part, stopwords, gz)
            summary["oracle_check"] = "ok"

        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []

        def emit(name: str, writer, *args) -> None:
            path = out_dir / name
            writer(path, *args)
            written.append(path)

        emit("daily.csv", write_daily_csv, part.day)
        if config.mention is None:
            emit("hourly.csv", write_hourly_csv, part.hours)
            emit("mentions.csv", write_freq_csv, mentions)
            emit("hashtags.csv", write_freq_csv, hashtags)
            emit("regions.csv", write_regions_csv, part.regions)
            emit("wordcloud_mentions.json", write_wordcloud_json, mentions)
            emit("wordcloud_hashtags.json", write_wordcloud_json, hashtags)
        if spill is not None:
            tags_path = Path(config.emit_tags)
            write_spilled_tags(tags_path, spill)
            written.append(tags_path)
        emit("summary.json", write_summary_json, summary)
    return RunResult(summary, part, out_dir, written)


def run_subcorpus(config: AnalyzeConfig) -> RunResult:
    """Analyze only the tweets mentioning config.mention; writes the
    daily table and a subcorpus-shaped summary."""
    if not config.mention:
        raise TweetlexError("subcorpus runs need a mention handle")
    return run_analyze(config)
