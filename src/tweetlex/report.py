"""End-to-end corpus runs: chunked processing, merging, and file emission.

A run streams admitted records in chunks of 1024 through a worker function,
merges the per-chunk partial aggregates in chunk order, and only then writes
output files.  n workers are n processes, capped at the usable CPUs: the
main process and n - 1 helper processes, so with one worker, or one usable
CPU, every chunk runs in the main process.  The main process reads the
corpus and sends each chunk over its own pipe to the helper with the fewest
chunks queued, unless every helper already has two; then it works on the
chunk itself.  It takes the results back in chunk order, holding any that
come early.  A chunk carries each record's local day and hour as ints, not
its datetime.  Per-tweet tag rows are not held: the main process appends
each chunk's rows to an anonymous temporary file as it takes the chunk, and
copies that file out with the others.  Given the same inputs and
configuration, every output file is byte-identical run to run, whatever the
worker count: chunk order is fixed by the corpus, results are taken in chunk
order, and all emission is sorted with "\n" line endings and a fixed JSON
key layout.

Wall-clock timing never goes into summary.json (that would break the
byte-identical contract); the CLI reports it on stderr.
"""

from __future__ import annotations

import errno
import itertools
import json
import multiprocessing
import os
import pickle
import queue
import shutil
import tempfile
import threading
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
    #: Processes that work on chunks, this one included, capped at the
    #: usable CPUs; see _run_chunks.
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


#: Chunks sent to a helper and not yet taken back: one to work on and one
#: waiting, so a helper need not idle while the main process reads, merges
#: or works on a chunk.  When every helper has this many, the main process
#: works on the next chunk itself.
_IN_FLIGHT = 2


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


def _process_chunk(records: list[tuple], masks: dict[str, int],
                   stopwords: frozenset[str], rules: Rules, emit_tags: bool,
                   mention: str | None) -> _Partial:
    """Tag and aggregate one chunk of ``_iter_chunks``."""
    if mention is not None:
        at_handle = "@" + mention
        records = [record for record in records
                   if _may_mention(record[3], at_handle)]

    part = _Partial()
    region_of: dict = {}  # raw location -> region, for this chunk only
    for rec_id, day, hour, text, location in records:
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
        part.day.add(tag, day)
        part.hours.add(hour)
        region = region_of.get(location)
        if region is None:
            region = region_of[location] = resolve_location(location, rules)
        if region != UNKNOWN:
            part.regions.add(tag, region)
        if emit_tags:
            part.tag_rows.append((rec_id, vector, s, e, o, tied))
    return part


def _iter_chunks(records: Iterable[Record]) -> Iterator[list[tuple]]:
    """Chunks of CHUNK_SIZE records, each record as (id, local day ordinal,
    local hour, text, location): ints pickle far cheaper than datetimes."""
    records = iter(records)
    while chunk := [(rec_id, when.toordinal(), when.hour, text, location)
                    for rec_id, when, text, location
                    in itertools.islice(records, CHUNK_SIZE)]:
        yield chunk


def _work(conn, main_end, state: tuple) -> None:
    """A helper process: send back over ``conn`` the ``_process_chunk`` of
    each chunk that arrives on it, with the run's ``state``, in order,
    until None arrives.  An exception is sent back in place of a result and
    ends the helper.  The state comes in the start arguments, so it reaches
    the helper under every start method: fork, spawn and forkserver.

    ``main_end``, the main process's end of the pipe, is closed at once:
    a forked helper inherits it, and while it is open here the helper
    would never see the end of the pipe if the main process died.  A
    thread sends the pickled results, so this process goes on taking
    chunks off ``conn`` while a result waits to be read.  Otherwise a chunk
    and a result that each overflow the pipe's buffer would block both
    ends at once: the main thread sending the chunk, this process sending
    the result that the main thread is yet to read.
    """
    main_end.close()
    results: queue.SimpleQueue = queue.SimpleQueue()

    def deliver() -> None:
        while (result := results.get()) is not None:
            conn.send_bytes(result)

    sender = threading.Thread(target=deliver)
    sender.start()
    try:
        while (chunk := conn.recv()) is not None:
            results.put(pickle.dumps(_process_chunk(chunk, *state),
                                     pickle.HIGHEST_PROTOCOL))
    except EOFError:  # the main process is gone
        pass
    except Exception as exc:
        results.put(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    finally:
        results.put(None)
        sender.join()


def _worker_died(worker) -> TweetlexError:
    """Join ``worker``, whose pipe broke, and name its exit code."""
    worker.join()
    return TweetlexError(f"a worker process exited with code "
                         f"{worker.exitcode} before the run was done")


def _run_chunks(reader: RecordReader, state: tuple, workers: int,
                spill: BinaryIO | None) -> _Partial:
    """Process and merge every chunk in corpus order, each with the
    ``_process_chunk`` arguments ``state``; with a ``spill`` file, append
    each chunk's tag rows to it before the merge.

    ``workers`` processes do the work, capped at the CPUs this one may run
    on: this process and one helper process fewer than that, so with one
    worker or one usable CPU no helper starts.  For each chunk it reads,
    this process first receives the results that are ready, then sends the
    chunk to the helper with the fewest chunks queued if that is fewer than
    _IN_FLIGHT, and otherwise works on the chunk itself; then it merges
    what it can in chunk order.  A result that comes before an earlier
    chunk's waits in ``done`` until that one is merged.

    Helper processes and pipes are made only through the module attribute
    ``multiprocessing``, so a caller may put a start-method context there.
    Every helper is stopped and joined before this returns or raises; a
    helper's exception is raised again here as itself.
    """
    total = _Partial()
    done: dict[int, _Partial] = {}  # results not yet merged, by chunk index
    merged = 0  # chunks merged so far

    def merge_ready() -> None:
        nonlocal merged
        while merged in done:
            part = done.pop(merged)
            if spill is not None:
                write_tags_jsonl(spill, part.tag_rows)
            total.merge(part)
            merged += 1

    # Per helper: its process, the main process's end of its pipe, and the
    # indices of the chunks sent to it and not yet received, oldest first.
    procs, conns, queued = [], [], []

    def send(h: int, chunk) -> None:
        try:
            conns[h].send(chunk)
            return
        except OSError:
            pass
        # The pipe broke: the helper is gone, and if it ended on an
        # exception, it sent that back first.  This runs outside the except
        # block, so no exception raised here holds the failed send's frames:
        # freed in a reference cycle, the pickle buffer they hold raises
        # BufferError.
        while queued[h]:
            receive(h)
        raise _worker_died(procs[h])

    def receive(h: int) -> None:
        try:
            result = conns[h].recv()
        except (EOFError, OSError):
            raise _worker_died(procs[h]) from None
        if isinstance(result, BaseException):
            raise result
        done[queued[h].pop(0)] = result

    # Processes beyond the CPUs this one may run on only add start-up cost.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        for _ in range(min(workers, cpus) - 1):
            conn, child = multiprocessing.Pipe()
            conns.append(conn)
            with child:
                proc = multiprocessing.Process(
                    target=_work, args=(child, conn, state), daemon=True)
                proc.start()
            procs.append(proc)
            queued.append([])
        for k, chunk in enumerate(_iter_chunks(reader)):
            for h, conn in enumerate(conns):
                while queued[h] and conn.poll():
                    receive(h)
            h = min(range(len(queued)), key=lambda h: len(queued[h]),
                    default=None)
            if h is not None and len(queued[h]) < _IN_FLIGHT:
                send(h, chunk)
                queued[h].append(k)
            else:
                done[k] = _process_chunk(chunk, *state)
            merge_ready()
        while any(queued):
            receive(next(h for h, chunks in enumerate(queued)
                         if chunks and chunks[0] == merged))
            merge_ready()
        for h in range(len(procs)):
            send(h, None)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
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


def _region_rows(table: list[tuple[str, list[int]]]) -> Iterator[tuple]:
    """regions.csv's rows, none when nothing was located: name, tweets, the
    _REGION_COLS counts and cum_share of each _region_table row.  cum_share
    accumulates tweets/located-total down the state rows through
    INDIA_UNSPECIFIED and FOREIGN; INDIA_TOTAL and TOTAL show their own."""
    grand, running = row_tweets(table[-1][1]), 0
    for name, row in table if grand else ():
        tweets = row_tweets(row)
        if name in ("INDIA_TOTAL", "TOTAL"):
            share = tweets
        else:
            running += tweets
            share = running
        yield (name, tweets, *row[:len(_REGION_COLS)], f"{share / grand:.6f}")


def _daily_cells(day: DayBuckets) -> Iterator[tuple[str, str, str, int]]:
    """daily.csv's (ISO date, channel, label, count) cells in file order:
    by date, then in DAY_ROW order, zeros included."""
    for when, row in day.rows.items():
        iso = when.isoformat()
        for (channel, label), count in zip(DAY_ROW, row):
            yield iso, channel, label, count


def _csv_table(name: str, header: tuple, rows: Iterable[tuple]) -> tuple:
    """An ``_outputs`` triple: ``rows`` to write_csv, ``header`` first."""
    return name, write_csv, itertools.chain([header], rows)


def _outputs(config: AnalyzeConfig, stats: ReadStats, part: _Partial,
             masks: dict) -> tuple[dict, list]:
    """The summary.json dict, and the run's tables as (file name, writer,
    data) triples in write order: the daily table alone on a subcorpus
    run, all seven tables otherwise.  A CSV table's rows are generated
    only as write_csv writes them."""
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
    tables = [_csv_table("daily.csv", ("date", "channel", "label", "count"),
                         _daily_cells(part.day))]
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
    hours = enumerate(part.hours.slots) if part.hours.total else ()
    return summary, tables + [
        _csv_table("hourly.csv", ("slot", "count"), hours),
        _csv_table("mentions.csv", ("key", "count"), mentions),
        _csv_table("hashtags.csv", ("key", "count"), hashtags),
        _csv_table("regions.csv",
                   ("region", "tweets", *_REGION_COLS, "cum_share"),
                   _region_rows(regions)),
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


def write_csv(path: Path, rows: Iterable[tuple]) -> None:
    """A CSV file of ``rows``, the first one its header: each row's fields
    as ``str``, joined by commas, one line each, written one at a time.
    No field is quoted: no key, label or figure holds a comma or line end."""
    rows = iter(rows)
    header = next(rows)
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line % header)
        fh.writelines(map(line.__mod__, rows))


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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
    state = (masks, stopwords, rules, config.emit_tags is not None,
             config.mention)
    with (tempfile.TemporaryFile() if config.emit_tags is not None
          else nullcontext()) as spill:
        part = _run_chunks(reader, state, config.workers, spill)
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
