"""End-to-end corpus runs: chunked processing, merging, and file emission.

A run streams admitted records in chunks of 1024 through a worker function,
merges the per-chunk partial aggregates in chunk order, and only then writes
output files.  n workers are n processes, capped at the usable CPUs: the
main process and n - 1 helper processes, so with one worker, or one usable
CPU, every chunk runs in the main process.  The main process reads the
corpus and sends each chunk over its own pipe to the helper with the fewest
chunks in flight, unless every helper already has two; then it works on
the chunk itself.  One queue holds every chunk not yet merged, in chunk
order, each as its result or as the helper working on it; finished chunks
merge off its front.  A chunk carries each record's local day and hour as
ints, not its datetime.  A chunk's result is its partial aggregate and,
beside it, its per-tweet tag rows, which are not held: the main process
appends them to an anonymous temporary file as it merges the chunk, and
copies that file out with the others.  The helper code, the
``multiprocessing`` package and what ``_work`` imports, is imported only
when a run starts a helper, and ``tweetlex.reference`` only when a run
checks itself against it (``oracle``): the module attribute
``multiprocessing`` is None until then.  Given the same inputs and
configuration, every output file is byte-identical run to run, whatever the
worker count: chunk order is fixed by the corpus, results merge in chunk
order, and all emission is sorted with "\n" line endings and a fixed JSON
key layout.

Wall-clock timing never goes into summary.json (that would break the
byte-identical contract); the CLI reports it on stderr.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import shutil
import tempfile
from collections import deque
from contextlib import nullcontext
from datetime import date, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .entities import FrequencyTable
from .errors import OracleMismatchError, TweetlexError
from .ingest import IST, ReadStats, Record, RecordReader
from .lexicon import Category, load_lexicon
from .preprocess import (default_stopwords_path, is_mention_key,
                         load_stopwords, preprocess)
from .spatial import (FOREIGN, INDIA_TOTAL, INDIA_UNSPECIFIED, TOTAL, UNKNOWN,
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

# regions.csv label columns: the sentiment labels, then the emotion labels
# without neutral, which are the first len(_REGION_COLS) slots of a label row.
_REGION_COLS = SENTIMENT_LABELS + EMOTION_LABELS[:EMOTION_NEUTRAL]


class AnalyzeConfig(NamedTuple):
    """Everything one run needs; paths may be str or Path.  A named tuple:
    ``config._replace(workers=2)`` makes a changed copy."""

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


class _Partial:
    """Mergeable aggregates of one chunk of records, or of every chunk
    merged so far: only what ``merge`` adds.  A chunk's tag rows travel
    beside its partial (see ``_process_chunk``)."""

    def __init__(self) -> None:
        self.day = DayBuckets()
        self.hours = HourBuckets()
        self.mentions = FrequencyTable()
        self.hashtags = FrequencyTable()
        self.regions = RegionAggregate()
        self.matched = 0
        self.blanks = 0
        self.ties = 0
        self.non_latin = 0

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

#: The module ``_run_chunks`` makes helper processes and pipes through:
#: None until a run first starts a helper, which then imports
#: ``multiprocessing`` here, so a run that starts none never loads it.  A
#: caller may put a start-method context here.
multiprocessing = None

#: Finished chunk results the queue may hold behind an unfinished front
#: before the main process, about to work on a chunk itself, first waits
#: for the front: so a stalled helper holds back at most this many results
#: (each a partial and its tag rows), not the rest of the corpus.
_MAX_HELD = 16


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
                   mention: str | None) -> tuple[_Partial, list[tuple]]:
    """Tag and aggregate one chunk of ``_iter_chunks``: its partial, and
    with ``emit_tags`` its tag rows for ``write_tags_jsonl``, (id, vector,
    sentiment, emotion, overall, tied) per tagged tweet in chunk order."""
    if mention is not None:
        at_handle = "@" + mention
        records = [record for record in records
                   if _may_mention(record[3], at_handle)]

    part, tag_rows = _Partial(), []
    region_of: dict = {}  # raw location -> region, for this chunk only
    # The benchmark's tracer counts each call of preprocess, tag_tweet and
    # the three add methods, so they are called here, not inlined, until
    # the package keeps its own stage clock (ROADMAP items 2b and 13).
    for rec_id, day, hour, text, location in records:
        clean = preprocess(text, stopwords)
        if mention is not None and mention not in clean.mentions:
            continue
        part.matched += 1
        if clean.mentions:
            part.mentions.update(clean.mentions)
        if clean.hashtags:
            part.hashtags.update(clean.hashtags)
        if not clean.tokens:
            part.blanks += 1
            continue
        if not text.isascii():  # an ASCII text has only ASCII tokens
            part.non_latin += sum(not t.isascii() for t in clean.tokens)
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
            tag_rows.append((rec_id, vector, s, e, o, tied))
    return part, tag_rows


def _iter_chunks(records: Iterable[Record]) -> Iterator[list[tuple]]:
    """Chunks of CHUNK_SIZE records, each record as (id, local day ordinal,
    local hour, text, location): ints pickle far cheaper than datetimes."""
    records = iter(records)
    while chunk := [(rec_id, when.toordinal(), when.hour, text, location)
                    for rec_id, when, text, location
                    in itertools.islice(records, CHUNK_SIZE)]:
        yield chunk
        del chunk  # so the next chunk is read with this one freed


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
    import pickle
    import queue
    import threading

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
    chunk to the helper with the fewest chunks in flight if that is fewer
    than _IN_FLIGHT, and otherwise works on the chunk itself; then it
    merges the finished chunks at the front of the queue.  Before working
    on a chunk itself, it receives from the helper at the front, waiting
    if need be, until fewer than _MAX_HELD finished results are queued
    behind the front; chunks in flight do not count.

    The queue holds every chunk not yet merged, in chunk order: a finished
    chunk's result, or the index of the helper the chunk went to.  A
    helper sends its results in the order it took its chunks, so each one
    it sends replaces its first entry in the queue, and its entries left
    there are its chunks in flight.  At the end of the corpus this process
    receives from the helper at the front until the queue is empty.

    Helper processes and pipes are made only through the module attribute
    ``multiprocessing``, so a caller may put a start-method context there.
    While it is None, as on import, the first call that will start a
    helper imports the ``multiprocessing`` package into it; a call that
    starts none leaves it None.  Every helper is stopped and joined before
    this returns or raises; a helper's exception is raised again here as
    itself.
    """
    global multiprocessing
    total = _Partial()
    pending: deque = deque()  # (part, tag rows) or a helper index per chunk
    procs, conns = [], []  # per helper: its process and this end of its pipe

    def merge_ready() -> None:
        while pending and not isinstance(pending[0], int):
            part, tag_rows = pending.popleft()
            if spill is not None:
                write_tags_jsonl(spill, tag_rows)
            total.merge(part)

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
        while h in pending:
            receive(h)
        raise _worker_died(procs[h])

    def receive(h: int) -> None:
        try:
            result = conns[h].recv()
        except (EOFError, OSError):
            raise _worker_died(procs[h]) from None
        if isinstance(result, BaseException):
            raise result
        pending[pending.index(h)] = result

    # Processes beyond the CPUs this one may run on only add start-up cost.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    helpers = min(workers, cpus) - 1
    if helpers and multiprocessing is None:
        import multiprocessing
    try:
        for _ in range(helpers):
            conn, child = multiprocessing.Pipe()
            conns.append(conn)
            with child:
                proc = multiprocessing.Process(
                    target=_work, args=(child, conn, state), daemon=True)
                proc.start()
            procs.append(proc)
        for chunk in _iter_chunks(reader):
            for h, conn in enumerate(conns):
                while h in pending and conn.poll():
                    receive(h)
            h = min(range(len(conns)), key=pending.count, default=None)
            if h is not None and pending.count(h) < _IN_FLIGHT:
                send(h, chunk)
                pending.append(h)
            else:
                merge_ready()  # a result just received may be the front's
                while sum(not isinstance(entry, int)
                          for entry in pending) >= _MAX_HELD:
                    receive(pending[0])
                    merge_ready()
                pending.append(_process_chunk(chunk, *state))
            merge_ready()
            del chunk  # so the next chunk is read with this one freed
        while pending:
            receive(pending[0])
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


class RunResult(NamedTuple):
    """In-memory view of a finished run, for callers and tests."""

    summary: dict
    part: _Partial
    out_dir: Path
    written: list[Path]


def _entity_summary(table: FrequencyTable) -> tuple[dict, Iterator, dict]:
    """A mention or hashtag table's summary figures, its ranked (key,
    count) rows, each made only as it is read, and its top 40."""
    ranking = table.ranking()
    top = dict(table.rows(ranking[:WORDCLOUD_TOP_N]))
    return {"distinct": table.distinct_keys,
            "total_occurrences": table.total_occurrences,
            "top40_subtotal": sum(top.values())}, table.rows(ranking), top


def _region_table(regions: RegionAggregate,
                  names: frozenset[str]) -> list[tuple[str, list[int]]]:
    """regions.csv's (name, label row) pairs in file order: every Indian
    region the gazetteer names, ``Rules.regions``, zero rows included
    (tweet count desc, then name by code point), INDIA_UNSPECIFIED, then
    the INDIA_TOTAL, FOREIGN and TOTAL rows."""
    rows, empty = regions.rows, [0] * len(DAY_ROW)
    india = sorted(((name, rows.get(name, empty)) for name in names),
                   key=lambda item: (-row_tweets(item[1]), item[0]))
    india.append((INDIA_UNSPECIFIED, rows.get(INDIA_UNSPECIFIED, empty)))
    india_total = sum_rows(row for _name, row in india)
    foreign = rows.get(FOREIGN, empty)
    return india + [(INDIA_TOTAL, india_total), (FOREIGN, foreign),
                    (TOTAL, sum_rows([india_total, foreign]))]


def _region_rows(table: list[tuple[str, list[int]]]) -> Iterator[tuple]:
    """regions.csv's rows, none when nothing was located: name, tweets, the
    _REGION_COLS counts and cum_share of each _region_table row.  cum_share
    accumulates tweets/located-total down the state rows through
    INDIA_UNSPECIFIED and FOREIGN; INDIA_TOTAL and TOTAL show their own."""
    grand, running = row_tweets(table[-1][1]), 0
    for name, row in table if grand else ():
        tweets = row_tweets(row)
        if name in (INDIA_TOTAL, TOTAL):
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
             masks: dict, spill: BinaryIO | None,
             rules: Rules) -> tuple[dict, list]:
    """The summary.json dict, and every file the run writes as (path,
    writer, data) triples in write order: the daily table, the other six
    tables unless on a subcorpus run, the tags file with emit_tags (a
    relative path lands in out_dir), and summary.json.  A CSV table's rows
    are generated only as write_csv writes them."""
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
    files = [_csv_table("daily.csv", ("date", "channel", "label", "count"),
                        _daily_cells(part.day))]
    if config.mention is not None:
        summary = {"mention": config.mention, **read,
                   "subcorpus_tweets": part.matched, **tagging,
                   "peak_hour_slot": peak_slot(part.hours),
                   "lexicon_entries": len(masks)}
    else:
        mention_summary, mentions, mention_top = _entity_summary(part.mentions)
        hashtag_summary, hashtags, hashtag_top = _entity_summary(part.hashtags)
        regions = _region_table(part.regions, rules.regions)
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
        files += [
            _csv_table("hourly.csv", ("slot", "count"), hours),
            _csv_table("mentions.csv", ("key", "count"), mentions),
            _csv_table("hashtags.csv", ("key", "count"), hashtags),
            _csv_table("regions.csv",
                       ("region", "tweets", *_REGION_COLS, "cum_share"),
                       _region_rows(regions)),
            ("wordcloud_mentions.json", write_json, mention_top),
            ("wordcloud_hashtags.json", write_json, hashtag_top),
        ]
    if config.emit_tags is not None:
        files.append((config.emit_tags, write_spilled_tags, spill))
    files.append(("summary.json", write_json, summary))
    out_dir = Path(config.out_dir)
    return summary, [(out_dir / name, writer, data)
                     for name, writer, data in files]


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


def _ranks(table: FrequencyTable) -> dict[str, tuple[int, int]]:
    """key -> (rank, count) over ``table.items_sorted()``: two rankings
    give equal dicts exactly when they are equal lists, and a difference
    names its keys."""
    return {key: (rank, count)
            for rank, (key, count) in enumerate(table.items_sorted())}


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
    from . import reference

    ref = reference.run_reference(
        config.input_path, config.fmt, config.lexicon_path,
        stopwords=stopwords, gazetteer=rules, default_tz=config.default_tz,
        date_from=config.date_from, date_to=config.date_to,
        mention_filter=config.mention)
    daily: dict[str, dict] = {channel: {} for channel in CHANNELS}
    for iso, channel, label, count in _daily_cells(part.day):
        if count:
            daily[channel].setdefault(iso, {})[label] = count
    # Each region's label counts as a tuple of channel dicts, which
    # _diff_dicts compares whole: a region that differs is one line.
    regions = {}
    for region, row in part.regions.rows.items():
        labels: dict[str, dict] = {channel: {} for channel in CHANNELS}
        for (channel, label), count in zip(DAY_ROW, row):
            if count:
                labels[channel][label] = count
        regions[region] = tuple(labels.values())
    mine = {"summary": summary, "daily": daily, "hourly": part.hours.slots,
            "mentions": _ranks(part.mentions),
            "hashtags": _ranks(part.hashtags),
            "regions": regions, "rejections": stats.diagnostics}
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


def _file_id(path) -> tuple[int, int] | None:
    """The device and inode of the file at ``path``, through any symlink or
    hard link, or None when there is no file to stat."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _check_outputs(config: AnalyzeConfig) -> None:
    """Refuse, before any input is read, a run that would overwrite one of
    its own files or could not write one.

    Every file ``_outputs`` lists is checked by its resolved path, as it
    will be once ``out_dir`` is made.  One that is an input of the run, by
    any path or link, or that resolves to an earlier file of the list, is
    a ``TweetlexError``.  An ``out_dir`` that is or passes through a file,
    a file that is an existing directory, ``out_dir`` or a directory above
    it, and a file whose directory is neither ``out_dir`` nor an existing
    directory are ``OSError``s, as ``mkdir`` or ``open`` would raise them
    after the whole run.
    """
    out_dir = Path(config.out_dir)
    inputs = {_file_id(p)
              for p in (config.input_path, config.lexicon_path,
                        config.stopwords_path, config.gazetteer_path)
              if p is not None and p != "-"} - {None}
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(errno.ENOTDIR,
                                     os.strerror(errno.ENOTDIR), str(path))
    resolved_out = out_dir.resolve()
    _summary, outputs = _outputs(config, ReadStats(), _Partial(), {}, None,
                                 Rules(()))
    seen = set()
    for path, _writer, _data in outputs:
        resolved = path.resolve()
        if _file_id(resolved) in inputs:
            raise TweetlexError(f"output {path} would overwrite an input "
                                f"of the run")
        if resolved in seen:
            raise TweetlexError(f"output {path} would overwrite another "
                                f"output of the run")
        seen.add(resolved)
        if resolved.is_dir() or resolved == resolved_out or \
                resolved in resolved_out.parents:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    str(path))
        if not (resolved.parent == resolved_out or resolved.parent.is_dir()):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    str(path))


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
    _check_outputs(config)
    out_dir = Path(config.out_dir)
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
        summary, outputs = _outputs(config, reader.stats, part, masks, spill,
                                    rules)
        if config.oracle:
            _check_oracle(config, reader.stats, summary, part,
                          stopwords, rules)
            summary["oracle_check"] = "ok"

        out_dir.mkdir(parents=True, exist_ok=True)
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
