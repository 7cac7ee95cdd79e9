"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps, from outside the package, the public call sites that
tweetlex looks up at call time, records one span per call (id, parent span,
name, thread, start, end) in a list, and restores every original on
``uninstall``.  Nothing is written while the run is timed; spans are written
out once the run has finished.

Pool workers are forked after ``install``, so they inherit the wrappers,
but their spans are lost with them when the pool ends.  Under a pool the
figures therefore cover the main process only: its reads, merges and
emits, and none of the per-record layers the workers run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

READ = "ingest.read"


class Tracer:
    """Span recorder plus the per-call counts taken at the same wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.tokens = 0
        self.yielded = 0
        self.locations: set = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(args, result)`` runs
        after the span closes."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, ident(), t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_iter(self, name: str, iter_fn):
        """``__iter__`` whose every ``next`` step is one span ``name``."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        def traced_iter(obj):
            it = iter_fn(obj)
            try:
                while True:
                    stack = stack_of()
                    sid = next(ids)
                    parent = stack[-1] if stack else -1
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans.append((sid, parent, name, ident(), t0, t1))
                    self.yielded += 1
                    yield item
            finally:
                it.close()

        return traced_iter

    # -- installing ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` by ``wrapper(original)``; a class is read
        through its own ``__dict__`` so restoring leaves it unchanged."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> None:
        """Wrap every traced call site; span names are ``layer.function``."""
        from tweetlex import _kernels, reference, report
        from tweetlex.entities import FrequencyTable
        from tweetlex.ingest import RecordReader
        from tweetlex.spatial import RegionAggregate
        from tweetlex.temporal import DayBuckets, HourBuckets

        def count_tokens(_args, clean):
            self.tokens += len(clean.tokens)

        def note_location(args, _region):
            self.locations.add(args[0])

        sites = [
            (report, "load_lexicon", "lexicon.load_lexicon", None),
            (report, "load_stopwords", "preprocess.load_stopwords", None),
            (report, "load_gazetteer", "spatial.load_gazetteer", None),
            (report, "preprocess", "preprocess.preprocess", count_tokens),
            (report, "tag_tweet", "tagger.tag_tweet", None),
            (report, "resolve_location", "spatial.resolve_location",
             note_location),
            (_kernels, "tokenize", "kernels.tokenize", None),
            (_kernels, "count_masks", "kernels.count_masks", None),
            (DayBuckets, "add", "temporal.DayBuckets.add", None),
            (DayBuckets, "merge", "temporal.DayBuckets.merge", None),
            (HourBuckets, "add", "temporal.HourBuckets.add", None),
            (HourBuckets, "merge", "temporal.HourBuckets.merge", None),
            (RegionAggregate, "add", "spatial.RegionAggregate.add", None),
            (RegionAggregate, "merge", "spatial.RegionAggregate.merge", None),
            (FrequencyTable, "update", "entities.FrequencyTable.update", None),
            (FrequencyTable, "merge", "entities.FrequencyTable.merge", None),
            (reference, "run_reference", "reference.run_reference", None),
        ]
        sites += [(report, attr, f"report.{attr}", None)
                  for attr in sorted(vars(report))
                  if attr.startswith("write_")]
        for owner, attr, name, observe in sites:
            self._patch(owner, attr,
                        functools.partial(self.wrap, name, observe=observe))
        self._patch(RecordReader, "__iter__",
                    functools.partial(self.wrap_iter, READ))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def export(self) -> dict:
        """Spans as ``[id, parent, name, main_thread, start, end]`` rows,
        plus the counts taken at the wrappers."""
        main = self._main
        return {
            "spans": [[sid, parent, name, tid == main, t0, t1]
                      for sid, parent, name, tid, t0, t1 in self.spans],
            "tokens": self.tokens,
            "yielded": self.yielded,
            "locations": sorted(self.locations, key=str),
        }


def _self_times(spans: list) -> list[float]:
    """Span duration minus the durations of its direct children."""
    child = {}
    for _sid, parent, _n, _m, t0, t1 in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return [t1 - t0 - child.get(sid, 0.0) for sid, _p, _n, _m, t0, t1 in spans]


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer figures of one traced run.

    ``trace`` is the exported trace of the process that called
    run_analyze.  Times are seconds summed over calls.
    """
    spans = trace["spans"]
    selfs = _self_times(spans)
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for row, self_s in zip(spans, selfs):
        name = row[2]
        dur[name] = dur.get(name, 0.0) + row[5] - row[4]
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1

    def total(*names):
        return sum(dur.get(n, 0.0) for n in names)

    main_self = sum(s for row, s in zip(spans, selfs) if row[3])
    main_roots = sum(row[5] - row[4] for row in spans
                     if row[3] and row[1] < 0)
    if abs(main_self - main_roots) > 1e-6:
        raise RuntimeError(
            f"spans do not nest: self {main_self} != roots {main_roots}")

    # Chunk phase: first record read to last merge in this process.  What
    # the process did not spend reading or merging there, it waited for
    # the chunk work (the pool's, or its own untraced loop code).
    reads = [row for row in spans if row[2] == READ]
    merges = [row for row in spans if row[2].endswith(".merge")]
    pool_wait = 0.0
    if reads and merges:
        start, end = reads[0][4], merges[-1][5]
        busy = sum(s for row, s in zip(spans, selfs)
                   if start <= row[4] and row[5] <= end)
        pool_wait = end - start - busy

    resolve_calls = calls.get("spatial.resolve_location", 0)
    distinct = len(trace["locations"])
    return {
        "ingest.read_s": dur.get(READ, 0.0),
        "ingest.yielded": trace["yielded"],
        "lexicon.load_s": dur.get("lexicon.load_lexicon", 0.0),
        "preprocess.self_s": own.get("preprocess.preprocess", 0.0),
        "preprocess.calls": calls.get("preprocess.preprocess", 0),
        "preprocess.tokens": trace["tokens"],
        "kernels.tokenize_s": dur.get("kernels.tokenize", 0.0),
        "kernels.count_masks_s": dur.get("kernels.count_masks", 0.0),
        "tagger.self_s": own.get("tagger.tag_tweet", 0.0),
        "tagger.calls": calls.get("tagger.tag_tweet", 0),
        "spatial.resolve_s": dur.get("spatial.resolve_location", 0.0),
        "spatial.calls": resolve_calls,
        "spatial.repeat_ratio": (1 - distinct / resolve_calls
                                 if resolve_calls else 0.0),
        "spatial.distinct_locations": distinct,
        "spatial.aggregate_s": dur.get("spatial.RegionAggregate.add", 0.0),
        "temporal.add_s": total("temporal.DayBuckets.add",
                                "temporal.HourBuckets.add"),
        "temporal.merge_s": total("temporal.DayBuckets.merge",
                                  "temporal.HourBuckets.merge"),
        "entities.update_s": dur.get("entities.FrequencyTable.update", 0.0),
        "report.emit_s": total(*(n for n in dur
                                 if n.startswith("report.write_"))),
        "report.pool_wait_s": pool_wait,
        "reference.run_s": dur.get("reference.run_reference", 0.0),
        "report.unattributed_s": wall_s - main_self,
    }
