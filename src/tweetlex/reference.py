"""Slow, obviously-correct reference pipeline used for verification.

Everything here is written from scratch as plain sequential Python: a
reader that runs every admission check in its plain order on a fully
parsed line, a character-walk tokenizer instead of the regex kernels, a
word -> label-set lexicon table instead of packed bitmasks, and flat dict
tallies instead of the mergeable aggregate classes.  ``--oracle``
runs a corpus through this module and, before any file is written,
compares with the optimized pipeline: every summary.json figure, the
daily label counts, the hourly slots, the mention and hashtag rankings
(each key's rank and count), each region's sentiment, emotion and overall
label counts, and the first MAX_DIAGNOSTICS rejections.  It does not
compare the tags.jsonl rows.

Only gazetteer *parsing* is shared with the main pipeline, on purpose;
rule matching is redone here.  From tweetlex.ingest this module reads two
constants of the input format, and no code.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timezone

from .errors import CorpusFormatError
from .ingest import CSV_HEADER, IST
from .spatial import FOREIGN, INDIA_UNSPECIFIED, UNKNOWN, Rules

SENTIMENT_ORDER = ("positive", "negative")
EMOTION_ORDER = ("joy", "trust", "anticipation", "surprise",
                 "fear", "sadness", "anger", "disgust")
OVERALL_ORDER = SENTIMENT_ORDER + EMOTION_ORDER

_URL_PREFIXES = ("http://", "https://", "www.")

#: Diagnostics a tally keeps, as many as the pipeline's reader keeps.
MAX_DIAGNOSTICS = 1000

#: A lone surrogate: an invalid UTF-8 byte of a file read with
#: surrogateescape, or a JSON escape that no UTF-8 output can carry.
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass
class ReadTally:
    """What ``naive_read`` saw: lines read, rejections by reason, and the
    first MAX_DIAGNOSTICS (line number, reason, detail) triples."""

    lines: int = 0
    skipped: Counter = field(default_factory=Counter)
    diagnostics: list = field(default_factory=list)

    def skip(self, lineno: int, reason: str, detail: str = "") -> None:
        self.skipped[reason] += 1
        if len(self.diagnostics) < MAX_DIAGNOSTICS:
            self.diagnostics.append((lineno, reason, detail))


def naive_timestamp(value, default_tz: timezone) -> datetime | None:
    """Local time in ``default_tz`` of an ISO 8601 string (a trailing Z or
    z is UTC, a naive time is local already), or None, also when the
    conversion leaves years 1-9999."""
    if not isinstance(value, str):
        return None
    text = value.strip()
    if text[-1:] in ("Z", "z"):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            return ts.replace(tzinfo=default_tz)
        return ts.astimezone(default_tz)
    except (ValueError, OverflowError):
        return None


def _parsed_lines(fh, fmt: str, tally: ReadTally):
    """(line number, field dict) of each line that parses into fields;
    every other line is tallied here."""
    if fmt == "jsonl":
        for lineno, line in enumerate(fh, 1):
            tally.lines += 1
            stripped = line.strip()
            if not stripped:
                tally.skip(lineno, "blank_line")
            elif _SURROGATE.search(stripped):
                tally.skip(lineno, "encoding", "invalid UTF-8 byte")
            else:
                try:
                    raw = json.loads(stripped)
                except RecursionError:
                    tally.skip(lineno, "malformed", "nested too deeply")
                except ValueError as exc:
                    tally.skip(lineno, "malformed", str(exc))
                else:
                    if isinstance(raw, dict):
                        yield lineno, raw
                    else:
                        tally.skip(lineno, "malformed", "not a JSON object")
        return
    rows = csv.reader(fh)
    if next(rows, CSV_HEADER) != CSV_HEADER:
        raise CorpusFormatError(f"{fh.name}: no {','.join(CSV_HEADER)} header")
    while True:
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error as exc:
            tally.lines += 1
            tally.skip(rows.line_num, "malformed", str(exc))
            continue
        tally.lines += 1
        if any("\0" in field for field in row):
            tally.skip(rows.line_num, "malformed", "line contains NUL")
        elif any(map(_SURROGATE.search, row)):
            tally.skip(rows.line_num, "encoding", "invalid UTF-8 byte")
        elif len(row) != len(CSV_HEADER):
            tally.skip(rows.line_num, "malformed",
                       f"expected {len(CSV_HEADER)} fields, got {len(row)}")
        else:
            yield rows.line_num, dict(zip(CSV_HEADER, row))


def naive_read(path, fmt: str, tally: ReadTally, *,
               default_tz: timezone = IST, date_from: date | None = None,
               date_to: date | None = None):
    """Yield (id, local time, text, location) for each admitted line of the
    corpus file at ``path``, and fill ``tally``.

    The first check a line fails names its rejection: blank_line, encoding
    (a byte that is not UTF-8), malformed (a JSONL line that json.loads
    does not turn into an object, or a CSV row with a NUL character or
    without four fields), id (not a non-empty string), timestamp (see
    naive_timestamp), text (not a string), duplicate (an id already
    yielded), out_of_range (a local date outside [date_from, date_to]).  A
    blank or non-string location is None.
    """
    seen: set[str] = set()
    with open(path, encoding="utf-8-sig", errors="surrogateescape",
              newline="") as fh:
        for lineno, raw in _parsed_lines(fh, fmt, tally):
            rec_id, text = raw.get("id"), raw.get("text")
            ts = naive_timestamp(raw.get("created_at"), default_tz)
            if not isinstance(rec_id, str) or not rec_id or \
                    _SURROGATE.search(rec_id):
                tally.skip(lineno, "id")
            elif ts is None:
                tally.skip(lineno, "timestamp")
            elif not isinstance(text, str):
                tally.skip(lineno, "text")
            elif rec_id in seen:
                tally.skip(lineno, "duplicate", rec_id)
            elif (date_from and ts.date() < date_from) or \
                    (date_to and ts.date() > date_to):
                tally.skip(lineno, "out_of_range", ts.date().isoformat())
            else:
                seen.add(rec_id)
                location = raw.get("user_location")
                if not isinstance(location, str) or not location.strip():
                    location = None
                yield rec_id, ts, text, location


def _url_end(text: str, i: int) -> int | None:
    """End index of a URL starting at position i, else None.

    A URL is a case-insensitive http://, https://, or www. prefix followed
    by at least one non-space character, extending to the next whitespace.
    """
    window = text[i:i + 8].lower()
    for prefix in _URL_PREFIXES:
        if window.startswith(prefix):
            j = i + len(prefix)
            if j < len(text) and not text[j].isspace():
                while j < len(text) and not text[j].isspace():
                    j += 1
                return j
    return None


def _is_handle_char(c: str) -> bool:
    return c == "_" or "a" <= c <= "z" or "A" <= c <= "Z" or "0" <= c <= "9"


def _strip_marker(text: str, marker: str, out_handles: list[str],
                  lower: bool) -> str:
    """Remove marker+handle pairs, recording each handle."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] == marker:
            j = i + 1
            while j < n and _is_handle_char(text[j]):
                j += 1
            if j > i + 1:
                handle = text[i + 1:j]
                out_handles.append(handle.lower() if lower else handle)
                out.append(" ")
                i = j
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


def _squeeze(token: str) -> str:
    """Collapse every run of 3+ identical characters down to 2."""
    out = []
    prev = None
    run = 0
    for c in token:
        if c == prev:
            run += 1
        else:
            prev = c
            run = 1
        if run <= 2:
            out.append(c)
    return "".join(out)


def naive_clean(text: str, stopwords: frozenset[str]):
    """Reference tweet cleaner; returns (tokens, mentions, hashtags).

    Same contract as tweetlex.preprocess but built on character walks: strip
    URLs, then @mentions (handles lowercased), then #hashtags (original
    case); tokenize what is left with ``naive_tokenize``.
    """
    out: list[str] = []
    i = 0
    while i < len(text):
        end = _url_end(text, i)
        if end is not None:
            out.append(" ")
            i = end
        else:
            out.append(text[i])
            i += 1
    stage = "".join(out)

    mentions: list[str] = []
    stage = _strip_marker(stage, "@", mentions, lower=True)
    hashtags: list[str] = []
    stage = _strip_marker(stage, "#", hashtags, lower=False)
    return naive_tokenize(stage, stopwords), mentions, hashtags


def naive_tokenize(text: str, stopwords: frozenset[str]) -> list[str]:
    """Reference tokenizer, the contract of tweetlex._kernels.tokenize:
    lowercase; keep only alphanumeric non-underscore characters; split;
    squeeze character runs; drop short tokens, tokens containing "http",
    and stopwords."""
    chars = []
    for c in text.lower():
        if c.isalnum() and c != "_":
            chars.append(c)
        else:
            chars.append(" ")
    tokens = []
    for tok in "".join(chars).split():
        tok = _squeeze(tok)
        if len(tok) < 3 or "http" in tok or tok in stopwords:
            continue
        tokens.append(tok)
    return tokens


def scan_lexicon_file(path: str) -> dict[str, frozenset[str]]:
    """Brute-force lexicon read: word -> set of flag-1 category labels.

    Assumes a file the strict loader accepts; no bitmasks, no Category
    enum, just the raw strings from the file.
    """
    table: dict[str, set[str]] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            word, label, flag = line.split("\t")
            if flag.strip() == "1":
                table.setdefault(word.strip().lower(), set()).add(label.strip())
    return {w: frozenset(s) for w, s in table.items()}


def naive_count(tokens, table: dict[str, frozenset[str]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for tok in tokens:
        for lab in table.get(tok, ()):
            counts[lab] = counts.get(lab, 0) + 1
    return counts


def _pick(counts: dict[str, int], order) -> tuple[str, bool]:
    """Max-count label over ``order`` with first-in-order tie-break.

    Returns ("neutral", False) when every count is zero; the bool reports
    whether two or more labels shared the (nonzero) maximum.
    """
    best = None
    best_v = 0
    at_max = 0
    for lab in order:
        v = counts.get(lab, 0)
        if v > best_v:
            best, best_v, at_max = lab, v, 1
        elif v == best_v and v > 0:
            at_max += 1
    if best is None:
        return "neutral", False
    return best, at_max >= 2


def naive_label(counts: dict[str, int]) -> tuple[str, str, str, bool]:
    """(sentiment, emotion, overall, tied) for one tweet's label counts."""
    s, s_tie = _pick(counts, SENTIMENT_ORDER)
    e, e_tie = _pick(counts, EMOTION_ORDER)
    o, o_tie = _pick(counts, OVERALL_ORDER)
    return s, e, o, s_tie or e_tie or o_tie


def naive_resolve(raw: str | None, rules: Rules) -> str:
    """Reference region resolution: first-match over the sorted rules,
    then the "india" fallback, else UNKNOWN."""
    if raw is None:
        return UNKNOWN
    text = " ".join(raw.lower().split())
    if not text:
        return UNKNOWN
    for pattern, region in rules:
        if pattern in text:
            return region
    if "india" in text:
        return INDIA_UNSPECIFIED
    return UNKNOWN


def _ranking(counts: dict[str, int]) -> dict[str, tuple[int, int]]:
    """key -> (rank, count), ranked 0, 1, ... by count descending, then
    key ascending."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {key: (rank, count) for rank, (key, count) in enumerate(ranked)}


def _entity_figures(counts: dict[str, int]) -> dict[str, int]:
    """The summary figures of a mention or hashtag count dict."""
    return {"distinct": len(counts),
            "total_occurrences": sum(counts.values()),
            "top40_subtotal": sum(sorted(counts.values(), reverse=True)[:40])}


def run_reference(input_path, fmt: str, lexicon_path, *,
                  stopwords: frozenset[str], gazetteer: Rules,
                  default_tz: timezone = IST,
                  date_from: date | None = None,
                  date_to: date | None = None,
                  mention_filter: str | None = None) -> dict:
    """Sequential reference run over one corpus.

    Returns its tallies by name: "summary" (the summary.json figures),
    "daily" (channel -> ISO date -> label -> count), "hourly" (a 24-slot
    list), "mentions" and "hashtags" (key -> (rank, count), see
    ``_ranking``), "regions" (region -> a tuple of its sentiment, emotion
    and overall label -> count dicts, UNKNOWN left out) and "rejections"
    (the first MAX_DIAGNOSTICS (line number, reason, detail) triples).
    With ``mention_filter`` set, only tweets mentioning that (lowercase)
    handle are analyzed and the summary takes the subcorpus shape.
    """
    table = scan_lexicon_file(str(lexicon_path))
    tally = ReadTally()
    records = naive_read(input_path, fmt, tally, default_tz=default_tz,
                         date_from=date_from, date_to=date_to)

    daily: dict[str, dict] = {"sentiment": {}, "emotion": {}, "overall": {}}
    hourly = [0] * 24
    mention_counts: dict[str, int] = {}
    hashtag_counts: dict[str, int] = {}
    region_labels: dict[str, tuple] = {}
    unknown_locs = 0
    blanks = 0
    tagged = 0
    neutral = {"sentiment": 0, "emotion": 0, "overall": 0}
    ties = 0
    non_latin = 0

    for _id, local, text, location in records:
        tokens, mentions, hashtags = naive_clean(text, stopwords)
        if mention_filter is not None and mention_filter not in mentions:
            continue
        for m in mentions:
            mention_counts[m] = mention_counts.get(m, 0) + 1
        for h in hashtags:
            key = h.upper()
            hashtag_counts[key] = hashtag_counts.get(key, 0) + 1
        if not tokens:
            blanks += 1
            continue
        tagged += 1
        for tok in tokens:
            if any(ord(c) > 127 for c in tok):
                non_latin += 1
        counts = naive_count(tokens, table)
        s, e, o, tied = naive_label(counts)
        if tied:
            ties += 1
        day = local.date().isoformat()
        for channel, lab in (("sentiment", s), ("emotion", e), ("overall", o)):
            if lab == "neutral":
                neutral[channel] += 1
            per_day = daily[channel].setdefault(day, {})
            per_day[lab] = per_day.get(lab, 0) + 1
        hourly[local.hour] += 1
        region = naive_resolve(location, gazetteer)
        if region == UNKNOWN:
            unknown_locs += 1
        else:
            labels = region_labels.setdefault(region, ({}, {}, {}))
            for per_channel, lab in zip(labels, (s, e, o)):
                per_channel[lab] = per_channel.get(lab, 0) + 1

    region_tweets = {region: sum(sentiment.values())
                     for region, (sentiment, _e, _o) in region_labels.items()}
    summary = {
        "records_read": tally.lines,
        "records_rejected": sum(tally.skipped.values()),
        "rejected_reasons": dict(sorted(tally.skipped.items())),
        "blanks_dropped": blanks,
        "tweets_tagged": tagged,
        "neutral_counts": neutral,
        "tie_count": ties,
        "peak_hour_slot": hourly.index(max(hourly)) if tagged else None,
        "lexicon_entries": len(table),
    }
    if mention_filter is not None:
        summary["mention"] = mention_filter
        summary["subcorpus_tweets"] = blanks + tagged
    else:
        summary["non_latin_token_tally"] = non_latin
        summary["mentions"] = _entity_figures(mention_counts)
        summary["hashtags"] = _entity_figures(hashtag_counts)
        summary["locations"] = {
            "located": sum(region_tweets.values()),
            "unknown": unknown_locs,
            "india_total": sum(tweets for region, tweets in
                               region_tweets.items() if region != FOREIGN),
            "foreign": region_tweets.get(FOREIGN, 0),
        }
    return {"summary": summary, "daily": daily, "hourly": hourly,
            "mentions": _ranking(mention_counts),
            "hashtags": _ranking(hashtag_counts),
            "regions": region_labels, "rejections": tally.diagnostics}
