"""Read, validate, and stream tweet records from JSONL/CSV files or stdin.

A source is read one way whatever it is: ``RecordReader.__iter__`` opens
the file, or wraps stdin's bytes (source ``"-"``), as UTF-8 text with the
same decoding, and then closes the file or detaches the wrapper, leaving
stdin open.  In between, the format's field reader (JSONL or CSV) yields
the four fields of each line that parses, and one loop admits them by the
same checks, whatever the format.  Malformed lines never abort a stream:
they are skipped and tallied by reason, with their line number.  The
accounting invariant ``admitted + skipped == lines`` holds for every run.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import re
import sys
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from typing import Iterator

from .errors import CorpusFormatError, TweetlexError

#: Default timezone for naive timestamps and local-time bucketing (IST).
IST = timezone(timedelta(hours=5, minutes=30))

CSV_HEADER = ["id", "created_at", "text", "user_location"]

FORMATS = ("jsonl", "csv")

#: Cap on stored per-line diagnostics; counts are always complete.
_MAX_DIAGNOSTICS = 1000

_BAD_BYTES = "invalid UTF-8 byte"

#: Hash buckets of the packed admitted-id set (see ``RecordReader``); a
#: power of two, so ``hash(id) & (_ID_BUCKETS - 1)`` picks one.
_ID_BUCKETS = 4096

#: The C scanner behind ``json.loads``, called directly by ``_decode``.
_scan_once = json.JSONDecoder().scan_once


#: One admitted tweet: (id, local time, text, location or None).
Record = tuple[str, datetime, str, str | None]


class ReadStats:
    """Accounting for one read pass: lines == admitted records + total
    skipped.  The first 1,000 rejections keep their diagnostics."""

    def __init__(self) -> None:
        self.lines = 0
        self.skipped: Counter = Counter()
        self.diagnostics: list[tuple[int, str, str]] = []

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped.values())

    def _skip(self, lineno: int, reason: str, detail: object = "") -> None:
        """Tally one rejection; ``detail`` becomes a string only when it is
        stored."""
        self.skipped[reason] += 1
        if len(self.diagnostics) < _MAX_DIAGNOSTICS:
            self.diagnostics.append((lineno, reason, str(detail)))


def parse_timestamp(value, default_tz: timezone = IST) -> datetime | None:
    """Parse an RFC-3339 timestamp into ``default_tz`` local time; naive
    values are taken to be local already.

    Every result's tzinfo is the one ``default_tz`` object, whatever offset
    the value carried.  Returns None when the value does not parse or
    its conversion leaves years 1-9999 (in UTC or in ``default_tz``).
    """
    if not isinstance(value, str) or not value:
        return None
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            return ts.replace(tzinfo=default_tz)
        return ts.astimezone(default_tz)
    except (ValueError, OverflowError):
        return None


def _decode(stripped: str):
    """Decode one stripped JSONL line exactly as ``json.loads`` would.

    ``str.strip`` removes every JSON whitespace character, so a scan from
    index 0 that ends at the end of the line is what ``json.loads`` does,
    minus its Python wrappers.  A scan that finds no value or stops short
    (extra data, a mid-file BOM) is left to ``json.loads`` for its error;
    any other error of the scanner is the one ``json.loads`` would raise.
    """
    try:
        value, end = _scan_once(stripped, 0)
    except StopIteration:
        return json.loads(stripped)
    if end != len(stripped):
        return json.loads(stripped)
    return value


def _encodes(text: str) -> bool:
    """False when ``text`` holds a lone surrogate, which JSON input can
    carry but no UTF-8 output file can.  In a raw line decoded with
    surrogateescape, a lone surrogate is an invalid UTF-8 byte."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class RecordReader:
    """Iterable over the valid records of one source, with stats.  Each is
    a ``Record`` tuple, the shape ``reference.naive_read`` yields.

    Each line is checked in this order, and its first failing check names
    its rejection: ``blank_line``, ``encoding``, ``malformed`` (JSON that
    does not parse into an object, or a CSV row without four fields; a CSV
    row holding a NUL character is ``malformed`` before any check), all
    tallied by the format's field reader, which yields (line number,
    ``CSV_HEADER`` fields) for every other line; then, in one loop for
    both formats, the fields ``id`` (a non-empty string encodable as UTF-8),
    ``timestamp`` (see ``parse_timestamp``) and ``text`` (a string), then
    ``duplicate`` (an id already yielded), then ``out_of_range``.  So an
    out-of-window record whose id was yielded earlier is a ``duplicate``,
    and only yielded ids enter the seen-set.  A record tuple is built only
    for a line that passes every check; a blank or non-string
    ``user_location`` becomes None.

    The seen-set is packed: one string per hash bucket, ``_ID_BUCKETS`` of
    them, holding a NUL character and then each of its ids followed by a
    NUL, so an id costs its length plus one character, not a string object
    and a set slot.  An id is seen when it occurs between two NULs in its
    bucket, which is exact for ids without NUL; the rare id that holds one
    (JSON ``\\u0000``) goes to a plain set instead.  Membership is exact
    either way, so the bucket an id lands in, which follows the process's
    hash seed, changes no result.

    Every timestamp is converted to ``default_tz`` (naive ones are taken to
    be in it), and the optional [date_from, date_to] window is evaluated on
    that local date (both ends inclusive).  A window that ends before it
    starts is refused here, before the source is opened, and so is a
    ``"-"`` source when the process has no stdin (``OSError``).
    """

    def __init__(self, source, fmt: str, *, default_tz: timezone = IST,
                 date_from: date | None = None, date_to: date | None = None):
        if fmt not in FORMATS:
            raise TweetlexError(f"unsupported format {fmt!r}; expected one of {FORMATS}")
        if date_from is not None and date_to is not None \
                and date_from > date_to:
            raise TweetlexError(f"empty date window: --from {date_from} is "
                                f"after --to {date_to}")
        if source == "-" and sys.stdin is None:
            raise OSError(errno.EBADF, "standard input is closed", source)
        self.source = source
        self.format = fmt
        self.default_tz = default_tz
        self.date_from = date_from
        self.date_to = date_to
        self.stats = ReadStats()
        # An empty bucket is "\0" too: no id without NUL occurs in it.
        self._id_buckets = ["\0"] * _ID_BUCKETS
        self._nul_ids: set[str] = set()

    def __iter__(self) -> Iterator[Record]:
        # utf-8-sig drops a leading byte-order mark, so line 1 of a BOM'd
        # file parses like any other line.  surrogateescape turns each
        # invalid byte into a lone surrogate, which the field readers reject
        # as "encoding" line by line instead of the decode ending the run.
        # Stdin is decoded exactly as a file, whatever the locale or
        # PYTHONIOENCODING, and detached afterwards so sys.stdin stays open.
        fields = self._read_jsonl if self.format == "jsonl" else self._read_csv
        skip, tz = self.stats._skip, self.default_tz
        buckets, nul_ids = self._id_buckets, self._nul_ids
        mask = len(buckets) - 1
        date_from, date_to = self.date_from, self.date_to
        if self.source == "-":
            fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig",
                                  errors="surrogateescape", newline="")
        else:
            fh = open(self.source, encoding="utf-8-sig",
                      errors="surrogateescape", newline="")
        try:
            for lineno, rec_id, created_at, text, loc in fields(fh):
                if not isinstance(rec_id, str) or not rec_id or \
                        not (rec_id.isascii() or _encodes(rec_id)):
                    skip(lineno, "id")
                    continue
                ts = parse_timestamp(created_at, tz)
                if ts is None:
                    skip(lineno, "timestamp")
                    continue
                if not isinstance(text, str):
                    skip(lineno, "text")
                    continue
                if "\0" not in rec_id:
                    b = hash(rec_id) & mask
                    packed = buckets[b]
                    # The plain test allocates nothing and rules out most
                    # new ids; the delimited one makes the answer exact.
                    seen = rec_id in packed and f"\0{rec_id}\0" in packed
                else:
                    packed = None
                    seen = rec_id in nul_ids
                if seen:
                    skip(lineno, "duplicate", rec_id)
                    continue
                if date_from or date_to:
                    local = ts.date()
                    if (date_from and local < date_from) or \
                            (date_to and local > date_to):
                        skip(lineno, "out_of_range", local)
                        continue
                if packed is None:
                    nul_ids.add(rec_id)
                else:
                    buckets[b] = f"{packed}{rec_id}\0"
                if not isinstance(loc, str) or not loc.strip():
                    loc = None
                yield rec_id, ts, text, loc
        finally:
            if self.source == "-":
                fh.detach()
            else:
                fh.close()

    def _read_jsonl(self, fh) -> Iterator[tuple]:
        for lineno, line in enumerate(fh, 1):
            self.stats.lines += 1
            stripped = line.strip()
            if not stripped:
                self.stats._skip(lineno, "blank_line")
                continue
            if not stripped.isascii() and not _encodes(stripped):
                self.stats._skip(lineno, "encoding", _BAD_BYTES)
                continue
            try:
                raw = _decode(stripped)
            except ValueError as exc:
                # A JSONDecodeError, or an integer literal longer than
                # Python's int-string conversion limit.
                self.stats._skip(lineno, "malformed", exc)
                continue
            except RecursionError:
                self.stats._skip(lineno, "malformed", "nested too deeply")
                continue
            if not isinstance(raw, dict):
                self.stats._skip(lineno, "malformed", "not a JSON object")
                continue
            get = raw.get
            yield (lineno, get("id"), get("created_at"), get("text"),
                   get("user_location"))

    def _read_csv(self, fh) -> Iterator[tuple]:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return  # empty file: zero lines, zero records
        except csv.Error as exc:
            raise CorpusFormatError(f"{self.source}: unreadable CSV header: {exc}")
        if header != CSV_HEADER:
            raise CorpusFormatError(
                f"{self.source}: expected CSV header {','.join(CSV_HEADER)!r}, "
                f"got {','.join(header)!r}")
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                self.stats.lines += 1
                self.stats._skip(reader.line_num, "malformed", exc)
                continue
            self.stats.lines += 1
            lineno = reader.line_num
            # Python 3.10's csv module raises on a NUL; later ones read it.
            if "\0" in "".join(row):
                self.stats._skip(lineno, "malformed", "line contains NUL")
                continue
            if not all(map(str.isascii, row)) and not all(map(_encodes, row)):
                self.stats._skip(lineno, "encoding", _BAD_BYTES)
                continue
            if len(row) != len(CSV_HEADER):
                self.stats._skip(lineno, "malformed",
                                 f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                continue
            yield lineno, *row


def parse_tz_offset(text: str) -> timezone:
    """Parse a ``[±]HH:MM`` CLI offset (ASCII digits, at most 23:59; no sign
    means ahead of UTC) into a timezone."""
    m = re.fullmatch(r"([+-]?)([0-9]{2}):([0-9]{2})", text.strip())
    if m is None or int(m[2]) > 23 or int(m[3]) > 59:
        raise TweetlexError(f"bad timezone offset {text!r}; expected ±HH:MM")
    sign = -1 if m[1] == "-" else 1
    return timezone(sign * timedelta(hours=int(m[2]), minutes=int(m[3])))
