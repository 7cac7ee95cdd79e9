"""Ingestion tests: validation order, skip accounting, windows, formats."""

import csv
import datetime as dt
import io
import json
import tracemalloc
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tweetlex import ingest
from tweetlex.errors import CorpusFormatError, TweetlexError
from tweetlex.ingest import (
    CSV_HEADER,
    FORMATS,
    IST,
    RecordReader,
    parse_timestamp,
    parse_tz_offset,
)
from tweetlex.reference import ReadTally, naive_read

UTC = dt.timezone.utc


def _jsonl(tmp_path, lines):
    p = tmp_path / "corpus.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def _fields(i="t1", ts="2017-07-01T10:00:00+05:30", text="hello", **extra):
    raw = {"id": i, "created_at": ts, "text": text}
    raw.update(extra)
    return raw


def _row(*args, **kwargs):
    return json.dumps(_fields(*args, **kwargs))


def _ids(records):
    return [rec_id for rec_id, _ts, _text, _location in records]


def _admit_one(tmp_path, raw):
    """What RecordReader makes of a one-line corpus of ``raw``: its record
    tuple, or the reason it rejects it.  naive_read must make the same of
    it."""
    path = _jsonl(tmp_path, [json.dumps(raw)])
    reader, tally = RecordReader(path, "jsonl"), ReadTally()
    records = list(reader)
    assert records == list(naive_read(path, "jsonl", tally))
    assert reader.stats.skipped == tally.skipped
    return records[0] if records else next(iter(tally.skipped))


def _corpus(tmp_path, fmt, records):
    """Write ``records`` (dicts of CSV_HEADER fields) as a corpus in ``fmt``;
    return its path and the line number of its first record."""
    if fmt == "jsonl":
        return _jsonl(tmp_path, [json.dumps(r) for r in records]), 1
    p = tmp_path / "corpus.csv"
    with open(p, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows([r.get(k, "") for k in CSV_HEADER] for r in records)
    return p, 2


class TestParseTimestamp:
    def test_explicit_offset(self):
        ts = parse_timestamp("2017-07-01T10:00:00+05:30")
        assert ts == dt.datetime(2017, 7, 1, 10, 0, tzinfo=IST)

    def test_one_tzinfo_per_offset(self):
        # Every result is local time in the one default zone object,
        # whatever offset its text carried.
        texts = ["2017-07-01T10:00:00+02:00", "2017-07-02T23:59:59.5+02:00"]
        a, b = (parse_timestamp(text) for text in texts)
        assert a.tzinfo is b.tzinfo is IST
        assert [a, b] == [dt.datetime.fromisoformat(text) for text in texts]
        assert [a.isoformat(), b.isoformat()] == [
            "2017-07-01T13:30:00+05:30", "2017-07-03T03:29:59.500000+05:30"]
        for same_zone in ("2017-07-01T10:00:00", "2017-07-01T10:00:00Z"):
            assert parse_timestamp(same_zone).tzinfo is IST

    @pytest.mark.parametrize("text,local", [
        ("9999-12-31T18:29:59+00:00", "9999-12-31T23:59:59+05:30"),
        ("0001-01-01T05:30:00+05:30", "0001-01-01T05:30:00+05:30"),
        ("9999-12-31T23:59:59", "9999-12-31T23:59:59+05:30"),
    ])
    def test_local_time_at_the_year_range_edges(self, text, local):
        assert parse_timestamp(text).isoformat() == local

    @pytest.mark.parametrize("suffix", ["Z", "z"])
    def test_zulu(self, suffix):
        ts = parse_timestamp("2017-07-01T10:00:00" + suffix)
        assert ts == dt.datetime(2017, 7, 1, 10, 0, tzinfo=UTC)

    def test_naive_gets_default_tz(self):
        ts = parse_timestamp("2017-07-01T10:00:00", default_tz=UTC)
        assert ts.tzinfo == UTC

    @pytest.mark.parametrize("bad", [
        "not-a-date", "2017-13-01T00:00:00", "", None, 42, "2017-07-01TZZ",
        # Past year 9999 or before year 1 in UTC or in IST.
        "9999-12-31T23:00:00-10:00", "0001-01-01T00:00:00+10:00",
    ])
    def test_unparseable(self, bad):
        assert parse_timestamp(bad) is None


class TestParseTzOffset:
    @pytest.mark.parametrize("text,hours,minutes", [
        ("+05:30", 5, 30),
        ("-08:00", -8, 0),
        ("05:30", 5, 30),
        ("+00:00", 0, 0),
    ])
    def test_valid(self, text, hours, minutes):
        sign = -1 if hours < 0 else 1
        expect = dt.timezone(sign * dt.timedelta(hours=abs(hours), minutes=minutes))
        assert parse_tz_offset(text) == expect

    @pytest.mark.parametrize("bad", [
        "abc", "+5", "+25:00", "+05:99", "--05:30", "+05:3x", "",
        # One-digit fields, and digits that are not ASCII.
        "+05:3", "+5:30", "+\u0660\u0665:\u0663\u0660", "+\u00b2:30",
    ])
    def test_invalid(self, bad):
        with pytest.raises(TweetlexError):
            parse_tz_offset(bad)


class TestValidateRecord:
    """The field rules, each on a one-line corpus (see ``_admit_one``)."""

    def test_happy_path(self, tmp_path):
        rec = _admit_one(tmp_path, _fields(text="hi", user_location="Delhi"))
        assert rec == ("t1", dt.datetime(2017, 7, 1, 10, 0, tzinfo=IST),
                       "hi", "Delhi")

    @pytest.mark.parametrize("raw,reason", [
        ({}, "id"),
        ({"id": 123, "created_at": "2017-07-01T00:00:00Z", "text": "x"}, "id"),
        ({"id": "", "created_at": "2017-07-01T00:00:00Z", "text": "x"}, "id"),
        ({"id": "a", "text": "x"}, "timestamp"),
        ({"id": "a", "created_at": "nope", "text": "x"}, "timestamp"),
        ({"id": "a", "created_at": "2017-07-01T00:00:00Z"}, "text"),
        ({"id": "a", "created_at": "2017-07-01T00:00:00Z", "text": 7}, "text"),
        # A lone surrogate cannot be written to any UTF-8 output file.
        ({"id": "\ud800", "created_at": "2017-07-01T00:00:00Z", "text": "x"},
         "id"),
        # Of two failing fields, the first in check order is named.
        ({"id": "a", "created_at": "nope"}, "timestamp"),
        ({"id": 5, "created_at": "nope", "text": 7}, "id"),
    ])
    def test_first_failing_field_named(self, tmp_path, raw, reason):
        assert _admit_one(tmp_path, raw) == reason

    def test_empty_text_is_a_valid_string(self, tmp_path):
        _id, _ts, text, _loc = _admit_one(tmp_path, _fields(text=""))
        assert text == ""

    @pytest.mark.parametrize("loc", [None, "", "   ", 42, ["x"]])
    def test_unusable_location_becomes_none(self, tmp_path, loc):
        _id, _ts, _text, location = _admit_one(tmp_path,
                                               _fields(user_location=loc))
        assert location is None

    def test_location_absent(self, tmp_path):
        _id, _ts, _text, location = _admit_one(tmp_path, _fields())
        assert location is None


class TestJsonlReader:
    def test_skip_reasons_tallied(self, tmp_path):
        p = _jsonl(tmp_path, [
            _row("a"),
            "",
            "   ",
            "{not json",
            "[1, 2]",
            '"just a string"',
            _row(""),
            _row("b", ts="bad-ts"),
            json.dumps({"id": "c", "created_at": "2017-07-01T00:00:00Z"}),
            _row("d"),
        ])
        reader = RecordReader(p, "jsonl")
        ids = _ids(reader)
        assert ids == ["a", "d"]
        assert reader.stats.lines == 10
        assert reader.stats.skipped == {
            "blank_line": 2, "malformed": 3, "id": 1, "timestamp": 1, "text": 1,
        }
        assert reader.stats.lines == len(ids) + reader.stats.skipped_total

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_duplicate_counts_only_yielded_ids(self, tmp_path, fmt):
        # The first "a" is rejected for its timestamp, so it never enters
        # the seen-set: the second "a" is the first admitted record with
        # that id and must be kept.
        p, first = _corpus(tmp_path, fmt, [
            _fields("a", ts="garbage"),
            _fields("a"),
            _fields("a"),
            _fields("b"),
            _fields("b"),
        ])
        reader = RecordReader(p, fmt)
        ids = _ids(reader)
        assert ids == ["a", "b"]
        assert reader.stats.skipped == {"duplicate": 2, "timestamp": 1}
        assert reader.stats.diagnostics == [
            (first, "timestamp", ""),
            (first + 2, "duplicate", "a"),
            (first + 4, "duplicate", "b"),
        ]

    def test_oversized_integer_is_malformed(self, tmp_path):
        # Past Python's int-string conversion limit, json.loads raises a
        # plain ValueError, not a JSONDecodeError.
        huge = '{"id": "b", "text": "x", "n": %s}' % ("1" * 5000)
        p = _jsonl(tmp_path, [_row("a"), huge, _row("c")])
        reader = RecordReader(p, "jsonl")
        assert _ids(reader) == ["a", "c"]
        assert reader.stats.skipped == {"malformed": 1}
        [(lineno, reason, detail)] = reader.stats.diagnostics
        assert (lineno, reason) == (2, "malformed")
        assert "integer string conversion" in detail

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        p = _jsonl(tmp_path, [_row("a"), "[" * 200_000, _row("b")])
        reader = RecordReader(p, "jsonl")
        assert _ids(reader) == ["a", "b"]
        assert reader.stats.lines == 3
        assert reader.stats.skipped == {"malformed": 1}
        assert reader.stats.diagnostics == [
            (2, "malformed", "nested too deeply")]

    @pytest.mark.parametrize("window", [False, True],
                             ids=["no-window", "window"])
    def test_local_time_past_year_range_is_a_timestamp_rejection(
            self, tmp_path, window):
        p = _jsonl(tmp_path, [
            _row("late", ts="9999-12-31T23:00:00-10:00"),
            _row("ok"),
            _row("early", ts="0001-01-01T00:00:00+10:00"),
        ])
        bounds = {}
        if window:
            bounds = {"date_from": dt.date(2017, 7, 1),
                      "date_to": dt.date(2017, 7, 1)}
        reader = RecordReader(p, "jsonl", **bounds)
        [(rec_id, ts, _text, _loc)] = reader
        assert rec_id == "ok"
        assert ts.tzinfo is IST
        assert reader.stats.skipped == {"timestamp": 2}
        assert [d[:2] for d in reader.stats.diagnostics] == [
            (1, "timestamp"), (3, "timestamp")]

    def test_diagnostics_carry_line_numbers(self, tmp_path):
        p = _jsonl(tmp_path, [_row("a"), "{oops"])
        reader = RecordReader(p, "jsonl")
        list(reader)
        assert len(reader.stats.diagnostics) == 1
        lineno, reason, _detail = reader.stats.diagnostics[0]
        assert (lineno, reason) == (2, "malformed")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_window_inclusive_and_tz_aware(self, tmp_path, fmt):
        # 2017-07-01T20:00:00Z is 01:30 on July 2 in IST: the window is
        # evaluated in the reader's default tz, not in UTC.  The duplicate
        # check runs before the window check, and only admitted ids enter
        # the seen-set.
        p, first = _corpus(tmp_path, fmt, [
            _fields("utc_evening", ts="2017-07-01T20:00:00Z"),
            _fields("july1", ts="2017-07-01T12:00:00+05:30"),
            _fields("july2", ts="2017-07-02T23:59:59+05:30"),
            _fields("july3", ts="2017-07-03T00:00:00+05:30"),
            # An out-of-window twin of an admitted id is a duplicate.
            _fields("july2", ts="2017-07-03T10:00:00+05:30"),
            # "july1" was out of window, so its in-window twin is admitted.
            _fields("july1", ts="2017-07-02T08:00:00+05:30"),
        ])
        reader = RecordReader(p, fmt,
                              date_from=dt.date(2017, 7, 2),
                              date_to=dt.date(2017, 7, 2))
        ids = _ids(reader)
        assert ids == ["utc_evening", "july2", "july1"]
        assert reader.stats.skipped == {"out_of_range": 2, "duplicate": 1}
        assert reader.stats.diagnostics == [
            (first + 1, "out_of_range", "2017-07-01"),
            (first + 3, "out_of_range", "2017-07-03"),
            (first + 4, "duplicate", "july2"),
        ]

    def test_open_ended_windows(self, tmp_path):
        lines = [_row(f"d{d}", ts=f"2017-07-0{d}T12:00:00+05:30") for d in (1, 2, 3)]
        p = _jsonl(tmp_path, lines)
        only_from = RecordReader(p, "jsonl", date_from=dt.date(2017, 7, 2))
        assert _ids(only_from) == ["d2", "d3"]
        only_to = RecordReader(p, "jsonl", date_to=dt.date(2017, 7, 2))
        assert _ids(only_to) == ["d1", "d2"]

    def test_stdin_source(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO((_row("s1") + "\n").encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        reader = RecordReader("-", "jsonl")
        assert _ids(reader) == ["s1"]

    @pytest.mark.parametrize("fmt,source", [("jsonl", "file"),
                                            ("csv", "file"),
                                            ("jsonl", "stdin")])
    def test_byte_order_mark_is_not_data(self, tmp_path, monkeypatch, fmt,
                                         source):
        if fmt == "jsonl":
            body = "\n".join([_row("a"), _row("b")]) + "\n"
        else:
            body = (",".join(CSV_HEADER) + "\n"
                    "a,2017-07-01T10:00:00+05:30,hello,Delhi\n"
                    "b,2017-07-01T11:00:00+05:30,more,\n")
        readers = []
        for bom in (b"", b"\xef\xbb\xbf"):
            data = bom + body.encode("utf-8")
            if source == "stdin":
                monkeypatch.setattr("sys.stdin",
                                    io.TextIOWrapper(io.BytesIO(data)))
                reader = RecordReader("-", fmt)
            else:
                p = tmp_path / f"corpus{len(bom)}.{fmt}"
                p.write_bytes(data)
                reader = RecordReader(p, fmt)
            readers.append((reader, _ids(reader)))
        (plain, plain_ids), (marked, marked_ids) = readers
        assert marked_ids == plain_ids == ["a", "b"]
        assert marked.stats.lines == plain.stats.lines == 2
        assert marked.stats.skipped == {}

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("bad", [0, 1], ids=["first-after-bom", "middle"])
    def test_invalid_utf8_is_an_encoding_rejection(self, tmp_path,
                                                   monkeypatch, fmt, source,
                                                   bad):
        texts = [b"good day", b"so good", b"fine day"]
        texts[bad] = b"bad \xff\xfe byte"
        if fmt == "jsonl":
            head = b""
            rows = [b'{"id": "%d", "created_at": "2017-07-01T10:00:00Z", '
                    b'"text": "%s"}' % (i, text) for i, text in enumerate(texts)]
        else:
            head = ",".join(CSV_HEADER).encode() + b"\n"
            rows = [b"%d,2017-07-01T10:00:00Z,%s,Delhi" % (i, text)
                    for i, text in enumerate(texts)]
        data = b"\xef\xbb\xbf" * (bad == 0) + head + b"\n".join(rows) + b"\n"
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            reader = RecordReader("-", fmt)
        else:
            p = tmp_path / f"corpus.{fmt}"
            p.write_bytes(data)
            reader = RecordReader(p, fmt)
        ids = _ids(reader)
        assert ids == [str(i) for i in range(3) if i != bad]
        assert reader.stats.skipped == {"encoding": 1}
        assert reader.stats.lines == 3 == len(ids) + 1
        lineno = bad + 1 + (fmt == "csv")
        assert reader.stats.diagnostics == [
            (lineno, "encoding", "invalid UTF-8 byte")]

    def test_unsupported_format_rejected(self, tmp_path):
        with pytest.raises(TweetlexError):
            RecordReader(tmp_path / "x", "parquet")


class TestCsvReader:
    HEADER = ",".join(CSV_HEADER)

    def _csv(self, tmp_path, rows, header=None):
        p = tmp_path / "corpus.csv"
        body = "\n".join([header if header is not None else self.HEADER, *rows])
        p.write_text(body + "\n", encoding="utf-8")
        return p

    def test_reads_rows(self, tmp_path):
        p = self._csv(tmp_path, [
            'a,2017-07-01T10:00:00+05:30,hello world,Delhi',
            'b,2017-07-01T11:00:00+05:30,more text,',
        ])
        reader = RecordReader(p, "csv")
        recs = list(reader)
        assert [(rec_id, loc) for rec_id, _ts, _text, loc in recs] == [
            ("a", "Delhi"), ("b", None)]

    def test_header_mismatch_raises(self, tmp_path):
        p = self._csv(tmp_path, ['a,b,c,d'], header="id,timestamp,text,loc")
        with pytest.raises(CorpusFormatError):
            list(RecordReader(p, "csv"))

    def test_invalid_utf8_header_raises(self, tmp_path):
        p = tmp_path / "corpus.csv"
        p.write_bytes(b"id,created_at,te\xffxt,user_location\n")
        with pytest.raises(CorpusFormatError):
            list(RecordReader(p, "csv"))

    def test_empty_file_yields_nothing(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        reader = RecordReader(p, "csv")
        assert list(reader) == []
        assert reader.stats.lines == 0

    def test_wrong_field_count_skipped(self, tmp_path):
        p = self._csv(tmp_path, [
            'a,2017-07-01T10:00:00+05:30,hello,Delhi',
            'only,three,fields',
            'b,2017-07-01T11:00:00+05:30,ok,',
        ])
        reader = RecordReader(p, "csv")
        assert _ids(reader) == ["a", "b"]
        assert reader.stats.skipped["malformed"] == 1

    def test_quoted_multiline_field_is_one_row(self, tmp_path):
        p = self._csv(tmp_path, [
            'a,2017-07-01T10:00:00+05:30,"line one\nline two",Delhi',
            'b,2017-07-01T11:00:00+05:30,plain,',
        ])
        reader = RecordReader(p, "csv")
        recs = list(reader)
        assert recs[0][2] == "line one\nline two"
        assert reader.stats.lines == 2
        assert reader.stats.lines == len(recs) + reader.stats.skipped_total


_WINDOWS = [(None, None),
            (dt.date(2017, 7, 2), dt.date(2017, 7, 2)),
            (dt.date(2017, 7, 2), None),
            (None, dt.date(2017, 7, 2))]
# Few ids and few days, so duplicates land before and after out-of-window
# twins; 2017-07-01T20:00:00Z is July 2 in IST.
_IDS = st.sampled_from(["a", "b", "c", "\ufeffa", "\ud800", ""])
_STAMPS = st.sampled_from([
    "2017-07-01T12:00:00+05:30", "2017-07-01T20:00:00Z", "2017-07-02T10:00:00",
    "2017-07-02T23:59:59+05:30", "2017-07-03T00:00:00+05:30", "garbage", "",
    "9999-12-31T23:00:00-10:00"])
_TEXTS = st.text(max_size=6)
_LOCATIONS = st.sampled_from(["Delhi", "", "  ", "Mumbai, India"])
_SPACES = st.sampled_from(["", " \t", "\x0b", "\x0c", "\u00a0", "\u2028"])


@st.composite
def _json_object(draw):
    raw = {"id": draw(_IDS), "created_at": draw(_STAMPS),
           "text": draw(_TEXTS), "user_location": draw(_LOCATIONS)}
    # A field of the wrong type, or missing.
    field = draw(st.sampled_from([None] * 5 + ["id", "created_at", "text",
                                              "user_location"]))
    if field is not None:
        bad = draw(st.sampled_from([None, 7, ["x"], "missing"]))
        if bad == "missing":
            del raw[field]
        else:
            raw[field] = bad
    return raw


@st.composite
def _jsonl_line(draw):
    raw = draw(_json_object())
    body = json.dumps(raw, ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["plain", "extra", "bom", "nan", "huge",
                                 "other"]))
    if kind == "extra":
        body += draw(st.sampled_from([" {}", " 1", "x", "]", ",",
                                      " \x0bnull"]))
    elif kind == "bom":
        body = "\ufeff" + body
    elif kind == "nan":
        body = body[:-1] + ', "score": NaN}'
    elif kind == "huge":
        digits = draw(st.sampled_from([4300, 4301]))  # the limit, and past it
        body = body[:-1] + ', "n": %s}' % ("9" * digits)
    elif kind == "other":
        body = draw(st.sampled_from([
            "NaN", "[1, 2]", '"just a string"', "3", "null", "", "   ",
            "{oops", "[" * 100_000, '{"a": [' * 50 + "]}" * 50, '"\\ud800"']))
    return draw(_SPACES) + body + draw(_SPACES)


@st.composite
def _csv_row(draw):
    row = [draw(_IDS), draw(_STAMPS), draw(_TEXTS), draw(_LOCATIONS)]
    # Now and then a row of the wrong field count.
    return (row + ["extra"])[:draw(st.sampled_from([4] * 8 + [0, 3, 5]))]


def _write(path, text):
    # surrogatepass writes a lone surrogate as invalid UTF-8 bytes.
    path.write_bytes(text.encode("utf-8", "surrogatepass"))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), window=st.sampled_from(_WINDOWS))
def test_reader_equals_plain_reference(corpus_dir, fmt, data, window):
    path = corpus_dir / f"corpus.{fmt}"
    if fmt == "jsonl":
        lines = data.draw(st.lists(_jsonl_line(), max_size=12))
        _write(path, "".join(line + "\n" for line in lines))
    else:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        writer.writerows(data.draw(st.lists(_csv_row(), max_size=12)))
        _write(path, buf.getvalue())
    date_from, date_to = window
    reader = RecordReader(path, fmt, date_from=date_from, date_to=date_to)
    tally = ReadTally()
    want = list(naive_read(path, fmt, tally, date_from=date_from,
                           date_to=date_to))
    got = list(reader)
    assert got == want
    # Equal aware datetimes may differ in offset; the local times may not.
    assert [ts.isoformat() for _i, ts, _t, _l in got] == \
        [ts.isoformat() for _i, ts, _t, _l in want]
    assert reader.stats.lines == tally.lines
    assert reader.stats.skipped == tally.skipped
    assert reader.stats.diagnostics == tally.diagnostics


# Ids that occur inside one another, as prefixes, suffixes and middles, and
# ids that hold NUL, so one bucket holding all of them must still tell
# them apart.
_NESTED_IDS = st.sampled_from(["1", "11", "111", "b1", "b10", "10", "01",
                               "1b", "\0", "1\0", "\0" "1", "1\0" "1",
                               "\0\0"])


@st.composite
def _nested_id_line(draw):
    return json.dumps({"id": draw(_NESTED_IDS), "created_at": draw(_STAMPS),
                       "text": "t", "user_location": draw(_LOCATIONS)})


@pytest.mark.parametrize("buckets", [1, ingest._ID_BUCKETS])
@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_nested_id_line(), max_size=20),
       window=st.sampled_from(_WINDOWS))
def test_packed_ids_equal_plain_set(corpus_dir, buckets, lines, window):
    path = corpus_dir / "nested.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    date_from, date_to = window
    with mock.patch.object(ingest, "_ID_BUCKETS", buckets):
        reader = RecordReader(path, "jsonl", date_from=date_from,
                              date_to=date_to)
    tally = ReadTally()
    assert _ids(reader) == _ids(naive_read(path, "jsonl", tally,
                                           date_from=date_from,
                                           date_to=date_to))
    assert reader.stats.lines == tally.lines
    assert reader.stats.skipped == tally.skipped
    assert reader.stats.diagnostics == tally.diagnostics


def test_admitted_ids_hold_few_bytes_each(tmp_path):
    n = 100_000
    path = _jsonl(tmp_path, [
        '{"id": "%018d", "created_at": "2017-07-01T10:00:00", "text": ""}'
        % (10**17 + i * 7919) for i in range(n)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reader = RecordReader(path, "jsonl")
        deque(reader, maxlen=0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert reader.stats.lines == n and not reader.stats.skipped
    assert held / n < 32


class TestRejectionDiagnostics:
    """Rejections are tallied in full; their diagnostics are kept for the
    first 1,000 and logged at DEBUG only."""

    WINDOW = {"date_from": dt.date(2017, 7, 3), "date_to": dt.date(2017, 7, 3)}

    @pytest.fixture
    def windowed(self, tmp_path):
        # 1,400 lines over six days: about 1,170 fall outside the one-day
        # window, with a malformed line and a duplicate now and then.
        lines = []
        for i in range(1400):
            day = 1 + i % 6
            if i % 97 == 5:
                lines.append("{oops")
            elif i % 89 == 7:
                lines.append(_row("r0003", ts="2017-07-03T09:00:00+05:30"))
            else:
                lines.append(_row(f"r{i:04d}",
                                  ts=f"2017-07-0{day}T23:30:00+05:30"))
        return _jsonl(tmp_path, lines)

    def test_equal_to_reference_tally_with_iso_dates_and_cap(self, windowed):
        reader = RecordReader(windowed, "jsonl", **self.WINDOW)
        tally = ReadTally()
        assert list(reader) == list(naive_read(windowed, "jsonl", tally,
                                               **self.WINDOW))
        assert reader.stats.skipped == tally.skipped
        assert reader.stats.diagnostics == tally.diagnostics
        assert set(reader.stats.skipped) == {
            "out_of_range", "malformed", "duplicate"}
        assert reader.stats.skipped_total > 1000
        assert len(reader.stats.diagnostics) == 1000
        lines = windowed.read_text(encoding="utf-8").splitlines()
        out_of_range = 0
        for lineno, reason, detail in reader.stats.diagnostics:
            assert type(detail) is str
            if reason == "out_of_range":
                out_of_range += 1
                assert detail == json.loads(lines[lineno - 1])[
                    "created_at"][:10]
        assert out_of_range > 900
