"""Ingestion tests: validation order, skip accounting, windows, formats."""

import datetime as dt
import io
import json

import pytest

from tweetlex.errors import CorpusFormatError, TweetlexError
from tweetlex.ingest import (
    CSV_HEADER,
    IST,
    RecordReader,
    TweetRecord,
    parse_timestamp,
    parse_tz_offset,
    validate_record,
)

UTC = dt.timezone.utc


def _jsonl(tmp_path, lines):
    p = tmp_path / "corpus.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def _row(i="t1", ts="2017-07-01T10:00:00+05:30", text="hello", **extra):
    raw = {"id": i, "created_at": ts, "text": text}
    raw.update(extra)
    return json.dumps(raw)


class TestParseTimestamp:
    def test_explicit_offset(self):
        ts = parse_timestamp("2017-07-01T10:00:00+05:30")
        assert ts == dt.datetime(2017, 7, 1, 10, 0, tzinfo=IST)

    def test_one_tzinfo_per_offset(self):
        # Every result is local time in the one default zone object, so a
        # pickled chunk of records stores its tzinfo once.
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

    @pytest.mark.parametrize("bad", ["abc", "+5", "+25:00", "+05:99", "--05:30", "+05:3x", ""])
    def test_invalid(self, bad):
        with pytest.raises(TweetlexError):
            parse_tz_offset(bad)


class TestValidateRecord:
    def test_happy_path(self):
        rec = validate_record({"id": "a", "created_at": "2017-07-01T00:00:00Z",
                               "text": "hi", "user_location": "Delhi"})
        assert isinstance(rec, TweetRecord)
        assert rec.user_location == "Delhi"

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
    ])
    def test_first_failing_field_named(self, raw, reason):
        assert validate_record(raw) == reason

    def test_empty_text_is_a_valid_string(self):
        rec = validate_record({"id": "a", "created_at": "2017-07-01T00:00:00Z",
                               "text": ""})
        assert isinstance(rec, TweetRecord)
        assert rec.text == ""

    @pytest.mark.parametrize("loc", [None, "", "   ", 42, ["x"]])
    def test_unusable_location_becomes_none(self, loc):
        rec = validate_record({"id": "a", "created_at": "2017-07-01T00:00:00Z",
                               "text": "x", "user_location": loc})
        assert rec.user_location is None

    def test_location_absent(self):
        rec = validate_record({"id": "a", "created_at": "2017-07-01T00:00:00Z",
                               "text": "x"})
        assert rec.user_location is None


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
        ids = [r.id for r in reader]
        assert ids == ["a", "d"]
        assert reader.stats.lines == 10
        assert reader.stats.yielded == 2
        assert reader.stats.skipped == {
            "blank_line": 2, "malformed": 3, "id": 1, "timestamp": 1, "text": 1,
        }
        assert reader.stats.lines == reader.stats.yielded + reader.stats.skipped_total

    def test_duplicate_counts_only_yielded_ids(self, tmp_path):
        # The first "a" is rejected for its timestamp, so the second "a" is
        # the first admitted record with that id and must be kept.
        p = _jsonl(tmp_path, [
            _row("a", ts="garbage"),
            _row("a"),
            _row("a"),
            _row("b"),
            _row("b"),
        ])
        reader = RecordReader(p, "jsonl")
        ids = [r.id for r in reader]
        assert ids == ["a", "b"]
        assert reader.stats.skipped["duplicate"] == 2
        assert reader.stats.skipped["timestamp"] == 1

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        p = _jsonl(tmp_path, [_row("a"), "[" * 200_000, _row("b")])
        reader = RecordReader(p, "jsonl")
        assert [r.id for r in reader] == ["a", "b"]
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
        records = list(reader)
        assert [r.id for r in records] == ["ok"]
        assert records[0].timestamp.tzinfo is IST
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

    def test_window_inclusive_and_tz_aware(self, tmp_path):
        # 2017-07-01T20:00:00Z is 01:30 on July 2 in IST: the window is
        # evaluated in the reader's default tz, not in UTC.
        p = _jsonl(tmp_path, [
            _row("utc_evening", ts="2017-07-01T20:00:00Z"),
            _row("july1", ts="2017-07-01T12:00:00+05:30"),
            _row("july2", ts="2017-07-02T23:59:59+05:30"),
            _row("july3", ts="2017-07-03T00:00:00+05:30"),
        ])
        reader = RecordReader(p, "jsonl",
                              date_from=dt.date(2017, 7, 2),
                              date_to=dt.date(2017, 7, 2))
        ids = [r.id for r in reader]
        assert ids == ["utc_evening", "july2"]
        assert reader.stats.skipped["out_of_range"] == 2

    def test_open_ended_windows(self, tmp_path):
        lines = [_row(f"d{d}", ts=f"2017-07-0{d}T12:00:00+05:30") for d in (1, 2, 3)]
        p = _jsonl(tmp_path, lines)
        only_from = RecordReader(p, "jsonl", date_from=dt.date(2017, 7, 2))
        assert [r.id for r in only_from] == ["d2", "d3"]
        only_to = RecordReader(p, "jsonl", date_to=dt.date(2017, 7, 2))
        assert [r.id for r in only_to] == ["d1", "d2"]

    def test_stdin_source(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO((_row("s1") + "\n").encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        reader = RecordReader("-", "jsonl")
        assert [r.id for r in reader] == ["s1"]

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
            readers.append((reader, [r.id for r in reader]))
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
        ids = [r.id for r in reader]
        assert ids == [str(i) for i in range(3) if i != bad]
        assert reader.stats.skipped == {"encoding": 1}
        assert reader.stats.lines == 3 == reader.stats.yielded + 1
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
        assert [r.id for r in recs] == ["a", "b"]
        assert recs[0].user_location == "Delhi"
        assert recs[1].user_location is None

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
        assert [r.id for r in reader] == ["a", "b"]
        assert reader.stats.skipped["malformed"] == 1

    def test_quoted_multiline_field_is_one_row(self, tmp_path):
        p = self._csv(tmp_path, [
            'a,2017-07-01T10:00:00+05:30,"line one\nline two",Delhi',
            'b,2017-07-01T11:00:00+05:30,plain,',
        ])
        reader = RecordReader(p, "csv")
        recs = list(reader)
        assert recs[0].text == "line one\nline two"
        assert reader.stats.lines == 2
        assert reader.stats.lines == reader.stats.yielded + reader.stats.skipped_total
