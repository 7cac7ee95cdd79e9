"""Resolution of free-text locations through a gazetteer, and per-region
aggregation in the label rows of ``temporal``.

The gazetteer is data, not code: case-insensitive substring rules mapping
location strings to regions.  ``load_gazetteer`` returns the rules as a
tuple of ``(pattern, region)`` pairs, sorted by priority ascending then
file order, and rules are applied first-match in that order, so specific
patterns ("new delhi") can shadow general ones ("delhi").  A string
matching no rule falls back to INDIA_UNSPECIFIED when it contains "india",
else UNKNOWN.  The tuple is a ``Rules``, which also indexes the rules by
their patterns' first three characters, so a location is tested only
against the rules whose prefix it contains, and holds the Indian regions
the rules name: every region but the FOREIGN and INDIA_UNSPECIFIED
buckets.  The bundled gazetteer names 23 states and state groups.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import GazetteerError
from .tagger import Tag
from .temporal import count_tag, merge_rows

UNKNOWN = "UNKNOWN"
INDIA_UNSPECIFIED = "INDIA_UNSPECIFIED"
FOREIGN = "FOREIGN"

#: regions.csv's total rows; with UNKNOWN, names no gazetteer rule may use.
INDIA_TOTAL = "INDIA_TOTAL"
TOTAL = "TOTAL"


class Rules(tuple):
    """A gazetteer: its rules as ``(pattern, region)`` pairs in match order.

    ``by_prefix`` maps the first three characters of each pattern, as a
    3-tuple, to the ascending positions of the rules with that prefix;
    ``short`` holds the positions of patterns shorter than three characters,
    which every location is tested against.  ``regions`` is the set of
    Indian regions the rules name: every region but FOREIGN and
    INDIA_UNSPECIFIED.
    """

    def __new__(cls, pairs):
        self = super().__new__(cls, pairs)
        self.by_prefix = {}
        short = []
        for i, (pattern, _region) in enumerate(self):
            if len(pattern) < 3:
                short.append(i)
            else:
                self.by_prefix.setdefault(tuple(pattern[:3]), []).append(i)
        self.short = tuple(short)
        self.regions = frozenset(region for _pattern, region in self) - {
            FOREIGN, INDIA_UNSPECIFIED}
        return self


def load_gazetteer(path) -> Rules:
    """Parse a ``pattern,region,priority`` CSV (UTF-8, ``#`` comments, a
    leading byte-order mark dropped) into ``(pattern, region)`` pairs
    sorted by priority, then file order.

    Patterns are normalized like location strings (lowercase, trimmed,
    whitespace collapsed), region names trimmed.  A region name that cannot
    be a regions.csv row (empty, UNKNOWN, INDIA_TOTAL, TOTAL, or holding
    ``,`` or ``"``, which ``report.write_csv`` does not quote), a
    non-integer priority, a NUL character and any line the ``csv`` module
    cannot parse (such as a field past ``csv.field_size_limit()``) are
    fatal, with the line number.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise GazetteerError(f"{path}: invalid UTF-8 byte") from None
    rows = []  # (priority, file order, pattern, region)
    data_lines = ((lineno, line) for lineno, line in enumerate(lines, 1)
                  if line.strip() and not line.lstrip().startswith("#"))
    for order, (lineno, line) in enumerate(data_lines):
        # Python 3.10's csv module raises on a NUL; later ones read it.
        if "\0" in line:
            raise GazetteerError(f"{path}: line {lineno}: line contains NUL")
        try:
            fields = next(csv.reader([line]))
        except csv.Error as exc:
            raise GazetteerError(f"{path}: line {lineno}: {exc}") from None
        if len(fields) != 3:
            raise GazetteerError(
                f"{path}: line {lineno}: expected pattern,region,priority")
        pattern = " ".join(fields[0].lower().split())
        region = fields[1].strip()
        if not pattern:
            raise GazetteerError(f"{path}: line {lineno}: empty pattern")
        if (region in ("", UNKNOWN, INDIA_TOTAL, TOTAL) or "," in region
                or '"' in region):
            raise GazetteerError(
                f"{path}: line {lineno}: region {region!r} is empty, "
                f"reserved or holds ',' or '\"'")
        try:
            priority = int(fields[2].strip())
        except ValueError:
            raise GazetteerError(
                f"{path}: line {lineno}: priority must be an integer, "
                f"got {fields[2].strip()!r}") from None
        rows.append((priority, order, pattern, region))
    rows.sort()
    return Rules((pattern, region) for _p, _o, pattern, region in rows)


def default_gazetteer_path() -> Path:
    """Path to the India-focused gazetteer shipped with the package."""
    return Path(__file__).with_name("data") / "gazetteer_in.csv"


def resolve_location(raw: str | None, rules: Rules) -> str:
    """Region for a free-text location string, or UNKNOWN.

    Absent/empty input is UNKNOWN; otherwise the first matching rule wins;
    an unmatched string containing "india" is INDIA_UNSPECIFIED.  Only the
    short rules and the buckets of the prefixes that occur in the string
    are tested; each bucket stops at its first match, or once it passes the
    best position found so far.  The string's 3-character windows stream
    past the index, so only the prefixes it shares are held.
    """
    if raw is None:
        return UNKNOWN
    text = " ".join(raw.lower().split())
    if not text:
        return UNKNOWN
    best = len(rules)
    for i in rules.short:
        if rules[i][0] in text:
            best = i
            break
    by_prefix = rules.by_prefix
    for key in by_prefix.keys() & zip(text, text[1:], text[2:]):
        for i in by_prefix[key]:
            if i >= best:
                break
            if rules[i][0] in text:
                best = i
                break
    if best < len(rules):
        return rules[best][1]
    if "india" in text:
        return INDIA_UNSPECIFIED
    return UNKNOWN


class RegionAggregate:
    """region -> label row (laid out as ``temporal.DAY_ROW``) over the
    location-resolved tweets; UNKNOWN records are excluded upstream and
    tallied separately."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[str, list[int]] = {}

    def add(self, tag: Tag, region: str) -> None:
        count_tag(self.rows, region, tag)

    def merge(self, other: "RegionAggregate") -> "RegionAggregate":
        merge_rows(self.rows, other.rows)
        return self
