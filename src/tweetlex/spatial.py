"""Resolution of free-text locations through a gazetteer, and per-region
aggregation in the label rows of ``temporal``.

The gazetteer is data, not code: case-insensitive substring rules mapping
location strings to a fixed region registry (Indian states/UT groupings
plus the FOREIGN and INDIA_UNSPECIFIED buckets).  ``load_gazetteer``
returns them as a tuple of ``(pattern, region)`` pairs, sorted by priority
ascending then file order, and rules are applied first-match in that
order, so specific patterns ("new delhi") can shadow general ones
("delhi").  A string matching no rule falls back to INDIA_UNSPECIFIED when
it contains "india", else UNKNOWN.
"""

from __future__ import annotations

import csv
import re
from importlib import resources

from .errors import GazetteerError
from .tagger import Tag
from .temporal import count_tag, merge_rows

UNKNOWN = "UNKNOWN"
INDIA_UNSPECIFIED = "INDIA_UNSPECIFIED"
FOREIGN = "FOREIGN"

#: Indian states/UT groupings the shipped gazetteer resolves to.
INDIAN_REGIONS = (
    "Andhra Pradesh",
    "Assam",
    "Bihar",
    "Chhattisgarh",
    "Delhi-NCR",
    "Goa",
    "Gujarat",
    "Haryana",
    "Himachal Pradesh",
    "Jammu & Kashmir",
    "Jharkhand",
    "Karnataka",
    "Kerala",
    "Madhya Pradesh",
    "Maharashtra",
    "Orissa",
    "Punjab",
    "Rajasthan",
    "Tamil Nadu",
    "Telangana",
    "Uttar Pradesh",
    "Uttarakhand",
    "West Bengal",
)

REGIONS = frozenset(INDIAN_REGIONS) | {INDIA_UNSPECIFIED, FOREIGN}

_WS_RE = re.compile(r"\s+")


def _normalize(text: str) -> str:
    return _WS_RE.sub(" ", text.strip().lower())


#: A gazetteer: its rules as ``(pattern, region)`` pairs in match order.
Rules = tuple[tuple[str, str], ...]


def load_gazetteer(path) -> Rules:
    """Parse a ``pattern,region,priority`` CSV (UTF-8, ``#`` comments, a
    leading byte-order mark dropped) into ``(pattern, region)`` pairs
    sorted by priority, then file order.

    Patterns are normalized like location strings (lowercase, trimmed,
    whitespace collapsed).  Unknown region names and non-integer priorities
    are fatal, with the line number.
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
        fields = next(csv.reader([line]))
        if len(fields) != 3:
            raise GazetteerError(
                f"{path}: line {lineno}: expected pattern,region,priority")
        pattern = _normalize(fields[0])
        region = fields[1].strip()
        if not pattern:
            raise GazetteerError(f"{path}: line {lineno}: empty pattern")
        if region not in REGIONS:
            raise GazetteerError(
                f"{path}: line {lineno}: unknown region {region!r}")
        try:
            priority = int(fields[2].strip())
        except ValueError:
            raise GazetteerError(
                f"{path}: line {lineno}: priority must be an integer, "
                f"got {fields[2].strip()!r}") from None
        rows.append((priority, order, pattern, region))
    rows.sort()
    return tuple((pattern, region) for _p, _o, pattern, region in rows)


def default_gazetteer_path():
    """Path to the India-focused gazetteer shipped with the package."""
    return resources.files("tweetlex.data") / "gazetteer_in.csv"


def resolve_location(raw: str | None, rules: Rules) -> str:
    """Region for a free-text location string, or UNKNOWN.

    Absent/empty input is UNKNOWN; otherwise the first matching rule wins;
    an unmatched string containing "india" is INDIA_UNSPECIFIED.
    """
    if raw is None:
        return UNKNOWN
    text = _normalize(raw)
    if not text:
        return UNKNOWN
    for pattern, region in rules:
        if pattern in text:
            return region
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
