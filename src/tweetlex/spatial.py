"""Gazetteer-based resolution of free-text locations and per-region
aggregation.

The gazetteer is data, not code: an ordered list of case-insensitive
substring rules mapping location strings to a fixed region registry (Indian
states/UT groupings plus the FOREIGN and INDIA_UNSPECIFIED buckets).  Rules
are applied first-match, sorted by priority ascending then file order, so
specific patterns ("new delhi") can shadow general ones ("delhi").  A
string matching no rule falls back to INDIA_UNSPECIFIED when it contains
"india", else UNKNOWN.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .errors import GazetteerError
from .tagger import EMOTION_LABELS, SENTIMENT_LABELS, Tag

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


@dataclass(frozen=True)
class GazetteerRule:
    pattern: str
    region: str
    priority: int


class Gazetteer:
    """Ordered first-match rule table."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[GazetteerRule]):
        self.rules: list[GazetteerRule] = list(rules)


def load_gazetteer(path) -> Gazetteer:
    """Parse a ``pattern,region,priority`` CSV (UTF-8, ``#`` comments).

    Patterns are normalized like location strings (lowercase, trimmed,
    whitespace collapsed).  Unknown region names and non-integer priorities
    are fatal, with the line number.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        raise GazetteerError(f"{path}: invalid UTF-8 byte") from None
    rows: list[tuple[int, int, GazetteerRule]] = []  # (priority, file order, rule)
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
        rows.append((priority, order, GazetteerRule(pattern, region, priority)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return Gazetteer(rule for _p, _o, rule in rows)


def default_gazetteer_path():
    """Path to the India-focused gazetteer shipped with the package."""
    return resources.files("tweetlex.data") / "gazetteer_in.csv"


def resolve_location(raw: str | None, gz: Gazetteer) -> str:
    """Region for a free-text location string, or UNKNOWN.

    Absent/empty input is UNKNOWN; otherwise the first matching rule wins;
    an unmatched string containing "india" is INDIA_UNSPECIFIED.
    """
    if raw is None:
        return UNKNOWN
    text = _normalize(raw)
    if not text:
        return UNKNOWN
    for rule in gz.rules:
        if rule.pattern in text:
            return rule.region
    if "india" in text:
        return INDIA_UNSPECIFIED
    return UNKNOWN


class RegionStats:
    """Tweet count plus the sentiment and emotion label counts of one
    region, indexed like ``SENTIMENT_LABELS`` and ``EMOTION_LABELS``."""

    __slots__ = ("tweets", "sentiment", "emotion")

    def __init__(self):
        self.tweets = 0
        self.sentiment: list[int] = [0] * len(SENTIMENT_LABELS)
        self.emotion: list[int] = [0] * len(EMOTION_LABELS)

    def add(self, tag: Tag) -> None:
        _vector, s, e, _o, _tied = tag
        self.tweets += 1
        self.sentiment[s] += 1
        self.emotion[e] += 1

    def merge(self, other: "RegionStats") -> None:
        self.tweets += other.tweets
        self.sentiment = [a + b for a, b in zip(self.sentiment, other.sentiment)]
        self.emotion = [a + b for a, b in zip(self.emotion, other.emotion)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RegionStats)
                and self.tweets == other.tweets
                and self.sentiment == other.sentiment
                and self.emotion == other.emotion)


class RegionAggregate:
    """region -> RegionStats over the location-resolved tweets; UNKNOWN
    records are excluded upstream and tallied separately."""

    __slots__ = ("regions",)

    def __init__(self):
        self.regions: dict[str, RegionStats] = {}

    def add(self, tag: Tag, region: str) -> None:
        stats = self.regions.get(region)
        if stats is None:
            stats = self.regions[region] = RegionStats()
        stats.add(tag)

    def merge(self, other: "RegionAggregate") -> "RegionAggregate":
        for region, stats in other.regions.items():
            mine = self.regions.get(region)
            if mine is None:
                mine = self.regions[region] = RegionStats()
            mine.merge(stats)
        return self

    def count(self, region: str) -> int:
        stats = self.regions.get(region)
        return stats.tweets if stats else 0

    def india_total(self) -> int:
        """State counts plus INDIA_UNSPECIFIED (the "India (Total)" row)."""
        return (sum(s.tweets for r, s in self.regions.items()
                    if r in INDIAN_REGIONS)
                + self.count(INDIA_UNSPECIFIED))

    def grand_total(self) -> int:
        return sum(s.tweets for s in self.regions.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, RegionAggregate) and self.regions == other.regions
