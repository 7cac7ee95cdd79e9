"""Location resolution tests: rule precedence, fallbacks, aggregation."""

import csv

import pytest
from hypothesis import given, strategies as st

from tweetlex.errors import GazetteerError
from tweetlex.spatial import (
    FOREIGN,
    INDIA_UNSPECIFIED,
    INDIAN_REGIONS,
    REGIONS,
    UNKNOWN,
    RegionAggregate,
    default_gazetteer_path,
    load_gazetteer,
    resolve_location,
)
from tweetlex.tagger import EMOTION_LABELS, OVERALL_LABELS, SENTIMENT_LABELS
from tweetlex.temporal import DAY_ROW, row_tweets

from corpus_gen import DELHI_LOCATIONS, LOCATION_POOL


def _result(sent="positive", emo="joy", overall="positive"):
    return ([0] * 10, SENTIMENT_LABELS.index(sent), EMOTION_LABELS.index(emo),
            OVERALL_LABELS.index(overall), False)


def _labels(row, channel) -> dict[str, int]:
    """The nonzero label counts of one channel in a region's label row."""
    return {label: n for (ch, label), n in zip(DAY_ROW, row)
            if ch == channel and n}


def _aggregate(pairs) -> RegionAggregate:
    agg = RegionAggregate()
    for tag, region in pairs:
        agg.add(tag, region)
    return agg


class TestResolveLocation:
    @pytest.mark.parametrize("raw,region", LOCATION_POOL,
                             ids=[repr(r) for r, _ in LOCATION_POOL])
    def test_location_pool(self, raw, region, bundled_gazetteer):
        assert resolve_location(raw, bundled_gazetteer) == region

    @pytest.mark.parametrize("raw", DELHI_LOCATIONS)
    def test_delhi_spellings(self, raw, bundled_gazetteer):
        assert resolve_location(raw, bundled_gazetteer) == "Delhi-NCR"

    def test_priority_orders_matches(self, bundled_gazetteer):
        # "mumbai" is a priority-1 city rule, "delhi" a priority-2 one, so
        # a string containing both resolves to the city rule's region.
        assert resolve_location("mumbai, delhi", bundled_gazetteer) == "Maharashtra"

    def test_case_and_whitespace_insensitive(self, bundled_gazetteer):
        assert resolve_location("  MUMBAI  ", bundled_gazetteer) == "Maharashtra"
        assert resolve_location("East\t Delhi", bundled_gazetteer) == "Delhi-NCR"

    def test_substring_match(self, bundled_gazetteer):
        assert resolve_location("living in noida since 2010",
                                bundled_gazetteer) == "Delhi-NCR"

    def test_india_fallback(self, bundled_gazetteer):
        assert resolve_location("east india company ltd",
                                bundled_gazetteer) == INDIA_UNSPECIFIED

    def test_foreign_india_prefixes_beat_fallback(self, bundled_gazetteer):
        # "indianapolis" contains "india"; the explicit FOREIGN rule must
        # win over the fallback.
        assert resolve_location("Indianapolis", bundled_gazetteer) == FOREIGN
        assert resolve_location("Indiana, USA", bundled_gazetteer) == FOREIGN

    @pytest.mark.parametrize("raw", [None, "", "   ", "nowhere special", "123"])
    def test_unknown(self, raw, bundled_gazetteer):
        assert resolve_location(raw, bundled_gazetteer) == UNKNOWN

    def test_every_bundled_pattern_resolves_somewhere(self, bundled_gazetteer):
        for pattern, _region in bundled_gazetteer:
            assert resolve_location(pattern, bundled_gazetteer) != UNKNOWN

    def test_no_bundled_rule_is_shadowed(self, bundled_gazetteer):
        # A pattern that holds an earlier rule's pattern never matches
        # first, so its rule can never win.
        shadowed = [(earlier, pattern)
                    for i, (pattern, _region) in enumerate(bundled_gazetteer)
                    for earlier, _ in bundled_gazetteer[:i]
                    if earlier in pattern]
        assert shadowed == []
        assert resolve_location("Visakhapatnam, AP",
                                bundled_gazetteer) == "Andhra Pradesh"


class TestLoadGazetteer:
    def _load(self, tmp_path, body):
        p = tmp_path / "gz.csv"
        p.write_text(body, encoding="utf-8")
        return load_gazetteer(p)

    def test_sorted_by_priority_then_file_order(self, tmp_path):
        gz = self._load(tmp_path, "\n".join([
            "# comment",
            "zzz town,Goa,2",
            "",
            "aaa ville,Bihar,1",
            "mmm pur,Kerala,1",
            "qqq,FOREIGN,3",
            "abc gaon,Assam,1",
        ]) + "\n")
        assert gz == (
            ("aaa ville", "Bihar"),
            ("mmm pur", "Kerala"),
            ("abc gaon", "Assam"),
            ("zzz town", "Goa"),
            ("qqq", "FOREIGN"),
        )

    def test_patterns_normalized_at_load(self, tmp_path):
        gz = self._load(tmp_path, "  NEW   Town ,Goa,1\n")
        assert gz == (("new town", "Goa"),)
        assert resolve_location("new town, beach", gz) == "Goa"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        body = "# comment\nnew town,Goa,1\n"
        plain = self._load(tmp_path, body)
        bom = tmp_path / "bom.csv"
        bom.write_text(body, encoding="utf-8-sig")
        assert load_gazetteer(bom) == plain == (("new town", "Goa"),)

    @pytest.mark.parametrize("line", [
        "too,few",
        "a,b,c,d",
        "place,Atlantis,1",
        "place,Goa,first",
        ",Goa,1",
        pytest.param("mum\0bai,Maharashtra,1", id="nul"),
        pytest.param("x" * 131_073 + ",Goa,1", id="field-past-csv-limit"),
    ])
    def test_bad_lines_fatal_with_line_number(self, tmp_path, line):
        p = tmp_path / "gz.csv"
        p.write_text("ok place,Goa,1\n" + line + "\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match="line 2"):
            load_gazetteer(p)

    def test_bundled_gazetteer_loads(self, bundled_gazetteer):
        # Read the CSV apart from the loader: rows sorted by priority (a
        # stable sort keeps file order), patterns lowercased and
        # whitespace-collapsed.
        with default_gazetteer_path().open(encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh)
                    if row and not row[0].lstrip().startswith("#")]
        rows.sort(key=lambda row: int(row[2]))
        assert bundled_gazetteer == tuple(
            (" ".join(pattern.lower().split()), region.strip())
            for pattern, region, _priority in rows)
        assert len(bundled_gazetteer) > 100
        assert all(region in REGIONS for _pattern, region in bundled_gazetteer)


def test_region_registry_shape():
    assert len(INDIAN_REGIONS) == 23
    assert REGIONS == frozenset(INDIAN_REGIONS) | {INDIA_UNSPECIFIED, FOREIGN}
    assert UNKNOWN not in REGIONS


class TestRegionAggregate:
    def test_add_and_totals(self):
        agg = RegionAggregate()
        agg.add(_result(), "Delhi-NCR")
        agg.add(_result(sent="negative"), "Delhi-NCR")
        agg.add(_result(), "Maharashtra")
        agg.add(_result(), INDIA_UNSPECIFIED)
        agg.add(_result(), FOREIGN)
        assert {region: row_tweets(row) for region, row in agg.rows.items()} \
            == {"Delhi-NCR": 2, "Maharashtra": 1, INDIA_UNSPECIFIED: 1,
                FOREIGN: 1}
        assert _labels(agg.rows["Delhi-NCR"], "sentiment") == \
            {"positive": 1, "negative": 1}

    def test_region_stats_merge(self):
        a, b = RegionAggregate(), RegionAggregate()
        a.add(_result(), "Goa")
        b.add(_result(sent="negative", emo="sadness", overall="negative"),
              "Goa")
        b.add(_result(), "Goa")
        b.add(_result(), FOREIGN)
        a.merge(b)
        assert row_tweets(a.rows["Goa"]) == 3
        assert _labels(a.rows["Goa"], "sentiment") == \
            {"positive": 2, "negative": 1}
        assert _labels(a.rows["Goa"], "emotion") == {"joy": 2, "sadness": 1}
        assert row_tweets(a.rows[FOREIGN]) == 1
        # The merged-in row is copied, not shared.
        a.add(_result(), FOREIGN)
        assert row_tweets(b.rows[FOREIGN]) == 1

    @given(picks=st.lists(
        st.tuples(st.sampled_from(["Delhi-NCR", "Goa", INDIA_UNSPECIFIED, FOREIGN]),
                  st.sampled_from(["positive", "negative", "neutral"])),
        max_size=40), cut=st.integers(0, 40))
    def test_split_merge_equals_whole(self, picks, cut):
        cut = min(cut, len(picks))
        pairs = [(_result(sent=s, overall=s), region) for region, s in picks]
        whole = _aggregate(pairs)
        merged = _aggregate(pairs[:cut]).merge(_aggregate(pairs[cut:]))
        assert merged.rows == whole.rows
        assert sum(map(row_tweets, whole.rows.values())) == len(picks)
