"""Deterministic synthetic corpora and lexicons for the test suite.

Every generator takes an explicit seed and asserts its own construction
invariants before returning, so tests compare pipeline output against
numbers that were pinned down independently at build time.
"""

from __future__ import annotations

import json
import random
from datetime import date, datetime, timedelta, timezone

IST = timezone(timedelta(hours=5, minutes=30))

CATEGORIES = ("positive", "negative", "joy", "trust", "anticipation",
              "surprise", "fear", "sadness", "anger", "disgust")

# 20-word toy lexicon with a deliberate mix of sentiment-only,
# emotion-only, and multi-category words, engineered so ties and neutral
# tweets occur often in random text.
TOY_LEXICON: dict[str, tuple[str, ...]] = {
    "good": ("positive", "joy"),
    "glad": ("positive", "joy"),
    "love": ("positive", "joy", "trust"),
    "happy": ("positive", "joy"),
    "hope": ("positive", "anticipation", "trust"),
    "win": ("positive", "anticipation"),
    "fine": ("positive",),
    "faith": ("trust",),
    "wonder": ("surprise", "anticipation"),
    "shock": ("surprise",),
    "bad": ("negative", "sadness"),
    "poor": ("negative",),
    "hate": ("negative", "anger", "disgust"),
    "angry": ("negative", "anger"),
    "rage": ("anger",),
    "grief": ("sadness",),
    "terror": ("negative", "fear", "anger"),
    "fear": ("negative", "fear"),
    "loss": ("negative", "sadness"),
    "vile": ("negative", "disgust"),
}

# Content words that carry no lexicon category and are not stopwords.
FILLER_WORDS = (
    "market", "council", "rollout", "midnight", "session", "reform",
    "trader", "policy", "invoice", "billion", "retail", "returns",
    "filing", "exempt", "cinema", "textile", "economy", "nation",
    "slab", "rate",
)

# Words that vanish in preprocessing (too short), for blank-tweet cases.
SHORT_WORDS = ("ok", "go", "rt", "at", "up")

MENTION_POOL = ("FinMinIndia", "GST_Council", "arunjaitley", "PMOIndia",
                "askGST_GoI")

HASHTAG_POOL = ("GST", "GSTRollout", "OneNationOneTax", "TaxReform",
                "India")

URL_POOL = ("http://gst.gov.in/faq", "https://t.co/abc123",
            "www.example.com/x")

# (raw location string, region the gazetteer should resolve) pairs; the
# expected region doubles as an oracle in spatial tests.
LOCATION_POOL = (
    ("Mumbai", "Maharashtra"),
    ("Pune, Maharashtra", "Maharashtra"),
    ("Bengaluru", "Karnataka"),
    ("Chennai", "Tamil Nadu"),
    ("Hyderabad", "Telangana"),
    ("Kolkata", "West Bengal"),
    ("Jaipur", "Rajasthan"),
    ("Lucknow", "Uttar Pradesh"),
    ("Ahmedabad", "Gujarat"),
    ("Patna", "Bihar"),
    ("Bharat / India", "INDIA_UNSPECIFIED"),
    ("india!!", "INDIA_UNSPECIFIED"),
    ("Indianapolis, IN", "FOREIGN"),
    ("London", "FOREIGN"),
    ("Dubai, UAE", "FOREIGN"),
    ("Karachi, Pakistan", "FOREIGN"),
    ("somewhere on earth", "UNKNOWN"),
    ("猫の国", "UNKNOWN"),
    (None, "UNKNOWN"),
)

# Delhi-NCR location spellings for the table-shape corpus.
DELHI_LOCATIONS = ("New Delhi", "Noida", "Gurgaon, India", "Delhi",
                   "new delhi, india")


def write_toy_lexicon(path) -> int:
    """Write TOY_LEXICON as a full 10-flag matrix; returns the number of
    words carrying at least one category (all 20 here)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for word in sorted(TOY_LEXICON):
            carried = TOY_LEXICON[word]
            for cat in CATEGORIES:
                flag = 1 if cat in carried else 0
                fh.write(f"{word}\t{cat}\t{flag}\n")
    return len(TOY_LEXICON)


def _stretch(rng: random.Random, word: str) -> str:
    """Repeat one character 3-5 times, like emphatic tweet spelling."""
    i = rng.randrange(len(word))
    return word[:i] + word[i] * rng.randint(3, 5) + word[i:]


def random_tweet_text(rng: random.Random, max_tokens: int = 8) -> str:
    """Noisy tweet text whose content words come from the toy vocabulary."""
    vocab = list(TOY_LEXICON) + list(FILLER_WORDS)
    n = rng.randint(0, max_tokens)
    words = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.70:
            word = rng.choice(vocab)
            if rng.random() < 0.10:
                word = _stretch(rng, word)
            if rng.random() < 0.15:
                word = word.upper() if rng.random() < 0.5 else word.title()
        elif roll < 0.85:
            word = rng.choice(SHORT_WORDS)
        else:
            word = rng.choice(("...", "!!", "&&", "-"))
        words.append(word)
    if rng.random() < 0.25:
        words.append("@" + rng.choice(MENTION_POOL))
    if rng.random() < 0.25:
        words.append("#" + rng.choice(HASHTAG_POOL))
    if rng.random() < 0.15:
        words.append(rng.choice(URL_POOL))
    return " ".join(words)


def _timestamp(rng: random.Random, day: date) -> str:
    when = datetime(day.year, day.month, day.day, rng.randrange(24),
                    rng.randrange(60), rng.randrange(60), tzinfo=IST)
    if rng.random() < 0.1:
        return when.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return when.isoformat()


def write_random_corpus(path, n: int, seed: int,
                        start: date = date(2017, 7, 1),
                        days: int = 7, max_tokens: int = 8) -> None:
    """n clean JSONL records with noisy text, varied timestamps, and the
    full location pool."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            day = start + timedelta(days=rng.randrange(days))
            loc = rng.choice(LOCATION_POOL)[0]
            record = {
                "id": f"r{seed}_{i:06d}",
                "created_at": _timestamp(rng, day),
                "text": random_tweet_text(rng, max_tokens),
                "user_location": loc,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


# Seeded marginals for the table-shape corpus.
JULY4_TWEETS = 13025
MENTION_OCCURRENCES = 14160
DELHI_TWEETS = 10919
MODAL_SLOT = 17
TABLE_CORPUS_SIZE = 30000
_MODAL_SLOT_TWEETS = 9000

TABLE_MENTION = "narendramodi"


def write_table_corpus(path, seed: int = 20170704) -> dict:
    """Corpus whose daily/mention/region/hour marginals are seeded exactly.

    Every tweet is guaranteed non-blank (two content words minimum), ids
    are unique, and all timestamps carry the +05:30 offset, so the
    written calendar date and hour are also the analysis-local ones.
    Construction invariants are asserted before returning.
    """
    rng = random.Random(seed)
    n = TABLE_CORPUS_SIZE

    day_counts = [(date(2017, 7, 4), JULY4_TWEETS)] + [
        (d, (n - JULY4_TWEETS) // 5)
        for d in (date(2017, 7, 1), date(2017, 7, 2), date(2017, 7, 3),
                  date(2017, 7, 5), date(2017, 7, 6))
    ]
    assert sum(c for _d, c in day_counts) == n
    days = [d for d, count in day_counts for _ in range(count)]
    rng.shuffle(days)

    other_slots = [s for s in range(24) if s != MODAL_SLOT]
    hours = [MODAL_SLOT] * _MODAL_SLOT_TWEETS + [
        rng.choice(other_slots) for _ in range(n - _MODAL_SLOT_TWEETS)]
    rng.shuffle(hours)

    mention_rows = set(rng.sample(range(n), MENTION_OCCURRENCES))
    delhi_rows = set(rng.sample(range(n), DELHI_TWEETS))
    vocab = list(TOY_LEXICON) + list(FILLER_WORDS)
    non_delhi = [loc for loc, _r in LOCATION_POOL]

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            words = [rng.choice(vocab), rng.choice(vocab)]
            if rng.random() < 0.5:
                words.append(rng.choice(vocab))
            if i in mention_rows:
                words.append("@" + TABLE_MENTION)
            elif rng.random() < 0.3:
                words.append("@" + rng.choice(MENTION_POOL))
            if rng.random() < 0.3:
                words.append("#" + rng.choice(HASHTAG_POOL))
            day = days[i]
            when = datetime(day.year, day.month, day.day, hours[i],
                            rng.randrange(60), rng.randrange(60),
                            tzinfo=IST)
            if i in delhi_rows:
                loc = DELHI_LOCATIONS[i % len(DELHI_LOCATIONS)]
            else:
                loc = non_delhi[i % len(non_delhi)]
            record = {
                "id": f"t{i:06d}",
                "created_at": when.isoformat(),
                "text": " ".join(words),
                "user_location": loc,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    # Construction oracles: re-derive each marginal from the plan.
    assert days.count(date(2017, 7, 4)) == JULY4_TWEETS
    assert len(mention_rows) == MENTION_OCCURRENCES
    assert len(delhi_rows) == DELHI_TWEETS
    slot_counts = [hours.count(s) for s in range(24)]
    assert slot_counts[MODAL_SLOT] == _MODAL_SLOT_TWEETS
    assert all(c < _MODAL_SLOT_TWEETS
               for s, c in enumerate(slot_counts) if s != MODAL_SLOT)
    return {
        "size": n,
        "july4": JULY4_TWEETS,
        "mention": TABLE_MENTION,
        "mention_occurrences": MENTION_OCCURRENCES,
        "delhi": DELHI_TWEETS,
        "modal_slot": MODAL_SLOT,
    }


def write_scaled_lexicon(path, n_words: int = 14182, seed: int = 7,
                         carry_rate: float = 0.3) -> dict[str, set[str]]:
    """EmoLex-scale synthetic lexicon: n_words distinct words, full 10-flag
    matrix per word.  Returns the word -> category-set truth table (flag-1
    entries only) for loader verification."""
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < n_words:
        words.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                          for _ in range(rng.randint(3, 9))))
    truth: dict[str, set[str]] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for word in sorted(words):
            if rng.random() < carry_rate:
                carried = set(rng.sample(CATEGORIES, rng.randint(1, 4)))
                truth[word] = carried
            else:
                carried = set()
            for cat in CATEGORIES:
                fh.write(f"{word}\t{cat}\t{1 if cat in carried else 0}\n")
    return truth


def write_throughput_corpus(path, n: int, lexicon_words: list[str],
                            seed: int = 99) -> None:
    """n tweets of ~10 tokens, 40% drawn from the big lexicon so tagging
    does real association lookups."""
    rng = random.Random(seed)
    fillers = list(FILLER_WORDS)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            k = rng.randint(6, 14)
            words = [rng.choice(lexicon_words) if rng.random() < 0.4
                     else rng.choice(fillers) for _ in range(k)]
            when = datetime(2017, 7, 1 + i % 7, rng.randrange(24),
                            rng.randrange(60), rng.randrange(60),
                            tzinfo=IST)
            record = {
                "id": f"p{i:07d}",
                "created_at": when.isoformat(),
                "text": " ".join(words),
                "user_location": rng.choice(LOCATION_POOL)[0],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_longtail_corpus(path, n: int, seed: int) -> None:
    """n JSONL records with long-tail mentions and hashtags: a Pareto head
    of hot keys over a tail of keys mostly seen once or twice, so the
    frequency tables are large and full of count ties.  Handles and tags
    come in mixed case, so mention lowercasing and hashtag uppercasing
    both change keys."""
    rng = random.Random(seed)

    def rank() -> int:
        if rng.random() < 0.3:
            return int(rng.paretovariate(1.0))
        return rng.randrange(1, 4 * n)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            words = [random_tweet_text(rng)]
            words += ["@" + rng.choice(("u", "U")) + f"{rank()}_"
                      + rng.choice("abcABC")
                      for _ in range(rng.randint(0, 3))]
            words += ["#" + rng.choice(("Tag", "tag", "TAG")) + str(rank())
                      for _ in range(rng.randint(0, 2))]
            day = date(2017, 7, 1) + timedelta(days=rng.randrange(7))
            record = {
                "id": f"l{seed}_{i:06d}",
                "created_at": _timestamp(rng, day),
                "text": " ".join(words),
                "user_location": rng.choice(LOCATION_POOL)[0],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
