"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three kernel entry points (collapse_repeats, tokenize,
count_masks) and a full preprocess+tag loop on synthetic tweet text, once
per available backend, and prints tweets/s with the compiled speedup.

Usage:
    python3 benchmarks/bench_kernels.py [--tweets 20000] [--repeat 3]

The pipeline pass swaps the kernel entry points in tweetlex._kernels, the
same indirection the package itself dispatches through, so both backends
run the exact production code path.
"""

import argparse
import random
import sys
import time

from tweetlex import _kernels
from tweetlex._kernels import pure
from tweetlex.ingest import IST, TweetRecord
from tweetlex.lexicon import Category, Lexicon
from tweetlex.preprocess import (default_stopwords_path, load_stopwords,
                                 preprocess)
from tweetlex.tagger import tag_tweet

import datetime as dt

WORDS = (
    "market reform rollout midnight council session trader policy invoice "
    "billion retail returns filing exempt cinema textile economy nation "
    "good glad love happy hope win fine faith wonder shock bad poor hate "
    "angry rage grief terror fear loss vile the and is this with from"
).split()


def make_lexicon(rng: random.Random, n_words: int = 2000) -> Lexicon:
    """Synthetic word -> bitmask table, ~30% of a tweet's words hitting."""
    masks = {}
    pool = list(WORDS)
    while len(pool) < n_words:
        pool.append("".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                            for _ in range(rng.randint(3, 9))))
    for word in rng.sample(pool, int(len(pool) * 0.6)):
        mask = 0
        for _ in range(rng.randint(1, 3)):
            mask |= 1 << rng.randrange(len(Category))
        masks[word] = mask
    return Lexicon(masks)


def make_texts(rng: random.Random, n: int) -> list[str]:
    texts = []
    for _ in range(n):
        k = rng.randint(4, 14)
        words = [rng.choice(WORDS) for _ in range(k)]
        if rng.random() < 0.3:
            i = rng.randrange(len(words))
            words[i] = words[i] + words[i][-1] * rng.randint(2, 4)
        if rng.random() < 0.25:
            words.append("@user" + str(rng.randrange(50)))
        if rng.random() < 0.25:
            words.append("#Tag" + str(rng.randrange(50)))
        if rng.random() < 0.15:
            words.append("http://t.co/" + str(rng.randrange(1000)))
        texts.append(" ".join(words))
    return texts


def kernel_backends() -> dict:
    """Name -> module of each kernel backend importable here."""
    backends = {"pure": pure}
    try:
        from tweetlex._kernels import _core
    except ImportError:
        pass
    else:
        backends["c"] = _core
    return backends


def best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_backend(impl, texts: list[str], records: list[TweetRecord],
                  lex: Lexicon, stopwords: frozenset[str],
                  repeat: int) -> dict[str, float]:
    token_lists = [impl.tokenize(t, stopwords) for t in texts]

    timings = {
        "collapse_repeats": best_of(repeat, lambda: [
            impl.collapse_repeats(t) for t in texts]),
        "tokenize": best_of(repeat, lambda: [
            impl.tokenize(t, stopwords) for t in texts]),
        "count_masks": best_of(repeat, lambda: [
            impl.count_masks(toks, lex.masks) for toks in token_lists]),
    }

    saved = (_kernels.tokenize, _kernels.count_masks)
    _kernels.tokenize = impl.tokenize
    _kernels.count_masks = impl.count_masks
    try:
        timings["preprocess+tag"] = best_of(repeat, lambda: [
            tag_tweet(preprocess(r, stopwords), lex) for r in records])
    finally:
        _kernels.tokenize, _kernels.count_masks = saved
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare kernel backends on synthetic tweets.")
    parser.add_argument("--tweets", type=int, default=20000,
                        help="synthetic corpus size (default: 20000)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats, best-of (default: 3)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    backends = kernel_backends()
    rng = random.Random(args.seed)
    lex = make_lexicon(rng)
    texts = make_texts(rng, args.tweets)
    when = dt.datetime(2017, 7, 1, tzinfo=IST)
    records = [TweetRecord(id=str(i), timestamp=when, text=t)
               for i, t in enumerate(texts)]
    stopwords = load_stopwords(default_stopwords_path())

    print(f"{args.tweets} synthetic tweets, best of {args.repeat} runs; "
          f"backends: {', '.join(backends)}")
    results = {name: bench_backend(impl, texts, records, lex, stopwords,
                                   args.repeat)
               for name, impl in backends.items()}

    ops = ("collapse_repeats", "tokenize", "count_masks", "preprocess+tag")
    header = f"{'op':>16}" + "".join(f"{name + ' tw/s':>16}"
                                     for name in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for op in ops:
        row = f"{op:>16}"
        rates = []
        for name in backends:
            rate = args.tweets / results[name][op]
            rates.append(rate)
            row += f"{rate:>16,.0f}"
        if len(rates) == 2:
            row += f"{rates[1] / rates[0]:>9.2f}x"
        print(row)
    if "c" not in backends:
        print("note: compiled backend not built; showing pure only",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
