"""Command-line interface.

Three subcommands: ``analyze`` runs the full pipeline over a corpus,
``subcorpus`` restricts it to tweets mentioning one handle, and ``top``
prints a mention or hashtag frequency ranking without loading a lexicon.

Exit codes: 0 success, 1 configuration or data failure (bad flags, bad
lexicon/stopword/gazetteer file, an output, ``--emit-tags`` included, that
would overwrite an input or another output, oracle mismatch), 2 I/O failure
(unreadable input, stdin closed for ``--input -``, unwritable output).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from datetime import date

from . import __version__
from .entities import FrequencyTable
from .errors import TweetlexError
from .ingest import FORMATS, IST, RecordReader, parse_tz_offset
from .preprocess import strip_entities
from .report import AnalyzeConfig, run_analyze


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tz_arg(text: str):
    try:
        return parse_tz_offset(text)
    except TweetlexError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _date_arg(text: str) -> date:
    # date.fromisoformat reads more forms (20170704, 2017-W27-2) on some
    # Pythons than on others, so the grammar is checked first.
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            raise ValueError(text)
        return date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad date {text!r}; expected YYYY-MM-DD") from None


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("count must be >= 1")
    return n


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True,
                        help="corpus file, or - for stdin")
    parser.add_argument("--format", choices=FORMATS, default="jsonl",
                        help="corpus format (default: jsonl)")
    parser.add_argument("--default-tz", type=_tz_arg, default=IST,
                        metavar="±HH:MM",
                        help="timezone for naive timestamps and all "
                             "local-time bucketing (default: +05:30)")
    parser.add_argument("--from", dest="date_from", type=_date_arg,
                        metavar="YYYY-MM-DD",
                        help="keep records on or after this local date")
    parser.add_argument("--to", dest="date_to", type=_date_arg,
                        metavar="YYYY-MM-DD",
                        help="keep records on or before this local date")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lexicon", required=True,
                        help="word<TAB>category<TAB>flag lexicon file")
    parser.add_argument("--stopwords",
                        help="stopword list (default: bundled English list)")
    parser.add_argument("--gazetteer",
                        help="pattern,region,priority CSV (default: bundled "
                             "India gazetteer)")
    parser.add_argument("--out", required=True,
                        help="output directory (created if missing)")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="processes doing the work, this one "
                             "included, capped at the usable CPUs (default: "
                             "1); any value produces byte-identical outputs")


def build_parser() -> _Parser:
    parser = _Parser(prog="tweetlex",
                     description="Lexicon-based emotion analysis for tweet "
                                 "corpora.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="run the full pipeline")
    _add_corpus_args(analyze)
    _add_pipeline_args(analyze)
    analyze.add_argument("--emit-tags", nargs="?", const="tags.jsonl",
                         metavar="PATH",
                         help="also write per-tweet tags; relative paths "
                              "land in --out (default name: tags.jsonl)")
    analyze.add_argument("--oracle", action="store_true",
                         help="verify the run against the sequential "
                              "reference implementation before writing")
    analyze.set_defaults(func=_cmd_run)

    subc = sub.add_parser("subcorpus",
                          help="analyze only tweets mentioning a handle")
    subc.add_argument("--mention", required=True,
                      help="handle to filter on (one leading @ optional, "
                           "case-insensitive)")
    _add_corpus_args(subc)
    _add_pipeline_args(subc)
    subc.set_defaults(func=_cmd_run)

    top = sub.add_parser("top", help="print a frequency ranking")
    top.add_argument("--what", choices=("mentions", "hashtags"),
                     required=True)
    top.add_argument("-n", type=_positive_int, default=40,
                     help="number of rows (default: 40)")
    _add_corpus_args(top)
    top.set_defaults(func=_cmd_top)
    return parser


def _make_config(args) -> AnalyzeConfig:
    mention = getattr(args, "mention", None)
    if mention is not None:
        mention = mention.removeprefix("@")
        if mention.isascii():  # a non-ASCII handle stays as given, and refused
            mention = mention.lower()
    return AnalyzeConfig(
        input_path=args.input,
        lexicon_path=args.lexicon,
        out_dir=args.out,
        fmt=args.format,
        stopwords_path=args.stopwords,
        gazetteer_path=args.gazetteer,
        default_tz=args.default_tz,
        date_from=args.date_from,
        date_to=args.date_to,
        emit_tags=getattr(args, "emit_tags", None),
        oracle=getattr(args, "oracle", False),
        workers=args.threads,
        mention=mention,
    )


def _cmd_run(args) -> int:
    """``analyze`` and ``subcorpus``: one run, timed on stderr."""
    start = time.perf_counter()
    result = run_analyze(_make_config(args))
    elapsed = time.perf_counter() - start
    tagged = result.summary["tweets_tagged"]
    rate = tagged / elapsed if elapsed > 0 else float("inf")
    print(f"tagged {tagged} tweets in {elapsed:.2f}s ({rate:.0f}/s); "
          f"wrote {len(result.written)} files to {result.out_dir}",
          file=sys.stderr)
    return 0


def _cmd_top(args) -> int:
    reader = RecordReader(args.input, args.format,
                          default_tz=args.default_tz,
                          date_from=args.date_from, date_to=args.date_to)
    # strip_entities returns (rest, mentions, hashtags); only the printed
    # table is counted.
    entity = 1 if args.what == "mentions" else 2
    table = FrequencyTable()
    for _id, _timestamp, text, _location in reader:
        table.update(strip_entities(text)[entity])
    for key, count in table.rows(table.ranking()[:args.n]):
        print(f"{key},{count}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TweetlexError as exc:
        print(f"tweetlex: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"tweetlex: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
