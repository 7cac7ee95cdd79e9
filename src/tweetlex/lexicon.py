"""Word/category lexicon: the ten categories and the word-level file loader.

The file format is the public word-level association format: one record per
line, three tab-separated fields ``word<TAB>category<TAB>flag`` with flag 0
or 1, ``#`` comment lines ignored.  A word carries a category iff its flag
for that category is 1; words whose flags are all 0 are never stored.

``load_lexicon`` returns a plain dict: each stored (lowercase) word maps to
its category bitmask, bit ``c`` set for ``Category`` value ``c``.
"""

from __future__ import annotations

import enum
import re

from .errors import LexiconError


class Category(enum.IntEnum):
    """The two sentiments plus eight emotions.

    Declaration order is the canonical tie-break order used for overall
    labeling (sentiments first, then emotions), and each member's value is
    its bit position in the packed masks the kernels consume.
    """

    POSITIVE = 0
    NEGATIVE = 1
    JOY = 2
    TRUST = 3
    ANTICIPATION = 4
    SURPRISE = 5
    FEAR = 6
    SADNESS = 7
    ANGER = 8
    DISGUST = 9

    @property
    def label(self) -> str:
        return self.name.lower()


SENTIMENTS: tuple[Category, ...] = (Category.POSITIVE, Category.NEGATIVE)
EMOTIONS: tuple[Category, ...] = tuple(c for c in Category if c not in SENTIMENTS)


_BIT_BY_LABEL = {c.label: 1 << c for c in Category}

_ALL_BITS = (1 << len(Category)) - 1

#: Characters read per piece.  Each piece is cut back to its last line end
#: and the rest carried into the next one; reading the whole file at once
#: would raise a run's peak memory by several percent.
_PIECE_CHARS = 1 << 16


def _block_matcher(order: list[int]):
    """Regex for one word's ten rows with categories in ``order`` (their
    bits), and the mask of each tuple of its ten captured flags."""
    first, *others = [Category(bit.bit_length() - 1).label for bit in order]
    pattern = re.compile(rf"([^\s#]\S*)\t{first}\t([01])\n"
                         + "".join(rf"\1\t{label}\t([01])\n"
                                   for label in others))
    flag_masks: dict[tuple[str, ...], int] = {(): 0}
    for bit in order:
        flag_masks = {flags + (f,): mask | (bit if f == "1" else 0)
                      for flags, mask in flag_masks.items() for f in "01"}
    return pattern, flag_masks


def load_lexicon(path) -> dict[str, int]:
    """Parse a word-level lexicon file into a word -> category-mask dict.

    Blank and ``#`` comment lines are skipped.  Fatal conditions
    (``LexiconError`` naming the offending line), checked in this order on
    every other line: a row without exactly three tab-separated fields, an
    empty word, a word containing whitespace, an unknown category token, a
    flag outside {0, 1}, and a duplicate (word, category) pair.  A byte
    that is not UTF-8 is fatal too (``LexiconError`` naming the file); a
    leading byte-order mark is dropped.

    Files laid out like NRC's own (ten rows per word, every word's rows in
    one category order) load a word per regex match: the order is taken
    from the first ten data rows, and a run of ten rows in that order, for
    one lowercase word not seen before, can break none of the checks.
    Every other line is checked on its own.
    """
    masks: dict[str, int] = {}
    # word -> bits of the categories it has a row for, whatever the flag.
    seen: dict[str, int] = {}
    # Category bits of the first data rows, until there are ten of them.
    order: list[int] = []
    block = flag_masks = None
    lineno = 0
    rest = ""
    with open(path, encoding="utf-8-sig") as fh:
        while rest is not None:
            try:
                piece = fh.read(_PIECE_CHARS)
            except UnicodeDecodeError:
                raise LexiconError(f"{path}: invalid UTF-8 byte") from None
            if piece:
                text = rest + piece
                cut = text.rfind("\n") + 1
                text, rest = text[:cut], text[cut:]
            else:  # end of file: the last line may lack its line end
                text, rest = rest, None
            pos = 0
            end = len(text)
            while pos < end:
                if block is not None:
                    m = block.match(text, pos)
                    if m is not None:
                        groups = m.groups()
                        word = groups[0]
                        if word not in seen and word.lower() == word:
                            seen[word] = _ALL_BITS
                            mask = flag_masks[groups[1:]]
                            if mask:
                                masks[word] = mask
                            lineno += 10
                            pos = m.end()
                            continue
                nl = text.find("\n", pos) + 1 or end
                line = text[pos:nl]
                pos = nl
                lineno += 1
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                parts = line.rstrip("\r\n").split("\t")
                if len(parts) != 3:
                    raise LexiconError(
                        f"{path}: line {lineno}: expected 3 tab-separated "
                        f"fields, got {len(parts)}")
                raw_word, cat_token, flag = parts
                word = raw_word.strip().lower()
                if not word:
                    raise LexiconError(f"{path}: line {lineno}: empty word")
                if len(word.split()) != 1:
                    raise LexiconError(
                        f"{path}: line {lineno}: word contains "
                        f"whitespace: {raw_word!r}")
                bit = _BIT_BY_LABEL.get(cat_token.strip())
                if bit is None:
                    raise LexiconError(f"{path}: line {lineno}: unknown "
                                       f"category {cat_token.strip()!r}")
                flag = flag.strip()
                if flag != "1" and flag != "0":
                    raise LexiconError(f"{path}: line {lineno}: flag "
                                       f"must be 0 or 1, got {flag!r}")
                bits = seen.get(word, 0)
                if bits & bit:
                    label = Category(bit.bit_length() - 1).label
                    raise LexiconError(
                        f"{path}: line {lineno}: duplicate row for "
                        f"({word!r}, {label})")
                seen[word] = bits | bit
                if flag == "1":
                    masks[word] = masks.get(word, 0) | bit
                if block is None:
                    order.append(bit)
                    if len(order) == len(Category):
                        # A wrong guess only means fewer block matches.
                        if len(set(order)) != len(Category):
                            order = [1 << c for c in Category]
                        block, flag_masks = _block_matcher(order)
    return masks
