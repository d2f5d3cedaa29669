"""Dictionary-word segmentation of compound tokens.

Splits strings like ``mickeymantlebaseballcards`` into lexicon words by
dynamic programming over a frequency-ranked word list. Word cost follows the
classic Zipf heuristic ln(rank · ln V); characters that cannot be covered by
lexicon words are grouped into "unknown" pieces with a steep per-character
cost, so genuine splits win but short opaque tokens stay whole.

The lexicon keeps every prefix of its words, so the search for words grows a
piece from each start only while it is still the prefix of some word; every
other piece is priced as unknown in one C-level pass per end. Of the pieces
that end at the same place, the cheapest wins, and of equally cheap ones the
one that starts earliest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable

from .uri import read_bundled

__all__ = ["WordLexicon", "SegmentPiece", "segment_words", "dictionary_bucket"]

UNKNOWN_BASE_COST = 10.0
UNKNOWN_CHAR_COST = 3.0
_NOT_A_PREFIX = object()


@dataclass(frozen=True)
class SegmentPiece:
    text: str
    is_word: bool


class WordLexicon:
    """Frequency-ranked word list; rank order drives segmentation cost."""

    def __init__(self, words: Iterable[str]):
        cleaned = []
        seen = set()
        for w in words:
            w = w.strip().lower()
            if w and w.isalpha() and w not in seen:
                seen.add(w)
                cleaned.append(w)
        if not cleaned:
            raise ValueError("empty lexicon")
        log_v = math.log(max(len(cleaned), 2))
        # Every prefix of every word: its cost when it is a word, else None.
        self._prefixes: dict[str, float | None] = {}
        for rank, w in enumerate(cleaned, start=1):
            self._prefixes[w] = math.log(rank * log_v)
            for end in range(1, len(w)):
                self._prefixes.setdefault(w[:end], None)
        self._size = len(cleaned)

    def __contains__(self, word: str) -> bool:
        return self._prefixes.get(word) is not None

    def __len__(self) -> int:
        return self._size

    def cost(self, word: str) -> float | None:
        return self._prefixes.get(word)

    @classmethod
    @lru_cache(maxsize=1)
    def bundled(cls) -> "WordLexicon":
        return cls(read_bundled("wordfreq.txt"))


def segment_words(text: str, lexicon: WordLexicon | None = None) -> list[SegmentPiece]:
    """Minimum-cost segmentation of a lowercase alphabetic string.

    Pieces concatenate back to the input exactly. Degenerate inputs (empty,
    or containing anything but lowercase letters) come back as a single
    unsplit piece. No two unknown pieces are adjacent: one piece over both
    spans costs exactly ``UNKNOWN_BASE_COST`` less.

    A piece that is a lexicon word costs its word cost; any other piece
    ``text[j:i]`` costs ``UNKNOWN_BASE_COST + UNKNOWN_CHAR_COST * (i - j)``.
    Words are found by growing each piece only while it is a prefix of some
    lexicon word. Of the pieces ending at ``i``, the cheapest wins, and on a
    tie the one with the earliest start ``j``.
    """
    if lexicon is None:
        lexicon = WordLexicon.bundled()
    if not text:
        return []
    if not (text.isalpha() and text == text.lower()):
        return [SegmentPiece(text, text in lexicon)]

    n = len(text)
    prefixes = lexicon._prefixes
    # words[i] maps the start j of each lexicon word text[j:i] to its word cost.
    words: list[dict[int, float]] = [{} for _ in range(n + 1)]
    for j in range(n):
        for i in range(j + 1, n + 1):
            word_cost = prefixes.get(text[j:i], _NOT_A_PREFIX)
            if word_cost is _NOT_A_PREFIX:
                break
            if word_cost is not None:
                words[i][j] = word_cost

    # cost[i] is the least cost of text[:i]; opened[j] = cost[j] + UNKNOWN_BASE_COST,
    # and steps[n - i + j] = UNKNOWN_CHAR_COST * (i - j), so that each piece
    # ending at i is priced exactly as (cost[j] + base) + char * (i - j).
    cost = [0.0]
    opened: list[float] = []
    steps = [UNKNOWN_CHAR_COST * length for length in range(n, 0, -1)]

    def priced(i: int) -> list[float]:
        """The cost of text[:i] through each start j < i of its last piece."""
        through = list(map(add, opened, steps[n - i:]))
        for j, word_cost in words[i].items():
            through[j] = cost[j] + word_cost
        return through

    for i in range(1, n + 1):
        opened.append(cost[-1] + UNKNOWN_BASE_COST)
        if words[i]:
            cost.append(min(priced(i)))
        else:
            cost.append(min(map(add, opened, steps[n - i:])))

    pieces: list[SegmentPiece] = []
    i = n
    while i > 0:
        j = priced(i).index(cost[i])
        pieces.append(SegmentPiece(text[j:i], j in words[i]))
        i = j
    pieces.reverse()
    return pieces


def dictionary_bucket(text: str) -> str:
    """How ``text`` segments into the bundled lexicon's words: ``"all"``
    when every piece is a word, ``"some"`` when at least one is, else
    ``"none"`` (also for empty text)."""
    pieces = segment_words(text) if text else []
    if pieces and all(p.is_word for p in pieces):
        return "all"
    if any(p.is_word for p in pieces):
        return "some"
    return "none"
