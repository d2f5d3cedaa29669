"""Dictionary-word segmentation of compound tokens.

Splits strings like ``mickeymantlebaseballcards`` into lexicon words by
dynamic programming over a frequency-ranked word list. Word cost follows the
classic Zipf heuristic ln(rank · ln V); characters that cannot be covered by
lexicon words are grouped into "unknown" pieces with a steep per-character
cost, so genuine splits win but short opaque tokens stay whole.

The lexicon keeps every prefix of its words, so the search for words grows a
piece from each start only while it is still the prefix of some word. An
unknown piece is priced only from an *open* start (the start of the text, or
a place where the cheapest split ends in a word that no unknown piece
matches) and never over letters that form a word. An unknown piece from any
other start costs about ``UNKNOWN_BASE_COST`` more than a piece from an
earlier start to the same end, so it can neither win nor tie. Of the pieces
that end at the same place, the cheapest wins, and of equally cheap ones the
one that starts earliest. Where no word ends, only unknown pieces are priced.

The program leaves one back-pointer per end: the start of the cheapest last
piece and whether it is a word. ``segment_words`` builds its pieces from
them; ``dictionary_bucket`` walks them to its bucket and builds no pieces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    """Frequency-ranked word list; rank order drives segmentation cost.

    The word at rank r of V costs ln(r · ln V). ``segment_words`` gives the
    pieces of the full dynamic program while every word costs less than
    ``2 * UNKNOWN_BASE_COST + UNKNOWN_CHAR_COST * len(word)``, which holds
    for any lexicon of fewer than about 487 million words: the bound is
    ln(V · ln V) < 23, for a one-letter word ranked last.
    """

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

    Pieces concatenate back to the input exactly. Empty text has no pieces,
    and text holding anything but lowercase letters comes back as a single
    unsplit piece that is no word. No two unknown pieces are adjacent: one piece over both
    spans costs exactly ``UNKNOWN_BASE_COST`` less.

    A piece that is a lexicon word costs its word cost; any other piece
    ``text[j:i]`` costs ``UNKNOWN_BASE_COST + UNKNOWN_CHAR_COST * (i - j)``.
    Words are found by growing each piece only while it is a prefix of some
    lexicon word. An unknown piece never spans a word, and starts only at 0
    or at an ``i`` where the cheapest split of ``text[:i]`` ends in a word
    that no unknown piece matches in cost. Where an unknown piece from ``k``
    does, an unknown piece from ``i`` to a later end would cost about
    ``UNKNOWN_BASE_COST`` more than the piece from ``k`` run on to that end,
    so it could neither win nor tie; if the letters from ``k`` to that end
    form a word, the word costs less than the piece from ``i`` in any lexicon
    of fewer than about 487 million words (see ``WordLexicon``). Of the
    pieces ending at ``i``, the cheapest wins, and on a tie the one with the
    earliest start ``j``.
    """
    if lexicon is None:
        lexicon = WordLexicon.bundled()
    if not text:
        return []
    if not (text.isalpha() and text == text.lower()):
        return [SegmentPiece(text, False)]  # a lexicon holds lowercase letters only

    back = _back_pointers(text, lexicon._prefixes)
    pieces: list[SegmentPiece] = []
    i = len(text)
    while i > 0:
        j, is_word = back[i]
        pieces.append(SegmentPiece(text[j:i], is_word))
        i = j
    pieces.reverse()
    return pieces


def _back_pointers(text: str, prefixes: dict[str, float | None]) -> list[tuple[int, bool]]:
    """For a non-empty lowercase alphabetic ``text``, ``back[i]`` is the start
    of the last piece of the cheapest split of ``text[:i]`` and whether that
    piece is a word (see ``segment_words``)."""
    n = len(text)
    # words[i] maps the start j of each lexicon word text[j:i] to its word cost,
    # by ascending j, and is None where no word ends. No prefix holds the
    # padding ".", so each search stops by the end of text.
    words: list[dict[int, float] | None] = [None] * (n + 1)
    padded = text + "."
    for j in range(n):
        i = j + 1
        word_cost = prefixes.get(text[j], _NOT_A_PREFIX)
        while word_cost is not _NOT_A_PREFIX:
            if word_cost is not None:
                ends = words[i]
                if ends is None:
                    words[i] = {j: word_cost}
                else:
                    ends[j] = word_cost
            i += 1
            word_cost = prefixes.get(padded[j:i], _NOT_A_PREFIX)

    # cost[i] is the least cost of text[:i], and back[i] the start of its last
    # piece and whether that piece is a word; opened holds the open starts.
    # An unknown price is summed as (cost[j] + base) + char * (i - j): on near-ties
    # the grouping decides. Where no word ends, an unknown piece wins and
    # opens nothing.
    cost = [0.0]
    back = [(0, False)]
    opened = [0]
    for i in range(1, n + 1):
        ends = words[i]
        best = math.inf
        if ends is None:
            for j in opened:
                through = (cost[j] + UNKNOWN_BASE_COST) + UNKNOWN_CHAR_COST * (i - j)
                if through < best:
                    best, start = through, j
            cost.append(best)
            back.append((start, False))
            continue
        for j in opened:
            through = (cost[j] + UNKNOWN_BASE_COST) + UNKNOWN_CHAR_COST * (i - j)
            if through < best and j not in ends:
                best, start = through, j
        unknown = best
        is_word = False
        for j, word_cost in ends.items():
            through = cost[j] + word_cost
            if through < best or (through == best and j < start):
                best, start, is_word = through, j, True
        cost.append(best)
        back.append((start, is_word))
        if best < unknown:
            opened.append(i)
    return back


def dictionary_bucket(text: str) -> str:
    """How ``text`` segments into the bundled lexicon's words: ``"all"``
    when every piece is a word, ``"some"`` when at least one is, else
    ``"none"`` (also for empty text). It walks the segmentation's
    back-pointers and builds no pieces."""
    if not (text.isalpha() and text == text.lower()):
        return "none"  # one piece, as in segment_words, and no word: a lexicon holds lowercase letters only
    back = _back_pointers(text, WordLexicon.bundled()._prefixes)
    word = unknown = False
    i = len(text)
    while i > 0:
        i, is_word = back[i]
        if is_word:
            word = True
        else:
            unknown = True
    if not word:
        return "none"
    return "some" if unknown else "all"
