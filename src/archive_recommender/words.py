"""Dictionary-word segmentation of compound tokens.

Splits strings like ``mickeymantlebaseballcards`` into lexicon words by
dynamic programming over a frequency-ranked word list. Word cost follows the
classic Zipf heuristic ln(rank · ln V); characters that cannot be covered by
lexicon words are grouped into "unknown" pieces with a steep per-character
cost, so genuine splits win but short opaque tokens stay whole.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable

__all__ = ["WordLexicon", "SegmentPiece", "segment_words", "dictionary_bucket"]

UNKNOWN_BASE_COST = 10.0
UNKNOWN_CHAR_COST = 3.0


@dataclass(frozen=True)
class SegmentPiece:
    text: str
    is_word: bool


class WordLexicon:
    """Frequency-ranked word list; rank order drives segmentation cost."""

    def __init__(self, words: Iterable[str]):
        self._cost: dict[str, float] = {}
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
        for rank, w in enumerate(cleaned, start=1):
            self._cost[w] = math.log(rank * log_v)
        self.max_word_len = max(len(w) for w in cleaned)

    def __contains__(self, word: str) -> bool:
        return word in self._cost

    def __len__(self) -> int:
        return len(self._cost)

    def cost(self, word: str) -> float | None:
        return self._cost.get(word)

    @classmethod
    @lru_cache(maxsize=1)
    def bundled(cls) -> "WordLexicon":
        text = resources.files("archive_recommender.data").joinpath("wordfreq.txt").read_text("utf-8")
        return cls(
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        )


def segment_words(text: str, lexicon: WordLexicon | None = None) -> list[SegmentPiece]:
    """Minimum-cost segmentation of a lowercase alphabetic string.

    Pieces concatenate back to the input exactly. Degenerate inputs (empty,
    or containing anything but lowercase letters) come back as a single
    unsplit piece; adjacent unknown stretches coalesce into one piece.
    """
    if lexicon is None:
        lexicon = WordLexicon.bundled()
    if not text:
        return []
    if not (text.isalpha() and text == text.lower()):
        return [SegmentPiece(text, text in lexicon)]

    n = len(text)
    # best[i] = (cost, start_of_last_piece, last_piece_is_word) for text[:i]
    best: list[tuple[float, int, bool]] = [(0.0, 0, False)] + [(math.inf, 0, False)] * n
    for i in range(1, n + 1):
        for j in range(i):
            if best[j][0] == math.inf:
                continue
            piece = text[j:i]
            word_cost = lexicon.cost(piece)
            if word_cost is None:
                cost = best[j][0] + UNKNOWN_BASE_COST + UNKNOWN_CHAR_COST * len(piece)
                candidate = (cost, j, False)
            else:
                candidate = (best[j][0] + word_cost, j, True)
            if candidate[0] < best[i][0]:
                best[i] = candidate

    pieces: list[SegmentPiece] = []
    i = n
    while i > 0:
        _, j, is_word = best[i]
        pieces.append(SegmentPiece(text[j:i], is_word))
        i = j
    pieces.reverse()

    merged: list[SegmentPiece] = []
    for piece in pieces:
        if merged and not piece.is_word and not merged[-1].is_word:
            merged[-1] = SegmentPiece(merged[-1].text + piece.text, False)
        else:
            merged.append(piece)
    return merged


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
