"""Compound-word segmentation."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from importlib import resources
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from archive_recommender.words import (
    UNKNOWN_BASE_COST,
    UNKNOWN_CHAR_COST,
    SegmentPiece,
    WordLexicon,
    dictionary_bucket,
    segment_words,
)


def test_bundled_lexicon_loads_once():
    lex = WordLexicon.bundled()
    assert lex is WordLexicon.bundled()
    assert len(lex) > 1000
    assert "baseball" in lex
    assert lex.cost("the") is not None
    # Zipf cost grows with rank: the top-ranked word is always cheapest.
    assert lex.cost("the") < lex.cost("baseball")


def test_segments_compound_hostname():
    pieces = segment_words("mickeymantlebaseballcards")
    assert [p.text for p in pieces] == ["mickey", "mantle", "baseball", "cards"]
    assert all(p.is_word for p in pieces)


def test_opaque_token_stays_whole():
    pieces = segment_words("odu")
    assert pieces == [SegmentPiece("odu", False)]


def test_mixed_known_unknown():
    pieces = segment_words("radiotunis")
    assert [p.text for p in pieces] == ["radio", "tunis"]


def test_short_unknown_flanks_resist_splitting():
    # base cost per unknown piece keeps short opaque strings whole
    assert segment_words("xqzradioxqz") == [SegmentPiece("xqzradioxqz", False)]


def test_unknown_flanks_split_around_long_dictionary_run():
    pieces = segment_words("xqzwbaseballcardsvjqx")
    texts = [p.text for p in pieces]
    assert "baseball" in texts and "cards" in texts
    # never two unknown pieces in a row
    for a, b in zip(pieces, pieces[1:]):
        assert a.is_word or b.is_word


def test_degenerate_inputs():
    assert segment_words("") == []
    assert segment_words("abc123") == [SegmentPiece("abc123", False)]
    assert segment_words("Sports") == [SegmentPiece("Sports", False)]


def test_degenerate_input_is_no_word_without_a_lexicon_lookup():
    lexicon = WordLexicon(["sports", "abc"])
    looked_up = []
    contains = WordLexicon.__contains__
    with mock.patch.object(WordLexicon, "__contains__", lambda self, word: looked_up.append(word) or contains(self, word)):
        for text in ("Sports", "abc123", "ABC", "sports!"):
            assert segment_words(text, lexicon) == [SegmentPiece(text, False)]
        assert "sports" in lexicon
    assert looked_up == ["sports"]  # the count sees a lookup


def test_dictionary_bucket():
    assert dictionary_bucket("baseballcards") == "all"
    assert dictionary_bucket("xqzwbaseballcardsvjqx") == "some"
    assert dictionary_bucket("odu") == "none"
    assert dictionary_bucket("") == "none"


def test_custom_lexicon_rank_order_matters():
    # "a b" as two words vs the compound "ab": first-ranked words are cheaper.
    lex = WordLexicon(["cat", "dog", "catdog"])
    pieces = segment_words("catdog", lex)
    assert [p.text for p in pieces] == ["cat", "dog"]
    lex2 = WordLexicon(["catdog", "cat", "dog"])
    assert [p.text for p in pieces_text(segment_words("catdog", lex2))] == ["catdog"]


def pieces_text(pieces):
    return [SegmentPiece(p.text, p.is_word) for p in pieces]


def test_empty_lexicon_rejected():
    with pytest.raises(ValueError):
        WordLexicon([])
    with pytest.raises(ValueError):
        WordLexicon(["123", "  "])


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
def test_pieces_concatenate_to_input(text):
    pieces = segment_words(text)
    assert "".join(p.text for p in pieces) == text
    assert not any(not a.is_word and not b.is_word for a, b in zip(pieces, pieces[1:]))  # no two adjacent unknowns


def segment_words_all_pairs(text: str, lexicon: WordLexicon) -> list[SegmentPiece]:
    """Oracle: the dynamic program over every (start, end) pair that
    ``segment_words`` prunes to lexicon prefixes."""
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


def segment_words_priced(text: str, lexicon: WordLexicon) -> list[SegmentPiece]:
    """Oracle: the dynamic program that prices every piece ending at ``i``,
    an unknown piece from each start and a word where the piece is one, and
    walks back by re-pricing each end and taking the first start that reaches
    its least cost. ``segment_words`` prices unknown pieces from open starts
    alone and walks back by its back-pointers."""
    if not text:
        return []
    if not (text.isalpha() and text == text.lower()):
        return [SegmentPiece(text, text in lexicon)]

    n = len(text)
    # words[i] maps the start j of each lexicon word text[j:i] to its word cost.
    words: list[dict[int, float]] = [{} for _ in range(n + 1)]
    for j in range(n):
        for i in range(j + 1, n + 1):
            word_cost = lexicon.cost(text[j:i])
            if word_cost is not None:
                words[i][j] = word_cost

    # opened[j] = cost[j] + UNKNOWN_BASE_COST and steps[n - i + j] =
    # UNKNOWN_CHAR_COST * (i - j), so each unknown piece ending at i is priced
    # exactly as (cost[j] + base) + char * (i - j), the grouping of the sums
    # that decides near-ties.
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
        cost.append(min(priced(i)))

    pieces: list[SegmentPiece] = []
    i = n
    while i > 0:
        j = priced(i).index(cost[i])
        pieces.append(SegmentPiece(text[j:i], j in words[i]))
        i = j
    pieces.reverse()
    return pieces


BUNDLED_WORDS = sorted(
    line.strip()
    for line in resources.files("archive_recommender.data").joinpath("wordfreq.txt").read_text("utf-8").splitlines()
    if line.strip().isalpha()
)
LETTERS = "abcdefghijklmnopqrstuvwxyz"

words_run = st.lists(st.sampled_from(BUNDLED_WORDS), min_size=1, max_size=8).map("".join)
bundled_texts = st.one_of(
    words_run,
    st.text(alphabet=LETTERS, min_size=1, max_size=64),
    st.lists(st.one_of(st.sampled_from(BUNDLED_WORDS), st.text(alphabet=LETTERS, min_size=1, max_size=5)),
             min_size=1, max_size=10).map("".join),
).map(lambda text: text[:64])


@settings(max_examples=200, deadline=None)
@given(bundled_texts)
def test_pruned_dp_matches_all_pairs_oracle_on_bundled_lexicon(text):
    lexicon = WordLexicon.bundled()
    assert segment_words(text, lexicon) == segment_words_all_pairs(text, lexicon)
    assert segment_words(text, lexicon) == segment_words_priced(text, lexicon)
    assert segment_words(text) == segment_words(text, lexicon)
    assert_matches_eager_oracle(text, lexicon)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=6),
    st.text(alphabet="ab", min_size=1, max_size=24),
)
# An unknown piece that can slide along a run of one word: the costs of its
# placements tie but for rounding, so the grouping of each sum decides.
@example(["aa", "bbb", "a"], "bbbbbbbb")
@example(["abb", "aaa", "ab"], "aaaaaaaaaaa")
@example(["aaa", "bb"], "bbbbaaaaaaaaaaaaaabbaaa")
@example(["baa", "aaa", "bb", "ba", "bba"], "aaaaabbabb")
@example(["aba", "aa"], "abaaaaaababaaa")
def test_pruned_dp_matches_all_pairs_oracle_on_tie_heavy_lexicons(words, text):
    # A handful of words over two letters: many segmentations cost the same.
    lexicon = WordLexicon(words)
    assert segment_words(text, lexicon) == segment_words_all_pairs(text, lexicon)
    assert segment_words(text, lexicon) == segment_words_priced(text, lexicon)
    assert_matches_eager_oracle(text, lexicon)


NON_ASCII_LETTERS = "aeéèüßøçñåłж"


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.text(alphabet=NON_ASCII_LETTERS, min_size=1, max_size=5), min_size=1, max_size=8),
    st.text(alphabet=NON_ASCII_LETTERS, min_size=1, max_size=32),
)
def test_pruned_dp_matches_all_pairs_oracle_on_non_ascii_letters(words, text):
    lexicon = WordLexicon(words)
    assert segment_words(text, lexicon) == segment_words_all_pairs(text, lexicon)
    assert segment_words(text, lexicon) == segment_words_priced(text, lexicon)
    bundled = WordLexicon.bundled()
    assert segment_words(text, bundled) == segment_words_all_pairs(text, bundled)
    assert segment_words(text, bundled) == segment_words_priced(text, bundled)
    assert_matches_eager_oracle(text, lexicon)


@lru_cache(maxsize=1)
def oversized_lexicon() -> WordLexicon:
    """50,000 four-letter fillers, then words over "q" and "a" ranked past
    them: "q" and "a" cost more than an unknown piece over their letter."""
    fillers = itertools.islice(map("".join, itertools.product("bcdfghjklmnprst", repeat=4)), 50_000)
    return WordLexicon([*fillers, "q", "a", "qa", "aq", "qqa", "bqa"])


def test_oversized_lexicon_prices_a_dear_word_as_a_word():
    lexicon = oversized_lexicon()
    assert lexicon.cost("q") > UNKNOWN_BASE_COST + UNKNOWN_CHAR_COST
    # An unknown piece over a word's letters is never priced, however dear the word.
    assert segment_words("q", lexicon) == [SegmentPiece("q", True)]
    assert segment_words("bbbbq", lexicon) == [SegmentPiece("bbbb", True), SegmentPiece("q", True)]


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="qab", min_size=1, max_size=24))
@example("q")
@example("qbqbqa")
def test_pruned_dp_matches_priced_oracle_on_oversized_lexicon(text):
    lexicon = oversized_lexicon()
    assert segment_words(text, lexicon) == segment_words_priced(text, lexicon)
    assert_matches_eager_oracle(text, lexicon)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=24))
def test_pruned_dp_matches_all_pairs_oracle_on_any_text(text):
    # Mostly degenerate: empty, upper case, digits, punctuation, whitespace.
    lexicon = WordLexicon.bundled()
    assert segment_words(text, lexicon) == segment_words_all_pairs(text, lexicon)
    assert_matches_eager_oracle(text, lexicon)


def segment_words_eager(text: str, lexicon: WordLexicon) -> list[SegmentPiece]:
    """Oracle: the pruned dynamic program with a word map at every end,
    empty where no word ends. Every end prices the unknown pieces from the
    open starts with the ``j not in ends`` test, then its words, and the
    pieces are built from the back-pointers. ``segment_words`` keeps a word
    map only where a word ends, and ``dictionary_bucket`` builds no pieces."""
    if not text:
        return []
    if not (text.isalpha() and text == text.lower()):
        return [SegmentPiece(text, text in lexicon)]

    n = len(text)
    prefixes = lexicon._prefixes
    not_a_prefix = object()
    ends_at: list[dict[int, float]] = [{} for _ in range(n + 1)]
    padded = text + "."
    for j in range(n):
        i = j + 1
        word_cost = prefixes.get(text[j], not_a_prefix)
        while word_cost is not not_a_prefix:
            if word_cost is not None:
                ends_at[i][j] = word_cost
            i += 1
            word_cost = prefixes.get(padded[j:i], not_a_prefix)

    cost = [0.0]
    back = [(0, False)]
    opened = [0]
    for i in range(1, n + 1):
        ends = ends_at[i]
        best = math.inf
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

    pieces: list[SegmentPiece] = []
    i = n
    while i > 0:
        j, is_word = back[i]
        pieces.append(SegmentPiece(text[j:i], is_word))
        i = j
    pieces.reverse()
    return pieces


def bucket_of_pieces(pieces: list[SegmentPiece]) -> str:
    """Oracle: the dictionary bucket read off the pieces."""
    if pieces and all(p.is_word for p in pieces):
        return "all"
    if any(p.is_word for p in pieces):
        return "some"
    return "none"


def assert_matches_eager_oracle(text: str, lexicon: WordLexicon) -> None:
    """``segment_words`` gives the eager oracle's pieces, and
    ``dictionary_bucket``, with ``lexicon`` as the bundled one, its bucket."""
    pieces = segment_words_eager(text, lexicon)
    assert segment_words(text, lexicon) == pieces
    with mock.patch.object(WordLexicon, "bundled", lambda: lexicon):
        assert dictionary_bucket(text) == bucket_of_pieces(pieces)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["cat", "dog", "catdog", "at", "do", "g"]), unique=True, min_size=1, max_size=6),
    st.lists(st.sampled_from(["cat", "dog", "catdog", "x", "a", "og"]), max_size=8).map("".join),
)
@example(["cat", "dog", "catdog"], "catdog")
@example(["catdog", "cat", "dog"], "catdog")
def test_fast_path_matches_eager_oracle_on_small_lexicons(lexicon_words, text):
    # Few words, whose ranks set the costs: a text splits many ways at close costs.
    assert_matches_eager_oracle(text, WordLexicon(lexicon_words))


def test_dictionary_bucket_builds_no_pieces():
    built = []

    class CountedPiece(SegmentPiece):
        def __init__(self, text, is_word):
            built.append(text)
            super().__init__(text, is_word)

    texts = ["baseballcards", "xqzwbaseballcardsvjqx", "odu", "", "Sports", "the"]
    with mock.patch("archive_recommender.words.SegmentPiece", CountedPiece):
        assert [dictionary_bucket(text) for text in texts] == ["all", "some", "none", "none", "none", "all"]
        assert built == []
        segment_words("baseballcards")
    assert built == ["cards", "baseball"]  # the count sees the pieces segment_words builds
