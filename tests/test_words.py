"""Compound-word segmentation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from archive_recommender.words import SegmentPiece, WordLexicon, dictionary_bucket, segment_words


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
    assert "".join(p.text for p in segment_words(text)) == text
