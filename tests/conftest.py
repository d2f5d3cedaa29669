"""Shared test fixtures.

`fixtures/` at the repository root holds the bundled corpus, recorded
TimeMaps, popularity/damage tables, and the sample access log (regenerate
with `python3 tools/build_fixtures.py`). The synthetic taxonomy built here
is test-only: twelve leaf categories whose entries draw words from disjoint
two-letter alphabets, so their gram vocabularies cannot overlap.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from archive_recommender import archives
from archive_recommender.ontology import CategoryIndex, CategoryPath, OntologyEntry, load_index
from archive_recommender.uri import canonicalize_surt

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Four tops x three leaves; each leaf owns one alphabet pair.
TAXONOMY_PATHS = [
    "Science/Physics/Quantum",
    "Science/Physics/Optics",
    "Science/Biology/Genetics",
    "Arts/Music/Jazz",
    "Arts/Music/Opera",
    "Arts/Film/Documentary",
    "Sports/Water/Rowing",
    "Sports/Water/Surfing",
    "Sports/Track/Sprinting",
    "Society/Law/Contracts",
    "Society/Law/Patents",
    "Society/History/Medieval",
]

_ALPHABETS = [
    ("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"),
    ("i", "j"), ("k", "l"), ("m", "n"), ("o", "p"),
    ("q", "r"), ("s", "t"), ("u", "v"), ("w", "x"),
]


def _category_words(rng: random.Random, alphabet: tuple[str, str], count: int = 6) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        length = rng.randint(5, 7)
        words.add("".join(rng.choice(alphabet) for _ in range(length)))
    return sorted(words)


def build_taxonomy(entries_per_category: int = 8, seed: int = 7) -> CategoryIndex:
    """Deterministic 12-category index with fully separable vocabularies."""
    rng = random.Random(seed)
    entries: list[OntologyEntry] = []
    for path_text, alphabet in zip(TAXONOMY_PATHS, _ALPHABETS):
        path = CategoryPath.parse(path_text)
        words = _category_words(rng, alphabet)
        for i in range(entries_per_category):
            picks = rng.sample(words, 4)
            uri = f"http://{picks[0]}.zz/{picks[1]}/{picks[2]}{i}"
            entries.append(
                OntologyEntry(
                    category=path,
                    uri=uri,
                    surt=canonicalize_surt(uri),
                    title=f"{picks[3]} {picks[0]}",
                    description=f"{picks[1]} {picks[2]}",
                )
            )
    return CategoryIndex(entries)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_index() -> CategoryIndex:
    return load_index(FIXTURES / "index.tsv")


@pytest.fixture(scope="session")
def taxonomy() -> CategoryIndex:
    return build_taxonomy()


@pytest.fixture
def archive_opens(monkeypatch) -> list:
    """Every file object that the ``archives`` module opens with ``open``."""
    opened = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(archives, "open", recording_open, raising=False)
    return opened
