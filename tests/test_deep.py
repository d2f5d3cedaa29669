"""Hierarchical (deep) classification: candidate search, tree pruning, and
the final naive-Bayes assignment."""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from archive_recommender import nbayes
from archive_recommender.deep import (
    CandidateCategory,
    CategoryVectorIndex,
    DeepClassificationError,
    GramScheme,
    build_vector_index,
    classify_deep,
    entry_features,
    evaluate_deep,
    evaluate_levels,
    expand_query,
    prune_tree,
    top_candidates,
    PrunedTree,
)
from archive_recommender.ontology import CategoryIndex, CategoryPath, OntologyEntry
from archive_recommender.uri import TokenBag, TokenMethod, canonicalize_surt, tokenize

from conftest import TAXONOMY_PATHS, build_taxonomy


def P(text: str) -> CategoryPath:
    return CategoryPath.parse(text)


def entry(category: str, uri: str, title=None, description=None) -> OntologyEntry:
    return OntologyEntry(
        category=P(category), uri=uri, surt=canonicalize_surt(uri),
        title=title, description=description,
    )


# ---------------------------------------------------------------------------
# Oracles: the deep stage as it was before the vector index cached row norms
# and per-category sums. The fast paths must agree with them exactly.


def cosine(a: Counter[str], b: Counter[str]) -> float:
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(count * b[feature] for feature, count in a.items() if feature in b)
    if not dot:
        return 0.0
    norm_a = math.sqrt(sum(c * c for c in a.values()))
    norm_b = math.sqrt(sum(c * c for c in b.values()))
    return dot / (norm_a * norm_b)


def top_candidates_by_rescoring(
    vindex: CategoryVectorIndex, query: TokenBag | Sequence[str], n: int = 10
) -> list[CandidateCategory]:
    """Mean cosine against every row, each norm recomputed per pair."""
    qvec = Counter(expand_query(query, vindex.grams))
    if not qvec:
        return []
    scored: list[CandidateCategory] = []
    for path_text, rows in vindex.vectors.items():
        if not rows:
            continue
        score = sum(cosine(qvec, row) for row in rows) / len(rows)
        if score > 0.0:
            scored.append(CandidateCategory(P(path_text), score))
    scored.sort(key=lambda c: (-c.score, c.path))
    return scored[:n]


def classify_deep_by_retraining(
    tree: PrunedTree,
    index: CategoryIndex,
    query: TokenBag | Sequence[str],
    grams: GramScheme = GramScheme.ALL_GRAM,
    smoothing: float = 1.0,
) -> CategoryPath:
    """Featurize every candidate entry again and fit naive Bayes on the lists."""
    corpus: list[tuple[Sequence[str], str]] = []
    for path in sorted(tree.candidates):
        documents = [
            features
            for e in index.entries_for(path)
            if (features := entry_features(e, grams))
        ]
        corpus.extend((features, str(path)) for features in documents)
    if not corpus:
        raise DeepClassificationError("no candidate category has usable documents")
    outcome = nbayes.classify(nbayes.train(corpus, smoothing), expand_query(query, grams))
    if outcome.unclassifiable:
        raise DeepClassificationError("query shares no vocabulary with the candidates")
    return P(outcome.label)


def deep_outcome(classify, *args) -> tuple[str, list[nbayes.Classification]]:
    """The label or the error, with the naive Bayes scores behind it."""
    seen: list[nbayes.Classification] = []
    real = nbayes.classify

    def recording(model, bag):
        seen.append(real(model, bag))
        return seen[-1]

    with mock.patch.object(nbayes, "classify", recording):
        try:
            return str(classify(*args)), seen
        except DeepClassificationError:
            return "DeepClassificationError", seen


class TestFeatureExpansion:
    def test_expand_query_from_tokens_bag(self):
        bag = tokenize("http://odu.edu/compsci", TokenMethod.TOKENS)
        grams = expand_query(bag, GramScheme.ALL_GRAM)
        assert "comp" in grams and "compsci" in grams
        assert "odu" in grams  # short tokens pass through whole

    def test_expand_query_three_gram(self):
        bag = tokenize("http://compsci.zz/", TokenMethod.TOKENS)
        grams = expand_query(bag, GramScheme.THREE_GRAM)
        assert grams == ["com", "omp", "mps", "psc", "sci"]

    def test_pre_expanded_features_pass_through(self):
        assert expand_query(["abcd", "efgh"], GramScheme.ALL_GRAM) == ["abcd", "efgh"]

    def test_entry_features_include_title_and_description(self):
        e = entry("Sports/Baseball", "http://team.example.com/", "Cardinals", "club news")
        features = entry_features(e, GramScheme.ALL_GRAM)
        assert "card" in features  # from the title
        assert "club" in features and "news" in features
        assert "team" in features  # from the URI


class TestCosine:
    def test_identical(self):
        v = Counter({"a": 2, "b": 1})
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(Counter({"a": 1}), Counter({"b": 1})) == 0.0

    def test_hand_value(self):
        a = Counter({"x": 1, "y": 1})
        b = Counter({"x": 1})
        assert cosine(a, b) == pytest.approx(1 / 2**0.5)

    def test_empty(self):
        assert cosine(Counter(), Counter({"a": 1})) == 0.0

    def test_symmetric(self):
        a = Counter({"x": 3, "y": 1, "z": 2})
        b = Counter({"y": 5, "z": 1})
        assert cosine(a, b) == pytest.approx(cosine(b, a))


class TestVectorIndex:
    def test_vectors_grouped_by_deepest_category(self):
        index = CategoryIndex(
            [
                entry("Computers/Hardware", "http://boards.example.com/"),
                entry("Computers/Hardware", "http://chips.example.org/"),
                entry("Computers", "http://general.example.net/"),
            ]
        )
        vindex = build_vector_index(index, GramScheme.ALL_GRAM)
        assert set(vindex.vectors) == {"Computers/Hardware", "Computers"}
        assert len(vindex.vectors["Computers/Hardware"]) == 2

    def test_featureless_entries_are_excluded(self):
        index = CategoryIndex(
            [
                entry("Computers", "http://boards.example.com/"),
                entry("Computers", "http://ab.cd/"),  # nothing longer than 2 letters
            ]
        )
        vindex = build_vector_index(index, GramScheme.ALL_GRAM)
        assert vindex.excluded == 1

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            build_vector_index(CategoryIndex([]), GramScheme.ALL_GRAM)


class TestTopCandidates:
    def test_true_category_first_for_every_leaf(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        for path_text in TAXONOMY_PATHS:
            probe = taxonomy.entries_for(path_text)[0]
            query = tokenize(probe.uri, TokenMethod.TOKENS)
            candidates = top_candidates(vindex, query, 10)
            assert candidates, path_text
            assert str(candidates[0].path) == path_text

    def test_orthogonal_query_yields_nothing(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        assert top_candidates(vindex, ["zzzzyyyy"], 10) == []
        assert top_candidates(vindex, [], 10) == []

    def test_scores_descend_and_are_capped(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        probe = taxonomy.entries_for(TAXONOMY_PATHS[0])[0]
        candidates = top_candidates(vindex, tokenize(probe.uri, TokenMethod.TOKENS), 3)
        assert len(candidates) <= 3
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 < c.score <= 1.0 for c in candidates)

    def test_n_guard(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        with pytest.raises(ValueError):
            top_candidates(vindex, ["abcd"], 0)


class TestPruneTree:
    def test_siblings_stand_alone(self):
        tree = prune_tree([P("A/B/C"), P("A/B/D")])
        assert tree.candidates == frozenset({P("A/B/C"), P("A/B/D")})
        assert tree.nodes == tree.candidates  # no ancestor chains added

    def test_unrelated_candidates_keep_ancestors(self):
        tree = prune_tree([P("A/B/C"), P("X/Y")])
        assert tree.nodes == frozenset({P("A"), P("A/B"), P("A/B/C"), P("X"), P("X/Y")})
        assert tree.candidates == frozenset({P("A/B/C"), P("X/Y")})

    def test_single_top_level_candidate(self):
        tree = prune_tree([P("A")])
        assert tree.nodes == frozenset({P("A")})

    def test_shared_top_isolated_below(self):
        # same top category, nothing shared deeper: the root absorbs level
        # 1, so each candidate keeps its chain strictly below it
        tree = prune_tree([P("A/B/C"), P("A/X/Y")])
        assert tree.nodes == frozenset(
            {P("A/B"), P("A/B/C"), P("A/X"), P("A/X/Y")}
        )

    def test_candidate_order_and_duplicates_ignored(self):
        a = prune_tree([P("A/B/C"), P("A/B/D"), P("A/B/C")])
        b = prune_tree([P("A/B/D"), P("A/B/C")])
        assert a.nodes == b.nodes and a.candidates == b.candidates

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prune_tree([])

    def test_structural_invariants_enforced(self):
        # every candidate is a node
        with pytest.raises(ValueError):
            PrunedTree(nodes=frozenset({P("A")}), candidates=frozenset({P("A"), P("B")}))
        # every extra node is a strict ancestor of some candidate
        with pytest.raises(ValueError):
            PrunedTree(
                nodes=frozenset({P("A/B"), P("Z")}), candidates=frozenset({P("A/B")})
            )
        with pytest.raises(ValueError):
            PrunedTree(nodes=frozenset(), candidates=frozenset())


class TestClassifyDeep:
    def test_recovers_leaf_on_taxonomy(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        probe = taxonomy.entries_for(TAXONOMY_PATHS[3])[2]
        query = tokenize(probe.uri, TokenMethod.TOKENS)
        tree = prune_tree([c.path for c in top_candidates(vindex, query, 10)])
        predicted = classify_deep(tree, vindex, query)
        assert str(predicted) == TAXONOMY_PATHS[3]

    def test_picks_nearer_of_two_candidates(self):
        index = CategoryIndex(
            [
                entry("Arts/Music", "http://melody.example.com/", "melody songs"),
                entry("Arts/Music", "http://tunes.example.com/", "melody concert"),
                entry("Arts/Film", "http://cinema.example.com/", "cinema movies"),
                entry("Arts/Film", "http://reels.example.com/", "cinema reels"),
            ]
        )
        vindex = build_vector_index(index, GramScheme.ALL_GRAM)
        tree = prune_tree([P("Arts/Music"), P("Arts/Film")])
        assert str(classify_deep(tree, vindex, ["melody", "songs"])) == "Arts/Music"
        assert str(classify_deep(tree, vindex, ["cinema", "reels"])) == "Arts/Film"

    def test_no_usable_documents_raises(self):
        index = CategoryIndex([entry("Arts/Music", "http://melody.example.com/")])
        vindex = build_vector_index(index, GramScheme.ALL_GRAM)
        tree = prune_tree([P("Arts/Film")])  # no entries for this path
        with pytest.raises(DeepClassificationError):
            classify_deep(tree, vindex, ["melody"])

    def test_disjoint_query_raises(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        tree = prune_tree([P(TAXONOMY_PATHS[0])])
        with pytest.raises(DeepClassificationError):
            classify_deep(tree, vindex, ["qqqqqqq"])


_LABELS = st.sampled_from(["A", "B", "C"])
_WORDS = st.text(alphabet="abcde", min_size=3, max_size=7)
_NOISE = st.text(alphabet="vwxyz", min_size=3, max_size=6)


@st.composite
def small_index_and_query(draw) -> tuple[CategoryIndex, TokenBag, list[CategoryPath]]:
    """2-4 categories at depths 1-3, 1-4 entries each, some with no
    features; the query mixes index words with noise."""
    paths = draw(
        st.lists(
            st.lists(_LABELS, min_size=1, max_size=3).map(tuple),
            min_size=2, max_size=4, unique=True,
        )
    )
    vocabulary: list[str] = []
    entries: list[OntologyEntry] = []
    for labels in paths:
        for _ in range(draw(st.integers(1, 4))):
            k = len(entries)
            if draw(st.integers(0, 4)) == 0:
                entries.append(entry("/".join(labels), f"http://q{k}.zz/"))
                continue
            host, page = draw(_WORDS), draw(_WORDS)
            title = draw(st.none() | _WORDS)
            vocabulary.extend(w for w in (host, page, title) if w)
            entries.append(entry("/".join(labels), f"http://{host}{k}.zz/{page}", title))
    word = st.sampled_from(vocabulary) | _NOISE if vocabulary else _NOISE
    query_words = draw(st.lists(word, max_size=4))
    query = TokenBag(TokenMethod.TOKENS, frozenset(), tuple(query_words))
    tree_paths = draw(st.lists(st.sampled_from(paths), min_size=1, unique=True))
    return CategoryIndex(entries), query, [CategoryPath(labels) for labels in tree_paths]


class TestAgainstRescoringOracles:
    """Cached norms and per-category sums give the same candidates, cosine
    scores, naive Bayes scores and labels as rescoring and retraining from
    the entries, equal to the last bit."""

    @given(
        small_index_and_query(),
        st.sampled_from(list(GramScheme)),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_indexes(self, case, grams, n):
        index, query, tree_paths = case
        vindex = build_vector_index(index, grams)
        candidates = top_candidates(vindex, query, n)
        assert candidates == top_candidates_by_rescoring(vindex, query, n)
        trees = [prune_tree(tree_paths)]
        if candidates:
            trees.append(prune_tree([c.path for c in candidates]))
        for tree in trees:
            assert deep_outcome(classify_deep, tree, vindex, query) == (
                deep_outcome(classify_deep_by_retraining, tree, index, query, grams)
            )

    @pytest.mark.parametrize("grams", list(GramScheme))
    def test_every_fixture_entry_as_query(self, corpus_index, grams):
        subtrees: dict[str, tuple[CategoryIndex, CategoryVectorIndex]] = {}
        for probe in corpus_index.all_entries():
            top = probe.category.top
            if top not in subtrees:
                sub = CategoryIndex(corpus_index.entries_under(P(top)))
                subtrees[top] = (sub, build_vector_index(sub, grams))
            sub, vindex = subtrees[top]
            query = tokenize(probe.uri, TokenMethod.TOKENS)
            candidates = top_candidates(vindex, query, 10)
            assert candidates == top_candidates_by_rescoring(vindex, query, 10), probe.uri
            if candidates:
                tree = prune_tree([c.path for c in candidates])
                assert deep_outcome(classify_deep, tree, vindex, query) == (
                    deep_outcome(classify_deep_by_retraining, tree, sub, query, grams)
                ), probe.uri


class TestEvaluateLevels:
    def test_prefix_agreement(self):
        truth, predicted = P("A/B/C"), P("A/B/D")
        assert evaluate_levels(truth, predicted, 1)
        assert evaluate_levels(truth, predicted, 2)
        assert not evaluate_levels(truth, predicted, 3)

    def test_short_paths_fail_deep_levels(self):
        assert not evaluate_levels(P("A/B"), P("A"), 2)
        assert not evaluate_levels(P("A"), P("A/B"), 2)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            evaluate_levels(P("A"), P("A"), 0)


class TestEvaluateDeep:
    def test_separable_taxonomy_recovers_full_paths(self, taxonomy):
        report = evaluate_deep(taxonomy, holdout_fraction=0.1)
        assert report.holdout == 10
        assert report.failures == 0
        assert report.levels[3] >= 0.95

    def test_levels_monotone_non_increasing(self, taxonomy):
        report = evaluate_deep(taxonomy, holdout_fraction=0.1)
        values = [report.levels[k] for k in sorted(report.levels)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert sorted(report.levels) == [1, 2, 3]

    def test_breakdowns_cover_holdout(self, taxonomy):
        report = evaluate_deep(taxonomy, holdout_fraction=0.1)
        assert set(report.by_category) <= {p.split("/")[0] for p in TAXONOMY_PATHS}
        assert report.by_dictionary  # every synthetic host is non-dictionary
        records = report.to_records()
        assert any(r["section"] == "level" for r in records)
        assert "Mi-F1" in report.to_table()

    def test_holdout_guard(self, taxonomy):
        with pytest.raises(ValueError):
            evaluate_deep(taxonomy, holdout_fraction=0.0)
        with pytest.raises(ValueError):
            evaluate_deep(taxonomy, holdout_fraction=1.0)
