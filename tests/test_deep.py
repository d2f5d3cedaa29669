"""Hierarchical (deep) classification: candidate search, tree pruning, and
the final naive-Bayes assignment."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import groupby
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from archive_recommender import deep, nbayes
from archive_recommender.deep import (
    CandidateCategory,
    CategoryVectorIndex,
    DeepClassificationError,
    DeepEvalReport,
    GramScheme,
    build_vector_index,
    classify_deep,
    entry_features,
    evaluate_deep,
    expand_query,
    prune_tree,
    refine,
    subtree_index,
    top_candidates,
    PrunedTree,
)
from archive_recommender.ontology import CategoryIndex, CategoryPath, OntologyEntry, load_index
from archive_recommender.pipeline import train_l1
from archive_recommender.reports import host_dictionary_bucket
from archive_recommender.uri import (
    TokenBag,
    TokenMethod,
    canonicalize_surt,
    depth,
    detect_patterns,
    parse_uri,
    text_tokens,
    token_grams,
    tokenize,
)

from conftest import FIXTURES, TAXONOMY_PATHS, build_taxonomy, count_calls


def P(text: str) -> CategoryPath:
    return CategoryPath.parse(text)


def entry(category: str, uri: str, title=None, description=None) -> OntologyEntry:
    return OntologyEntry(
        category=P(category), uri=uri, surt=canonicalize_surt(uri),
        title=title, description=description,
    )


# ---------------------------------------------------------------------------
# Oracles: the deep stage as it was before the vector index cached row norms
# and per-category sums, and before it kept gram postings in place of rows.
# The fast paths must agree with them exactly.


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


def category_rows(index: CategoryIndex, grams: GramScheme) -> dict[CategoryPath, list[Counter[str]]]:
    """One gram Counter per entry with features, by deepest category path,
    featurized from the entries as the vector index used to keep them."""
    rows: dict[CategoryPath, list[Counter[str]]] = {}
    for path in index.categories():
        counters = [Counter(entry_features(e, grams)) for e in index.entries_for(path)]
        rows[path] = [counts for counts in counters if counts]
    return rows


def top_candidates_by_row_scan(
    index: CategoryIndex, grams: GramScheme, query: Sequence[str], n: int = 10
) -> list[CandidateCategory]:
    """Mean cosine by a scan of every row of every category, with the row
    norms taken once per row and each dot product over the query's grams."""
    qvec = Counter(query)
    if not qvec:
        return []
    qitems = list(qvec.items())
    qnorm = math.sqrt(sum(c * c for c in qvec.values()))
    scored: list[CandidateCategory] = []
    for path, rows in category_rows(index, grams).items():
        if not rows:
            continue
        total = 0.0
        for row in rows:
            rownorm = math.sqrt(sum(c * c for c in row.values()))
            dot = 0
            for gram, count in qitems:
                if gram in row:
                    dot += count * row[gram]
            if dot:
                total += dot / (qnorm * rownorm)
        score = total / len(rows)
        if score > 0.0:
            scored.append(CandidateCategory(path, score))
    scored.sort(key=lambda c: (-c.score, c.path))
    return scored[:n]


def top_candidates_by_rescoring(
    index: CategoryIndex, grams: GramScheme, query: Sequence[str], n: int = 10
) -> list[CandidateCategory]:
    """Mean cosine against every row, each norm recomputed per pair. The
    cosines are added in row order, one at a time, as ``top_candidates``
    adds them; from Python 3.12 the builtin ``sum`` compensates its float
    additions, and can differ in the last place."""
    qvec = Counter(query)
    if not qvec:
        return []
    scored: list[CandidateCategory] = []
    for path, rows in category_rows(index, grams).items():
        if not rows:
            continue
        total = 0.0
        for row in rows:
            total += cosine(qvec, row)
        score = total / len(rows)
        if score > 0.0:
            scored.append(CandidateCategory(path, score))
    scored.sort(key=lambda c: (-c.score, c.path))
    return scored[:n]


def row_counts(vindex: CategoryVectorIndex) -> dict[str, int]:
    return {key: vindex.row_counts[ordinal] for key, ordinal in vindex.ordinals.items()}


def classify_deep_by_retraining(
    tree: PrunedTree,
    index: CategoryIndex,
    query: Sequence[str],
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
    outcome = nbayes.classify(nbayes.train(corpus, smoothing), query)
    if outcome.unclassifiable:
        raise DeepClassificationError("query shares no vocabulary with the candidates")
    return P(outcome.label)


def refine_by_steps(
    vindex: CategoryVectorIndex, query: TokenBag, n: int, smoothing: float
) -> tuple[CategoryPath, list[CandidateCategory], PrunedTree]:
    """The deep stage as the recommender ran it step by step, with the
    query expanded again for each scorer (looked up in ``deep``, so that a
    test can count the expansions)."""
    candidates = top_candidates(vindex, deep.expand_query(query, vindex.grams), n)
    if not candidates:
        raise DeepClassificationError("no category shares vocabulary with the query")
    tree = prune_tree([c.path for c in candidates])
    return classify_deep(tree, vindex, deep.expand_query(query, vindex.grams), smoothing), candidates, tree


def evaluate_levels(truth: CategoryPath, predicted: CategoryPath, level: int) -> bool:
    """True iff both paths reach `level` and agree on the first `level` labels."""
    if len(truth) < level or len(predicted) < level:
        return False
    return truth.labels[:level] == predicted.labels[:level]


def evaluate_deep_by_steps(
    index: CategoryIndex,
    holdout_fraction: float = 0.1,
    grams: GramScheme = GramScheme.ALL_GRAM,
    n_candidates: int = 10,
    smoothing: float = 1.0,
) -> DeepEvalReport:
    """``evaluate_deep`` with its own copy of the deep stage, which looks
    each held-out entry's subtree up again."""
    entries = list(index.all_entries())
    stride = max(2, round(1.0 / holdout_fraction))
    holdout = [e for i, e in enumerate(entries) if i % stride == 0]
    training_index = CategoryIndex([e for i, e in enumerate(entries) if i % stride != 0])
    vindex_cache: dict[str, CategoryVectorIndex] = {}
    skipped: set[str] = set()
    evaluated: list[tuple[OntologyEntry, CategoryPath]] = []
    failures = 0
    for entry in holdout:
        top = entry.category.top
        top_path = CategoryPath((top,))
        subtree = training_index.entries_under(top_path)
        if not subtree:
            skipped.add(top)
            continue
        if top not in vindex_cache:
            vindex_cache[top] = build_vector_index(CategoryIndex(subtree), grams)
        query = expand_query(tokenize(entry.uri, TokenMethod.TOKENS), grams)
        candidates = top_candidates(vindex_cache[top], query, n_candidates)
        predicted = top_path
        if candidates:
            try:
                tree = prune_tree([c.path for c in candidates])
                predicted = classify_deep(tree, vindex_cache[top], query, smoothing)
            except DeepClassificationError:
                failures += 1
        else:
            failures += 1
        evaluated.append((entry, predicted))

    total = len(evaluated)
    max_level = max((len(e.category) for e, _ in evaluated), default=1)
    levels = {
        k: sum(1 for e, p in evaluated if evaluate_levels(e.category, p, k)) / total if total else 0.0
        for k in range(1, max_level + 1)
    }
    tallies: dict[tuple[str, object], list[int]] = {}
    for entry, predicted in evaluated:
        correct = evaluate_levels(entry.category, predicted, len(entry.category))
        parsed = parse_uri(entry.uri)
        keys = (
            ("category", entry.category.top),
            ("depth", depth(parsed)),
            ("dictionary", host_dictionary_bucket(parsed)),
            ("long", "long_strings.hostname" in detect_patterns(parsed)),
        )
        for section, key in keys:
            bucket = tallies.setdefault((section, key), [0, 0])
            bucket[0] += int(correct)
            bucket[1] += 1

    def ratios(section: str) -> dict:
        return {key: hit / seen for (s, key), (hit, seen) in tallies.items() if s == section}

    return DeepEvalReport(
        levels=levels,
        holdout=total,
        failures=failures,
        skipped_categories=sorted(skipped),
        by_category=ratios("category"),
        by_depth=ratios("depth"),
        by_dictionary=ratios("dictionary"),
        by_long_strings=ratios("long"),
    )


# ---------------------------------------------------------------------------
# Oracles: the index build before it kept each token's grams for the rest
# of the build, and the pruning and tree check before they ran in linear
# time. The build, the pruning and the check must agree with them exactly.


def entry_features_whole(entry: OntologyEntry, grams: GramScheme) -> list[str]:
    """The grams of all of an entry's tokens from one ``token_grams`` call."""
    tokens = list(tokenize(entry.uri, TokenMethod.TOKENS).features)
    for text in (entry.title, entry.description):
        if text:
            tokens.extend(text_tokens(text))
    return token_grams(tokens, grams.sizes)


def build_vector_index_per_entry(
    index: CategoryIndex, grams: GramScheme, pairs: dict[str, array] | None = None
) -> CategoryVectorIndex:
    """The build loop with each entry featurized on its own. It keeps each
    gram's postings as (row, count) pairs, interleaved in an array, in
    ``pairs`` when given, and packs them as row multisets at its end."""
    if not len(index):
        raise ValueError("cannot build a vector index from an empty category index")
    postings: dict[str, array] = {} if pairs is None else pairs
    norms = array("d")
    row_category = array("I")
    paths: list[CategoryPath] = []
    row_counts: list[int] = []
    totals: dict[str, Counter[str]] = {}
    for path in index.categories():
        ordinal, rows = len(paths), 0
        total: Counter[str] = Counter()
        for entry in index.entries_for(path):
            features = entry_features_whole(entry, grams)
            if not features:
                continue
            counts = Counter(features)
            row, squares = len(norms), 0
            for gram, count in counts.items():
                squares += count * count
                posting = postings.get(gram)
                if posting is None:
                    posting = postings[gram] = array("I")
                posting.append(row)
                posting.append(count)
            norms.append(math.sqrt(squares))
            row_category.append(ordinal)
            total.update(features)
            rows += 1
        paths.append(path)
        row_counts.append(rows)
        totals[str(path)] = total
    code = deep._row_typecode(len(norms))
    packed: dict[str, bytes] = {}
    for gram, posting in postings.items():
        items = iter(posting)
        packed[gram] = array(code, [row for row, count in zip(items, items) for _ in range(count)]).tobytes()
    return CategoryVectorIndex(
        grams=grams,
        postings=packed,
        norms=norms,
        row_category=row_category,
        paths=tuple(paths),
        row_counts=tuple(row_counts),
        ordinals={key: ordinal for ordinal, key in enumerate(totals)},
        totals=totals,
    )


def check_tree_pairwise(nodes: frozenset[CategoryPath], candidates: frozenset[CategoryPath]) -> None:
    """``PrunedTree``'s checks, each non-candidate node against every candidate."""
    if not candidates:
        raise ValueError("pruned tree needs at least one candidate")
    if not candidates <= nodes:
        raise ValueError("every candidate must be a node")
    for node in nodes - candidates:
        if not any(node.is_prefix_of(c) and node != c for c in candidates):
            raise ValueError(f"non-candidate node {node} is not an ancestor of any candidate")


def _common_prefix_len(a: CategoryPath, b: CategoryPath) -> int:
    n = 0
    for x, y in zip(a.labels, b.labels):
        if x != y:
            break
        n += 1
    return n


def prune_tree_pairwise(candidates: Sequence[CategoryPath]) -> PrunedTree:
    """Ancestor-assistance pruning, each candidate against every other."""
    if not candidates:
        raise ValueError("no candidate categories to prune")
    ordered = list(dict.fromkeys(candidates))
    root_len = 1 if len({c.labels[0] for c in ordered}) == 1 else 0
    nodes: set[CategoryPath] = set(ordered)
    for candidate in ordered:
        supported = any(
            _common_prefix_len(candidate, other) > root_len
            for other in ordered
            if other != candidate
        )
        if not supported:
            for ancestor in candidate.ancestors():
                if len(ancestor) > root_len:
                    nodes.add(ancestor)
    return PrunedTree(nodes=frozenset(nodes), candidates=frozenset(ordered))


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

    @pytest.mark.parametrize(
        "query",
        [
            ["abcd", "efgh"],
            ("abcd",),
            tokenize("http://odu.edu/compsci", TokenMethod.ALL_GRAMS_URI),
            tokenize("http://odu.edu/compsci", TokenMethod.ALL_GRAMS_TOKENS),
        ],
        ids=["list", "tuple", "all-grams-uri-bag", "all-grams-tokens-bag"],
    )
    def test_only_a_tokens_bag_expands(self, query):
        with pytest.raises(ValueError, match="expand_query takes a TOKENS bag"):
            expand_query(query, GramScheme.ALL_GRAM)

    def test_scorers_reject_a_bag(self):
        vindex = build_vector_index(CategoryIndex([entry("A", "http://compsci.zz/")]), GramScheme.ALL_GRAM)
        tree = prune_tree([P("A")])
        for bag in (
            tokenize("http://compsci.zz/", TokenMethod.ALL_GRAMS_URI),
            tokenize("http://compsci.zz/", TokenMethod.TOKENS),
        ):
            with pytest.raises(ValueError, match="scores gram lists"):
                top_candidates(vindex, bag, 10)
            with pytest.raises(ValueError, match="scores gram lists"):
                classify_deep(tree, vindex, bag)

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
        assert row_counts(vindex) == {"Computers": 1, "Computers/Hardware": 2}
        assert vindex.paths == (P("Computers"), P("Computers/Hardware"))
        assert list(vindex.row_category) == [0, 1, 1]
        assert list(vindex.totals) == ["Computers", "Computers/Hardware"]
        # row ids, ascending, one byte each in an index of at most 256 rows
        assert vindex.postings["board"] == bytes([1])
        assert vindex.postings["example"] == bytes([0, 1, 2])

    def test_a_row_occurs_once_per_occurrence_of_the_gram(self):
        index = CategoryIndex(
            [
                entry("A", "http://chips.example.com/", "chips chips"),
                entry("B", "http://boards.example.com/chips"),
            ]
        )
        vindex = build_vector_index(index, GramScheme.ALL_GRAM)
        assert vindex.postings["chips"] == bytes([0, 0, 0, 1])
        assert vindex.postings["board"] == bytes([1])

    @pytest.mark.parametrize(
        "rows, code", [(1, "B"), (256, "B"), (257, "H"), (65_536, "H"), (65_537, "I"), (2**32, "I")]
    )
    def test_row_typecode_is_the_narrowest_that_holds_every_row_id(self, rows, code):
        assert deep._row_typecode(rows) == code
        assert rows - 1 < 256 ** array(code).itemsize

    def test_featureless_entries_are_excluded(self):
        index = CategoryIndex(
            [
                entry("Computers", "http://boards.example.com/"),
                entry("Computers", "http://ab.cd/"),  # nothing longer than 2 letters
                entry("Computers/Tiny", "http://xy.zw/"),
            ]
        )
        vindex = build_vector_index(index, GramScheme.ALL_GRAM)
        assert row_counts(vindex) == {"Computers": 1, "Computers/Tiny": 0}
        assert len(vindex.norms) == len(vindex.row_category) == 1
        assert vindex.totals["Computers/Tiny"] == Counter()
        candidates = top_candidates(vindex, ["board", "xyzw"], 10)
        assert [c.path for c in candidates] == [P("Computers")]
        assert candidates == top_candidates_by_row_scan(index, GramScheme.ALL_GRAM, ["board", "xyzw"])

    def test_index_keys_that_parse_to_one_path(self):
        # The paths Top/A and Top/Top/A print as index keys that parse to
        # the paths A and Top/A. Each group is scored once, under its own
        # path, and none is dropped.
        top_a, top_top_a = CategoryPath(("Top", "A")), CategoryPath(("Top", "Top", "A"))
        index = CategoryIndex(
            [
                replace(entry("A", "http://boards.example.com/"), category=top_a),
                entry("A", "http://chips.example.org/"),
                replace(entry("A", "http://wafers.example.com/"), category=top_top_a),
                entry("B", "http://chips.example.net/"),
            ]
        )
        for grams in GramScheme:
            vindex = build_vector_index(index, grams)
            assert row_counts(vindex) == {"A": 1, "B": 1, "Top/A": 1, "Top/Top/A": 1}
            assert vindex.paths == (P("A"), P("B"), top_a, top_top_a)
            for query in (["chip"], ["board"], ["boards", "chips"], ["wafer"]):
                assert top_candidates(vindex, query, 10) == (
                    top_candidates_by_row_scan(index, grams, query, 10)
                )

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            build_vector_index(CategoryIndex([]), GramScheme.ALL_GRAM)


class TestTopCandidates:
    def test_true_category_first_for_every_leaf(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        for path_text in TAXONOMY_PATHS:
            probe = taxonomy.entries_for(path_text)[0]
            query = expand_query(tokenize(probe.uri, TokenMethod.TOKENS), GramScheme.ALL_GRAM)
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
        candidates = top_candidates(vindex, expand_query(tokenize(probe.uri, TokenMethod.TOKENS), vindex.grams), 3)
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
        query = expand_query(tokenize(probe.uri, TokenMethod.TOKENS), GramScheme.ALL_GRAM)
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

    def test_winner_is_the_path_the_index_holds(self):
        """A path whose text parses to another path, with a leading Top
        label or outer whitespace, is returned as itself, so its entries
        are found under it."""
        paths = [CategoryPath(("Top", "Arts", "Music")), CategoryPath(("Top", "Arts", "Film")),
                 CategoryPath((" Arts", "Music "))]
        uris = ["http://guitar.example.org/", "http://cinema.example.org/", "http://piano.example.org/"]
        index = CategoryIndex(replace(entry("A", uri), category=path) for uri, path in zip(uris, paths))
        vindex = build_vector_index(index, GramScheme.ALL_GRAM)
        for uri, path in zip(uris, paths):
            category = refine(vindex, tokenize(uri, TokenMethod.TOKENS), 10, 1.0)[0]
            assert category == path
            assert category is vindex.paths[vindex.ordinals[str(path)]]
            assert [e.uri for e in index.entries_for(category)] == [uri]

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
        index, bag, tree_paths = case
        query = expand_query(bag, grams)
        vindex = build_vector_index(index, grams)
        candidates = top_candidates(vindex, query, n)
        assert candidates == top_candidates_by_rescoring(index, grams, query, n)
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
            query = expand_query(tokenize(probe.uri, TokenMethod.TOKENS), grams)
            candidates = top_candidates(vindex, query, 10)
            assert candidates == top_candidates_by_rescoring(sub, grams, query, 10), probe.uri
            if candidates:
                tree = prune_tree([c.path for c in candidates])
                assert deep_outcome(classify_deep, tree, vindex, query) == (
                    deep_outcome(classify_deep_by_retraining, tree, sub, query, grams)
                ), probe.uri


class TestPostings:
    """Scoring from gram postings gives the candidates, scores included,
    of a scan of every row."""

    @given(st.data(), st.sampled_from(list(GramScheme)), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_same_as_the_row_scan(self, data, grams, n):
        index, bag, _ = data.draw(small_index_and_query())
        if data.draw(st.booleans()):
            # a category whose every entry is featureless
            bare = [entry("C/Bare", f"http://b{k}.zz/") for k in range(data.draw(st.integers(1, 3)))]
            index = CategoryIndex([*index.all_entries(), *bare])
        indexed = sorted({g for e in index.all_entries() for g in entry_features(e, grams)})
        gram = st.sampled_from(indexed) | _NOISE if indexed else _NOISE
        # pre-expanded queries repeat grams and hold grams the index lacks
        query = data.draw(st.just(expand_query(bag, grams)) | st.lists(gram, max_size=12))
        vindex = build_vector_index(index, grams)
        candidates = top_candidates(vindex, query, n)
        assert candidates == top_candidates_by_row_scan(index, grams, query, n)
        assert P("C/Bare") not in [c.path for c in candidates]

    @given(st.data(), st.sampled_from(list(GramScheme)), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_same_as_the_row_scan_past_256_rows(self, data, grams, n):
        index, bag, _ = data.draw(small_index_and_query())
        # filler rows over a few words, spread over the index's categories,
        # take it past 256 rows, so that its row ids are packed wider
        paths = [str(path) for path in index.categories()]
        words = ["board", "chips", "wafers", "boards", "circuit"]
        rows = data.draw(st.integers(257, 300))
        filler = [
            entry(paths[k % len(paths)], f"http://{words[k % 5]}{k}.zz/{words[k * 3 % 5]}")
            for k in range(rows)
        ]
        index = CategoryIndex([*index.all_entries(), *filler])
        vindex = build_vector_index(index, grams)
        assert deep._row_typecode(len(vindex.norms)) == "H"
        indexed = expand_query(TokenBag(TokenMethod.TOKENS, frozenset(), tuple(words)), grams)
        gram = st.sampled_from(indexed) | _NOISE
        query = data.draw(st.just(expand_query(bag, grams)) | st.lists(gram, max_size=12))
        candidates = top_candidates(vindex, query, n)
        assert candidates == top_candidates_by_row_scan(index, grams, query, n)

    @pytest.mark.parametrize("code", ["H", "I"])
    def test_wider_row_ids_score_the_same(self, code):
        """Every typecode packs the same postings: each fixture subtree,
        built with its row ids forced wider, scores each of its entries as
        the narrow build does."""
        index = fixture_index()
        for top in sorted({p.top for p in index.categories()}):
            sub = CategoryIndex(index.entries_under(P(top)))
            narrow = build_vector_index(sub, GramScheme.ALL_GRAM)
            queries = [
                expand_query(tokenize(e.uri, TokenMethod.TOKENS), GramScheme.ALL_GRAM) for e in sub.all_entries()
            ]
            expected = [top_candidates(narrow, query, 10) for query in queries]
            with mock.patch.object(deep, "_row_typecode", return_value=code):
                wide = build_vector_index(sub, GramScheme.ALL_GRAM)
                assert [top_candidates(wide, query, 10) for query in queries] == expected, top
            assert {g: len(p) for g, p in wide.postings.items()} == {
                g: len(p) * array(code).itemsize for g, p in narrow.postings.items()
            }, top


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

    def test_breakdowns_parse_each_evaluated_entry_once(self, monkeypatch, corpus_index):
        calls = count_calls(monkeypatch, {"parse_uri": parse_uri, "tokenize": tokenize})
        report = evaluate_deep(corpus_index)
        # Every tokenize call parses once; the breakdowns add one parse per evaluated entry.
        assert len(calls["parse_uri"]) == len(calls["tokenize"]) + report.holdout

    def test_holdout_guard(self, taxonomy):
        with pytest.raises(ValueError):
            evaluate_deep(taxonomy, holdout_fraction=0.0)
        with pytest.raises(ValueError):
            evaluate_deep(taxonomy, holdout_fraction=1.0)
        with pytest.raises(ValueError, match=r"\(0, 0\.5\]"):
            evaluate_deep(taxonomy, holdout_fraction=0.51)


@lru_cache(maxsize=1)
def fixture_index() -> CategoryIndex:
    return load_index(FIXTURES / "index.tsv")


@lru_cache(maxsize=None)
def fixture_subtree(top: str, grams: GramScheme) -> tuple[CategoryVectorIndex, tuple[str, ...]]:
    """The fixture index's subtree under ``top`` and the words of its entries."""
    index = fixture_index()
    words = {
        w
        for e in index.entries_under(P(top))
        for w in text_tokens(" ".join((e.uri, e.title or "", e.description or "")))
    }
    return subtree_index(index, top, grams), tuple(sorted(words))


def outcome_or_message(fn, *args):
    try:
        return fn(*args)
    except DeepClassificationError as exc:
        return str(exc)


class TestRefine:
    """``refine`` is the one deep stage of ``recommend`` and ``evaluate-deep``."""

    @given(st.data(), st.sampled_from(list(GramScheme)), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_same_as_the_steps_over_fixture_subtrees(self, data, grams, n):
        top = data.draw(st.sampled_from(sorted({p.top for p in fixture_index().categories()})))
        vindex, words = fixture_subtree(top, grams)
        query_words = data.draw(st.lists(st.sampled_from(words) | _NOISE, max_size=6))
        query = TokenBag(TokenMethod.TOKENS, frozenset(), tuple(query_words))
        assert outcome_or_message(refine, vindex, query, n, 1.0) == (
            outcome_or_message(refine_by_steps, vindex, query, n, 1.0)
        )

    def test_no_shared_vocabulary_raises(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        with pytest.raises(DeepClassificationError, match="no category shares vocabulary"):
            refine(vindex, TokenBag(TokenMethod.TOKENS, frozenset(), ("zzzzyyyy",)), 10, 1.0)

    def test_query_expanded_once(self, taxonomy, monkeypatch):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        query = tokenize(taxonomy.entries_for(TAXONOMY_PATHS[3])[2].uri, TokenMethod.TOKENS)
        expanded: list[TokenBag] = []
        real = deep.expand_query

        def counted(q, grams):
            if isinstance(q, TokenBag):
                expanded.append(q)
            return real(q, grams)

        monkeypatch.setattr(deep, "expand_query", counted)
        category, candidates, tree = refine(vindex, query, 10, 1.0)
        assert str(category) == TAXONOMY_PATHS[3]
        assert expanded == [query]
        assert refine_by_steps(vindex, query, 10, 1.0) == (category, candidates, tree)
        assert expanded == [query] * 3  # the steps expand it once per scorer

    def test_subtree_index_of_an_absent_top_raises(self, taxonomy):
        with pytest.raises(DeepClassificationError, match="no indexed entries under Nowhere"):
            subtree_index(taxonomy, "Nowhere", GramScheme.ALL_GRAM)


class TestModelMemo:
    """``classify_deep`` keeps the model of each candidate set on its index,
    up to ``MODELS_PER_INDEX``, and answers as a freshly fitted model does."""

    @given(st.data(), st.sampled_from(list(GramScheme)), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_same_as_a_fresh_model_per_query(self, data, grams, cap):
        top = data.draw(st.sampled_from(sorted({p.top for p in fixture_index().categories()})))
        shared, words = fixture_subtree(top, grams)
        vindex = replace(shared, models={})  # this example's own memo
        path_sets = st.lists(st.sampled_from(vindex.paths), min_size=1, max_size=4, unique=True)
        candidate_sets = data.draw(st.lists(path_sets, min_size=1, max_size=5))
        # queries in random order over a few candidate sets, so that models
        # are fitted, found again, and fitted past the cap
        queries = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(candidate_sets),
                    st.lists(st.sampled_from(words) | _NOISE, max_size=6),
                    st.sampled_from([0.5, 1.0]),
                ),
                min_size=1,
                max_size=20,
            )
        )
        usable = row_counts(vindex)
        kept: list[tuple[tuple[str, ...], float]] = []  # the first `cap` usable sets met
        with mock.patch.object(deep, "MODELS_PER_INDEX", cap):
            for paths, query_words, smoothing in queries:
                tree = prune_tree(paths)
                query = expand_query(TokenBag(TokenMethod.TOKENS, frozenset(), tuple(query_words)), grams)
                before = dict(vindex.models)
                assert deep_outcome(classify_deep, tree, vindex, query, smoothing) == (
                    deep_outcome(classify_deep, tree, replace(vindex, models={}), query, smoothing)
                )
                key = (tuple(k for k in map(str, sorted(tree.candidates)) if usable[k]), smoothing)
                if key[0] and key not in kept and len(kept) < cap:
                    kept.append(key)
                assert list(vindex.models) == kept
                assert all(vindex.models[k] is model for k, model in before.items())

    def test_left_out_of_equality_and_repr(self, taxonomy):
        vindex = build_vector_index(taxonomy, GramScheme.ALL_GRAM)
        blank = replace(vindex, models={})
        refine(vindex, tokenize(taxonomy.entries_for(TAXONOMY_PATHS[3])[2].uri, TokenMethod.TOKENS), 10, 1.0)
        assert len(vindex.models) == 1
        assert vindex == blank and repr(vindex) == repr(blank)


@st.composite
def truth_and_prediction(draw) -> tuple[CategoryPath, CategoryPath]:
    """A truth path and a prediction that is a prefix of it, a longer path,
    a shorter path or a path with no label in common."""
    def labels(low: int, high: int, alphabet: str = "ABC") -> list[str]:
        return draw(st.lists(st.sampled_from(alphabet), min_size=low, max_size=high))

    truth = labels(1, 4)
    shape = draw(st.sampled_from(["prefix", "longer", "shorter", "disjoint"]))
    if shape == "prefix":
        predicted = truth[: draw(st.integers(1, len(truth)))]
    elif shape == "longer":
        kept = draw(st.integers(0, len(truth)))
        predicted = truth[:kept] + labels(len(truth) - kept + 1, len(truth) - kept + 2)
    elif shape == "shorter":
        predicted = labels(1, len(truth))
    else:
        predicted = labels(1, 4, "XYZ")
    return CategoryPath(tuple(truth)), CategoryPath(tuple(predicted))


class TestEvaluateDeepSteps:
    @given(truth_and_prediction())
    def test_agreeing_depth_matches_the_level_oracle(self, paths):
        truth, predicted = paths
        agree = deep._agreeing_depth(truth, predicted)
        levels = range(1, max(len(truth), len(predicted)) + 2)
        assert [agree >= k for k in levels] == [evaluate_levels(truth, predicted, k) for k in levels]
        assert (agree == len(truth)) == evaluate_levels(truth, predicted, len(truth))

    @pytest.mark.parametrize("grams", list(GramScheme))
    @pytest.mark.parametrize("name", ["taxonomy", "corpus_index", "edge_cases"])
    def test_same_report_as_the_steps(self, request, name, grams):
        if name == "edge_cases":
            # Entry 0 is held out and leaves "Lonely" with no training entries;
            # entry 10, held out too, has no features, so its deep stage fails.
            extra = [entry("Lonely/One", "http://lonely.example.com/")]
            extra += [entry("Science/Odd", f"http://x{k}.zz/") for k in range(10)]
            index = CategoryIndex([*extra, *request.getfixturevalue("taxonomy").all_entries()])
        else:
            index = request.getfixturevalue(name)
        report = evaluate_deep(index, grams=grams)
        oracle = evaluate_deep_by_steps(index, grams=grams)
        assert report.to_records() == oracle.to_records()
        assert report.to_table() == oracle.to_table()
        if name == "edge_cases":
            assert report.skipped_categories == ["Lonely"]
            assert report.failures == 1


# Few words, some of three letters, so that tokens repeat within and across
# entries and some pass through the gram schemes whole.
_REPEATING = st.sampled_from(["abc", "abcd", "bcdef", "cdefgh", "defghijkl", "xyz", "bcd"])


@st.composite
def repeating_index(draw) -> CategoryIndex:
    """1-8 entries over 1-3 categories, each URI, title and description
    drawn from one small vocabulary; some entries have no features."""
    paths = draw(st.lists(st.sampled_from(["A", "A/B", "A/C", "B", "B/C/D"]), min_size=1, max_size=3))
    entries: list[OntologyEntry] = []
    for k in range(draw(st.integers(1, 8))):
        category = draw(st.sampled_from(paths))
        if draw(st.integers(0, 4)) == 0:
            entries.append(entry(category, f"http://q{k}.zz/"))
            continue
        words = draw(st.lists(_REPEATING, min_size=1, max_size=5))
        texts = [
            draw(st.none() | st.lists(_REPEATING, min_size=1, max_size=4).map(" ".join))
            for _ in range(2)
        ]
        entries.append(entry(category, f"http://{words[0]}{k}.zz/{'-'.join(words[1:])}", *texts))
    return CategoryIndex(entries)


def posting_pairs(vindex: CategoryVectorIndex) -> dict[str, array]:
    """Each gram's postings read back as (row, count) pairs, interleaved:
    one pair per run of equal row ids, so the runs must be ascending rows."""
    code = deep._row_typecode(len(vindex.norms))
    pairs: dict[str, array] = {}
    for gram, posting in vindex.postings.items():
        runs = groupby(memoryview(posting).cast(code))
        pairs[gram] = array("I", [x for row, run in runs for x in (row, len(list(run)))])
    return pairs


class TestGramMemo:
    """A build generates each distinct token's grams once, and builds the
    index that featurizing each entry on its own builds."""

    @given(repeating_index(), st.sampled_from(list(GramScheme)))
    @settings(max_examples=150, deadline=None)
    def test_same_index_as_a_build_per_entry(self, index, grams):
        for e in index.all_entries():
            assert entry_features(e, grams) == entry_features_whole(e, grams)
        vindex = build_vector_index(index, grams)
        oracle = build_vector_index_per_entry(index, grams)
        assert vindex == oracle
        assert list(vindex.postings) == list(oracle.postings)
        assert list(vindex.ordinals) == list(oracle.ordinals)
        assert list(vindex.totals) == list(oracle.totals)
        for key, total in vindex.totals.items():
            assert list(total) == list(oracle.totals[key])
        assert vindex.models == {}

    @given(repeating_index(), st.sampled_from(list(GramScheme)))
    @settings(max_examples=100, deadline=None)
    def test_postings_decode_to_the_pairs_of_a_build_per_entry(self, index, grams):
        pairs: dict[str, array] = {}
        build_vector_index_per_entry(index, grams, pairs)
        assert posting_pairs(build_vector_index(index, grams)) == pairs

    @pytest.mark.parametrize("grams", list(GramScheme))
    def test_same_index_over_fixture_subtrees(self, grams):
        index = fixture_index()
        for top in sorted({p.top for p in index.categories()}):
            sub = CategoryIndex(index.entries_under(P(top)))
            vindex = build_vector_index(sub, grams)
            pairs: dict[str, array] = {}
            oracle = build_vector_index_per_entry(sub, grams, pairs)
            assert vindex == oracle, top
            assert list(vindex.postings) == list(oracle.postings), top
            assert posting_pairs(vindex) == pairs, top
            assert all(list(vindex.totals[k]) == list(oracle.totals[k]) for k in oracle.totals), top

    def test_each_distinct_token_expanded_once_per_build(self, monkeypatch):
        index = CategoryIndex(
            [
                entry("A", "http://boards.example.com/", "boards and chips"),
                entry("A/B", "http://chips.example.com/boards"),
                entry("A/B", "http://ab.cd/"),
            ]
        )
        expanded: list[tuple[str, ...]] = []
        real = deep.token_grams

        def counted(tokens, sizes):
            expanded.append(tuple(tokens))
            return real(tokens, sizes)

        monkeypatch.setattr(deep, "token_grams", counted)
        build_vector_index(index, GramScheme.ALL_GRAM)
        assert sorted(expanded) == [("and",), ("boards",), ("chips",), ("com",), ("example",)]
        expanded.clear()
        build_vector_index(index, GramScheme.ALL_GRAM)  # a new build starts afresh
        assert len(expanded) == 5


_PRUNE_PATHS = st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=5).map(
    lambda labels: CategoryPath(tuple(labels))
)


@st.composite
def candidate_paths(draw) -> list[CategoryPath]:
    """1-8 paths of depth 1-5, sometimes all under one top label, with
    duplicates, in any order."""
    paths = draw(st.lists(_PRUNE_PATHS, min_size=1, max_size=8))
    if draw(st.booleans()):
        paths = [CategoryPath((paths[0].top, *p.labels[1:])) for p in paths]
    paths += draw(st.lists(st.sampled_from(paths), max_size=4))
    return draw(st.permutations(paths))


def check_outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestLinearPruning:
    """Counting branches prunes as comparing every pair of candidates did,
    and the tree's check raises where the pairwise check raised."""

    @given(candidate_paths())
    @settings(max_examples=300, deadline=None)
    def test_same_tree_as_the_pairwise_pruning(self, candidates):
        assert prune_tree(candidates) == prune_tree_pairwise(candidates)

    @given(candidate_paths(), st.lists(_PRUNE_PATHS, max_size=4), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_tree_check_raises_where_the_pairwise_check_raised(self, candidates, extra, pruned, drop):
        candidate_set = frozenset(candidates)
        nodes = set(prune_tree(candidates).nodes if pruned else candidate_set)
        nodes.update(extra)
        if drop:  # a candidate that is not a node
            nodes.discard(candidates[0])
        node_set = frozenset(nodes)
        expected = check_outcome(check_tree_pairwise, node_set, candidate_set)
        assert check_outcome(PrunedTree, node_set, candidate_set) == expected
        assert check_outcome(PrunedTree, node_set, frozenset()) == (
            check_outcome(check_tree_pairwise, node_set, frozenset())
        )


# ---------------------------------------------------------------------------
# Shared strings: a build handed strings keys every equal gram by them, and
# builds the index, the candidates and the classifications of a build that
# is handed none.


def fresh(text: str) -> str:
    """A string equal to ``text`` that is a new object (for two or more
    characters; every gram has at least three)."""
    return text.encode().decode()


def check_keys_shared(vindex: CategoryVectorIndex, shared) -> int:
    """Assert that each key of the postings, of the summed counts and of the
    fitted models that equals a string of ``shared`` is that string object;
    return how many such keys there are."""
    own = {s: s for s in shared}
    keys = [*vindex.postings]
    for total in vindex.totals.values():
        keys.extend(total)
    for model in vindex.models.values():
        keys.extend(model.vocabulary)
    found = 0
    for key in keys:
        if key in own:
            assert key is own[key], key
            found += 1
    return found


def assert_keeps_own_strings(vindex: CategoryVectorIndex, shared) -> None:
    """Assert that no key of the postings or summed counts is a string
    object of ``shared``."""
    own = {id(s) for s in shared}
    assert own.isdisjoint(map(id, vindex.postings))
    assert own.isdisjoint(id(key) for total in vindex.totals.values() for key in total)


def assert_same_build(sharing: CategoryVectorIndex, plain: CategoryVectorIndex) -> None:
    assert sharing == plain
    assert list(sharing.postings) == list(plain.postings)
    assert list(sharing.totals) == list(plain.totals)
    for key, total in sharing.totals.items():
        assert list(total.items()) == list(plain.totals[key].items())


class TestSharedStrings:
    @given(st.data(), st.sampled_from(list(GramScheme)), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_generated_indexes(self, data, grams, n):
        index, bag, tree_paths = data.draw(small_index_and_query())
        indexed = sorted({g for e in index.all_entries() for g in entry_features(e, grams)})
        string = st.sampled_from(indexed) | _NOISE if indexed else _NOISE
        shared = [fresh(s) for s in data.draw(st.lists(string, max_size=30, unique=True))]
        plain = build_vector_index(index, grams)
        sharing = build_vector_index(index, grams, shared)
        assert_same_build(sharing, plain)
        query = expand_query(bag, grams)
        candidates = top_candidates(sharing, query, n)
        assert candidates == top_candidates(plain, query, n)
        trees = [prune_tree(tree_paths)]
        if candidates:
            trees.append(prune_tree([c.path for c in candidates]))
        for tree in trees:
            assert deep_outcome(classify_deep, tree, sharing, query) == (
                deep_outcome(classify_deep, tree, plain, query)
            )
        assert check_keys_shared(sharing, shared) >= len(set(shared).intersection(sharing.postings))

    @pytest.mark.parametrize("grams", list(GramScheme))
    def test_fixture_subtrees_with_the_first_level_strings(self, grams):
        index = fixture_index()
        model = train_l1(index)
        for top in sorted({p.top for p in index.categories()}):
            shared = model.feature_counts[top]
            plain = subtree_index(index, top, grams)
            sharing = subtree_index(index, top, grams, shared)
            assert_same_build(sharing, plain)
            for probe in index.entries_under(P(top)):
                query = expand_query(tokenize(probe.uri, TokenMethod.TOKENS), grams)
                candidates = top_candidates(sharing, query, 10)
                assert candidates == top_candidates(plain, query, 10), probe.uri
                if candidates:
                    tree = prune_tree([c.path for c in candidates])
                    assert deep_outcome(classify_deep, tree, sharing, query) == (
                        deep_outcome(classify_deep, tree, plain, query)
                    ), probe.uri
            assert sharing.models, top
            # first-level grams are 4 to 8 letters long, so 3-grams share none
            assert (check_keys_shared(sharing, shared) > 0) is (grams is GramScheme.ALL_GRAM), top
            assert_keeps_own_strings(plain, shared)

    def test_entry_features_give_the_shared_objects(self):
        e = entry("A", "http://boards.example.com/chips", "boards of chips")
        shared = [fresh("boar"), fresh("chips"), fresh("zzzz")]
        features = entry_features(e, GramScheme.ALL_GRAM, strings={s: s for s in shared})
        assert features == entry_features(e, GramScheme.ALL_GRAM)
        assert [f for f in features if f is shared[0]] == ["boar", "boar"]
        assert [f for f in features if f is shared[1]] == ["chips", "chips"]
        assert all(f is s for f in features for s in shared if f == s)
