"""Deep (multi-level) category assignment.

Per-category TF vectors are built from each entry's URI tokens plus its
title and description words; the query is scored against every category by
mean cosine similarity, the top N categories become candidates, the
candidate set is pruned with the ancestor-assistance rule, and a Naive
Bayes model over the candidates picks the final path.

Each entry is featurized once, when its vector index is built, from the URI
tokens it keeps for ranking too, and a build generates the grams of each
distinct token once: tokens repeat across the entries of one index, so the
build keeps each token's grams for its own entries and drops them when it
returns. A build may be handed strings that are kept elsewhere anyway, such
as the first-level model's grams of the subtree's class: a gram equal to
one of them is that very object in the index, so the index keeps no copy of
it. The index keeps, per gram, the rows holding it (postings): one byte
string of row ids in ascending order, a row repeated once per occurrence of
the gram in it. It also keeps every row's norm and category, and every
category's row count and summed counts. The cosine scoring counts the rows
in the postings of the query's grams only, and the naive Bayes reads the
summed counts, so no entry is featurized again per query. The index also
keeps the naive Bayes model of each candidate set it has classified
against, so a candidate set is fitted once. Pruning the candidates takes
time linear in their number.
"""
from __future__ import annotations

import math
import threading
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Collection, Sequence

from . import nbayes
from .ontology import CategoryIndex, CategoryPath, OntologyEntry
from .reports import host_dictionary_bucket
from .uri import (
    GRAM_SIZES,
    TokenBag,
    TokenMethod,
    depth,
    detect_patterns,
    parse_uri,
    text_tokens,
    token_grams,
    tokenize,
)

__all__ = [
    "CANDIDATES",
    "GRAMS",
    "HOLDOUT_FRACTION",
    "GramScheme",
    "CandidateCategory",
    "CategoryVectorIndex",
    "PrunedTree",
    "DeepClassificationError",
    "entry_features",
    "expand_query",
    "build_vector_index",
    "subtree_index",
    "top_candidates",
    "prune_tree",
    "classify_deep",
    "refine",
    "DeepEvalReport",
    "evaluate_deep",
]

class GramScheme(Enum):
    THREE_GRAM = "3"
    ALL_GRAM = "all"

    @property
    def sizes(self) -> range:
        """Gram lengths the scheme generates within each token."""
        return range(3, 4) if self is GramScheme.THREE_GRAM else GRAM_SIZES


# The method's deep stage: all-gram features, the ten categories most
# similar to the query as candidates, and a tenth of the index held out
# when it is evaluated.
GRAMS = GramScheme.ALL_GRAM
CANDIDATES = 10
HOLDOUT_FRACTION = 0.1

class DeepClassificationError(Exception):
    """Deep stage could not produce a category (caller falls back to level 1)."""


def entry_features(
    entry: OntologyEntry,
    grams: GramScheme,
    memo: dict[str, list[str]] | None = None,
    strings: dict[str, str] | None = None,
) -> list[str]:
    """Gram features of one ontology entry: its URI tokens
    (``entry.tokens``, which the entry keeps) plus title and description
    words, all expanded with the same scheme.

    ``memo`` maps a token to its grams under ``grams``. A vector index
    build passes one for all its entries, so each distinct token is
    expanded once per build; without one, a fresh memo serves this entry.
    ``strings`` maps each of some strings to itself: a gram equal to one of
    them is given as that object, so that equal grams share it."""
    if memo is None:
        memo = {}
    tokens = [*entry.tokens, *text_tokens(entry.title or ""), *text_tokens(entry.description or "")]
    sizes = grams.sizes
    features: list[str] = []
    for token in tokens:
        expanded = memo.get(token)
        if expanded is None:
            expanded = token_grams((token,), sizes)
            if strings:
                expanded = list(map(strings.get, expanded, expanded))
            memo[token] = expanded
        features += expanded
    return features


_NOT_GRAMS = "the deep stage scores gram lists; expand a TOKENS bag with expand_query"


def expand_query(query: TokenBag, grams: GramScheme) -> list[str]:
    """Featurize the requested URI for the deep stage: the grams of the
    tokens of its TOKENS bag. Raises ValueError for anything else."""
    if not isinstance(query, TokenBag) or query.method is not TokenMethod.TOKENS:
        raise ValueError(f"expand_query takes a TOKENS bag, got {getattr(query, 'method', type(query).__name__)}")
    return token_grams(query.features, grams.sizes)


@dataclass(frozen=True)
class CandidateCategory:
    path: CategoryPath
    score: float


# Naive Bayes models a vector index keeps, one per candidate set. A query
# past the cap fits its model afresh and drops it after use.
MODELS_PER_INDEX = 16


@dataclass
class CategoryVectorIndex:
    """Featurized entries by deepest category path.

    A row is one entry with features. Rows are numbered category by
    category, so each category's rows are contiguous and ascending.

    - ``postings[gram]``: the rows that hold the gram, ascending, each
      repeated once per occurrence of the gram in it (a row multiset, so
      a row's multiplicity is the gram's count in it). The ids are packed
      in ``bytes`` of the narrowest array typecode that holds every row id,
      ``_row_typecode(len(norms))``: ``"B"`` up to 256 rows, then ``"H"``,
      then ``"I"``; ``memoryview(posting).cast(code)`` reads them back.
    - ``norms[row]``: the Euclidean norm of the row's counts;
      ``row_category[row]``: the ordinal of the row's category.
    - ``paths[ordinal]``, ``row_counts[ordinal]``: the category's parsed
      path and its number of rows.
    - ``ordinals[key]``, ``totals[key]``, by path text: the category's
      ordinal, and the sum of its rows, which is what naive Bayes trains on.
    - ``models``: the naive Bayes model of each candidate set that
      ``classify_deep`` has fitted, keyed by the usable candidates' path
      texts in order and the smoothing; at most ``MODELS_PER_INDEX``.
      A model holds one table slot per gram of its candidates, at most the
      index's grams, and fills a slot with the row of the gram's count
      vector when a query holds the gram; grams with equal vectors share
      one row. With every row filled and ten candidates that is about 46 B
      per gram (CPython 3.11–3.13; 59 B on 3.10), so a full memo of a
      1,400-gram subtree holds at most about 1 MB.

    Read-only once built, except ``models``, which grows under its lock
    and is left out of equality and ``repr``.
    """

    grams: GramScheme
    postings: dict[str, bytes]
    norms: array
    row_category: array
    paths: tuple[CategoryPath, ...]
    row_counts: tuple[int, ...]
    ordinals: dict[str, int]
    totals: dict[str, Counter[str]]
    models: dict[tuple[tuple[str, ...], float], nbayes.NaiveBayesModel] = field(
        default_factory=dict, compare=False, repr=False
    )
    _models_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, compare=False, repr=False
    )


def _row_typecode(rows: int) -> str:
    """The narrowest array typecode that holds the row ids of an index of
    ``rows`` rows, 0 to ``rows - 1``: its postings are packed in it."""
    if rows <= 1 << 8:
        return "B"
    return "H" if rows <= 1 << 16 else "I"


def build_vector_index(
    index: CategoryIndex, grams: GramScheme, shared: Collection[str] = ()
) -> CategoryVectorIndex:
    """Gram postings, row norms and summed counts per deepest category
    path; entries with no extractable features are left out.

    Every key of the postings, of the summed counts and of the models
    fitted from them that equals a string of ``shared`` is that string
    object. The build maps the strings to themselves once and drops the
    map when it returns."""
    if not len(index):
        raise ValueError("cannot build a vector index from an empty category index")
    strings = dict(zip(shared, shared)) if shared else None
    rows_by_gram: defaultdict[str, list[int]] = defaultdict(list)
    norms = array("d")
    row_category = array("I")
    paths: list[CategoryPath] = []
    row_counts: list[int] = []
    totals: dict[str, Counter[str]] = {}
    memo: dict[str, list[str]] = {}  # this build's grams per token
    for path in index.categories():
        ordinal, rows = len(paths), 0
        total: Counter[str] = Counter()
        for entry in index.entries_for(path):
            features = entry_features(entry, grams, memo, strings)
            if not features:
                continue
            counts = Counter(features)
            row, squares = len(norms), 0
            for count in counts.values():
                squares += count * count
            for gram in features:  # the row once per occurrence
                rows_by_gram[gram].append(row)
            norms.append(math.sqrt(squares))
            row_category.append(ordinal)
            total.update(features)
            rows += 1
        paths.append(path)
        row_counts.append(rows)
        totals[str(path)] = total
    code = _row_typecode(len(norms))
    # bytes() packs a list of small ints itself, in half the time an array takes
    pack = bytes if code == "B" else (lambda ids: array(code, ids).tobytes())
    return CategoryVectorIndex(
        grams=grams,
        postings=dict(zip(rows_by_gram, map(pack, rows_by_gram.values()))),
        norms=norms,
        row_category=row_category,
        paths=tuple(paths),
        row_counts=tuple(row_counts),
        ordinals={key: ordinal for ordinal, key in enumerate(totals)},
        totals=totals,
    )


def subtree_index(
    index: CategoryIndex, top: str, grams: GramScheme, shared: Collection[str] = ()
) -> CategoryVectorIndex:
    """The vector index of the entries under one top-level category, its
    keys sharing the strings of ``shared`` (see ``build_vector_index``)."""
    entries = index.entries_under(CategoryPath((top,)))
    if not entries:
        raise DeepClassificationError(f"no indexed entries under {top}")
    return build_vector_index(CategoryIndex(entries), grams, shared)


def top_candidates(
    vindex: CategoryVectorIndex,
    query: Sequence[str],
    n: int = CANDIDATES,
) -> list[CandidateCategory]:
    """Top-n categories by mean cosine similarity to the query, a list of
    grams from ``expand_query``; categories with zero similarity are
    omitted, so an orthogonal query yields [].

    Scoring counts rows: the postings of the query's grams are joined, a
    gram's once per occurrence in the query, so the number of times a row
    occurs in the join is its integer dot product with the query. Each
    category's cosines are then added in row order, over its rows with a
    non-zero dot product only, so its mean is the float that a scan of its
    rows would give."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(query, TokenBag):
        raise ValueError(_NOT_GRAMS)
    qvec = Counter(query)
    if not qvec:
        return []
    qnorm = math.sqrt(sum(c * c for c in qvec.values()))
    postings, norms, row_category = vindex.postings, vindex.norms, vindex.row_category
    joined = b"".join(map(postings.get, query, repeat(b"")))
    dots = Counter(memoryview(joined).cast(_row_typecode(len(norms))))
    sums: dict[int, float] = {}
    for row, dot in sorted(dots.items()):
        ordinal = row_category[row]
        sums[ordinal] = sums.get(ordinal, 0.0) + dot / (qnorm * norms[row])
    scored: list[CandidateCategory] = []
    for ordinal, total in sums.items():
        score = total / vindex.row_counts[ordinal]
        if score > 0.0:
            scored.append(CandidateCategory(vindex.paths[ordinal], score))
    scored.sort(key=lambda c: (-c.score, c.path))
    return scored[:n]


@dataclass(frozen=True)
class PrunedTree:
    nodes: frozenset[CategoryPath]
    candidates: frozenset[CategoryPath]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("pruned tree needs at least one candidate")
        if not self.candidates <= self.nodes:
            raise ValueError("every candidate must be a node")
        ancestors = {c.labels[:k] for c in self.candidates for k in range(1, len(c))}
        for node in self.nodes - self.candidates:
            if node.labels not in ancestors:
                raise ValueError(f"non-candidate node {node} is not an ancestor of any candidate")


def prune_tree(candidates: Sequence[CategoryPath]) -> PrunedTree:
    """Ancestor-assistance pruning.

    The implicit root is the shared level-1 label when all candidates agree
    on it, else the empty super-root. A candidate sharing an ancestor below
    the root with another candidate stands alone; an isolated candidate
    additionally retains its ancestor chain (everything below the root).
    """
    if not candidates:
        raise ValueError("no candidate categories to prune")
    ordered = list(dict.fromkeys(candidates))
    root_len = 1 if len({c.labels[0] for c in ordered}) == 1 else 0
    # Two distinct candidates share an ancestor below the root exactly when
    # they share their first root_len + 1 labels: their branch.
    branches = Counter(c.labels[: root_len + 1] for c in ordered if len(c) > root_len)
    nodes: set[CategoryPath] = set(ordered)
    for candidate in ordered:
        if branches[candidate.labels[: root_len + 1]] < 2:
            for ancestor in candidate.ancestors():
                if len(ancestor) > root_len:
                    nodes.add(ancestor)
    return PrunedTree(nodes=frozenset(nodes), candidates=frozenset(ordered))


def classify_deep(
    tree: PrunedTree,
    vindex: CategoryVectorIndex,
    query: Sequence[str],
    smoothing: float = nbayes.SMOOTHING,
) -> CategoryPath:
    """Final deep assignment: NB over the tree's candidate paths, for a
    query of grams from ``expand_query``. Each candidate's documents are
    its rows in ``vindex``, so the model is fitted from the cached row
    count and summed gram counts, once per candidate set: ``vindex``
    keeps it for later queries with the same candidates. The winner is
    returned as the path the index holds."""
    if isinstance(query, TokenBag):
        raise ValueError(_NOT_GRAMS)
    doc_counts: dict[str, int] = {}
    for path in sorted(tree.candidates):
        key = str(path)
        ordinal = vindex.ordinals.get(key)
        if ordinal is not None and vindex.row_counts[ordinal]:
            doc_counts[key] = vindex.row_counts[ordinal]
    if not doc_counts:
        raise DeepClassificationError("no candidate category has usable documents")
    memo_key = (tuple(doc_counts), smoothing)
    model = vindex.models.get(memo_key)
    if model is None:
        model = nbayes.NaiveBayesModel(doc_counts, {key: vindex.totals[key] for key in doc_counts}, smoothing)
        with vindex._models_lock:
            if len(vindex.models) < MODELS_PER_INDEX:
                model = vindex.models.setdefault(memo_key, model)
    outcome = nbayes.classify(model, query)
    if outcome.unclassifiable:
        raise DeepClassificationError("query shares no vocabulary with the candidates")
    return vindex.paths[vindex.ordinals[outcome.label]]


def refine(
    vindex: CategoryVectorIndex,
    query: TokenBag,
    n: int = CANDIDATES,
    smoothing: float = nbayes.SMOOTHING,
) -> tuple[CategoryPath, list[CandidateCategory], PrunedTree]:
    """The deep stage for one query, returned as (category, candidates,
    tree): the top ``n`` candidates by similarity, the tree pruned from
    them, and naive Bayes' pick among them. The query is expanded once."""
    features = expand_query(query, vindex.grams)
    candidates = top_candidates(vindex, features, n)
    if not candidates:
        raise DeepClassificationError("no category shares vocabulary with the query")
    tree = prune_tree([c.path for c in candidates])
    return classify_deep(tree, vindex, features, smoothing), candidates, tree


# ---------------------------------------------------------------------------
# Per-level evaluation harness


def _agreeing_depth(truth: CategoryPath, predicted: CategoryPath) -> int:
    """The number of leading labels the two paths share: the prediction is
    right at every level up to it and wrong below."""
    shared = 0
    for label, guess in zip(truth.labels, predicted.labels):
        if label != guess:
            break
        shared += 1
    return shared


@dataclass
class DeepEvalReport:
    """Per-level Mi-F1 over a held-out slice, with full-path breakdowns.

    ``levels[k]`` = |items whose truth has ≥k labels and whose prediction
    matches the first k| / |all evaluated holdout items| — the denominator is
    fixed, so the curve is non-increasing in k by construction. Breakdown
    maps give the fraction of items predicted correctly to their truth's
    full depth, grouped by top category, URI depth, hostname dictionary-word
    composition, and long-string presence.
    """

    levels: dict[int, float]
    holdout: int
    failures: int
    skipped_categories: list[str]
    by_category: dict[str, float]
    by_depth: dict[int, float]
    by_dictionary: dict[str, float]
    by_long_strings: dict[bool, float]

    def to_records(self) -> list[dict]:
        records = [
            {"section": "level", "key": k, "mi_f1": round(v, 4)}
            for k, v in sorted(self.levels.items())
        ]
        records.append(
            {
                "section": "summary",
                "holdout": self.holdout,
                "failures": self.failures,
                "skipped_categories": len(self.skipped_categories),
            }
        )
        for section, mapping in (
            ("category", self.by_category),
            ("depth", self.by_depth),
            ("dictionary_words", self.by_dictionary),
            ("long_strings", self.by_long_strings),
        ):
            for key, value in sorted(mapping.items(), key=lambda kv: str(kv[0])):
                records.append(
                    {"section": section, "key": key, "full_path_accuracy": round(value, 4)}
                )
        return records

    def to_table(self) -> str:
        lines = ["level   Mi-F1"]
        for k, v in sorted(self.levels.items()):
            lines.append(f"{k:>5}   {v:.4f}")
        lines.append(f"holdout {self.holdout}   deep failures {self.failures}")
        if self.skipped_categories:
            lines.append(f"skipped categories: {', '.join(self.skipped_categories)}")
        for title, mapping in (
            ("full-path accuracy by top category", self.by_category),
            ("full-path accuracy by URI depth", self.by_depth),
            ("full-path accuracy by dictionary words", self.by_dictionary),
            ("full-path accuracy by long strings", self.by_long_strings),
        ):
            if mapping:
                lines.append(title)
                for key, value in sorted(mapping.items(), key=lambda kv: str(kv[0])):
                    lines.append(f"  {str(key):<24}{value:.4f}")
        return "\n".join(lines) + "\n"


def evaluate_deep(
    index: CategoryIndex,
    holdout_fraction: float = HOLDOUT_FRACTION,
    grams: GramScheme = GRAMS,
    n_candidates: int = CANDIDATES,
    smoothing: float = nbayes.SMOOTHING,
) -> DeepEvalReport:
    """Hold out a deterministic stride of entries, treat each item's
    level-1 label as given, run the deep stage within that top category's
    training subtree, and score per level."""
    if not 0.0 < holdout_fraction <= 0.5:  # above 0.5 the stride would still be 2
        raise ValueError("holdout_fraction must be in (0, 0.5]")
    entries = list(index.all_entries())
    # Any stride past the last entry holds out the first entry alone; the cap
    # keeps a subnormal fraction's infinite 1 / fraction from reaching round.
    stride = round(min(1.0 / holdout_fraction, len(entries) + 2))
    holdout = [e for i, e in enumerate(entries) if i % stride == 0]
    training = [e for i, e in enumerate(entries) if i % stride != 0]
    training_index = CategoryIndex(training)

    subtrees: dict[str, CategoryVectorIndex | None] = {}  # None: no training entries
    evaluated: list[tuple[OntologyEntry, int]] = []  # each entry and its agreeing depth
    failures = 0
    for entry in holdout:
        top = entry.category.top
        if top not in subtrees:
            try:
                subtrees[top] = subtree_index(training_index, top, grams)
            except DeepClassificationError:
                subtrees[top] = None
        vindex = subtrees[top]
        if vindex is None:
            continue
        try:
            predicted = refine(vindex, tokenize(entry.uri, TokenMethod.TOKENS), n_candidates, smoothing)[0]
        except DeepClassificationError:
            failures += 1
            predicted = CategoryPath((top,))
        evaluated.append((entry, _agreeing_depth(entry.category, predicted)))

    total = len(evaluated)
    max_level = max((len(e.category) for e, _ in evaluated), default=1)
    levels = {
        k: sum(1 for _, agree in evaluated if agree >= k) / total if total else 0.0
        for k in range(1, max_level + 1)
    }

    # One {key: [right, seen]} tally per breakdown: top category, URI depth,
    # dictionary bucket and long-string presence.
    tallies: tuple[dict, ...] = ({}, {}, {}, {})
    for entry, agree in evaluated:
        right = agree == len(entry.category)
        parsed = parse_uri(entry.uri)
        keys = (
            entry.category.top,
            depth(parsed),
            host_dictionary_bucket(parsed),
            "long_strings.hostname" in detect_patterns(parsed),
        )
        for tally, key in zip(tallies, keys):
            bucket = tally.setdefault(key, [0, 0])
            bucket[0] += right
            bucket[1] += 1
    by_category, by_depth, by_dictionary, by_long_strings = (
        {key: right / seen for key, (right, seen) in tally.items()} for tally in tallies
    )

    return DeepEvalReport(
        levels=levels,
        holdout=total,
        failures=failures,
        skipped_categories=sorted(top for top, vindex in subtrees.items() if vindex is None),
        by_category=by_category,
        by_depth=by_depth,
        by_dictionary=by_dictionary,
        by_long_strings=by_long_strings,
    )
