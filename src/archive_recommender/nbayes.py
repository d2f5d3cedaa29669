"""Multinomial Naive Bayes over string features, in log space.

One model and one classifier serve both stages. The first level fits its
model over top categories with ``train``; the deep stage builds a
``NaiveBayesModel`` over candidate category paths straight from its vector
index's row counts and summed gram counts (``deep.classify_deep``). A
training document is either a TokenBag or any plain sequence of feature
strings; features count with multiplicity (gram generation repeats grams).
A feature's log-likelihoods depend only on its count in each class, so a
model keeps one row per distinct count vector, and every feature with that
vector shares the row.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Collection, Iterator, Set as AbstractSet
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, mul, not_
from pathlib import Path
from typing import Iterable, Sequence, Union

from .uri import InputFileError, TokenBag, TokenMethod, TokenVariant, read_lines

__all__ = [
    "SMOOTHING", "FeatureBag", "Classification", "SmoothingError", "NaiveBayesModel", "train", "classify",
    "save_model", "load_model",
]

FeatureBag = Union[TokenBag, Sequence[str]]

_MAGIC = "archrec-nb 1"

# The additive smoothing of both stages' models: add-one, the method's.
SMOOTHING = 1.0


def _features_of(bag: FeatureBag) -> Sequence[str]:
    if isinstance(bag, TokenBag):
        return bag.features
    return bag


class SmoothingError(ValueError):
    """A smoothing that a model cannot take; the message names the value."""


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one feature bag.

    ``label`` is None when every feature was out-of-vocabulary — the
    "unclassifiable" signal, distinct from any class label. ``posteriors``
    are sorted best-first with lexicographic tie-break.
    """

    label: str | None
    posteriors: tuple[tuple[str, float], ...]

    @property
    def unclassifiable(self) -> bool:
        return self.label is None


class _Vocabulary(AbstractSet[str]):
    """A derived model's vocabulary: the keys of its corpus's table, less
    the features that only the documents taken out held. A view: it copies
    neither. It keeps the table, not its keys view, so that ``issuperset``
    tests each feature against the dict in one C-level pass."""

    __slots__ = ("_corpus", "_dropped")

    def __init__(self, corpus: dict[str, object], dropped: frozenset[str]):
        self._corpus, self._dropped = corpus, dropped

    def __contains__(self, feature: object) -> bool:
        return feature in self._corpus and feature not in self._dropped

    def __len__(self) -> int:
        return len(self._corpus) - len(self._dropped)

    def __iter__(self) -> Iterator[str]:
        return (f for f in self._corpus if f not in self._dropped)

    def issuperset(self, features: Collection[str]) -> bool:
        return self._dropped.isdisjoint(features) and all(map(self._corpus.__contains__, features))


class _RowsByVector(dict):
    """A model's rows keyed by count vector: one count per class, in class
    order, None or 0 where the class lacks the feature. A vector not yet
    held is priced on lookup, and ``setdefault`` keeps the first row stored,
    so threads that price one vector at once share one tuple."""

    __slots__ = ("_smoothing", "_cells")

    def __init__(self, smoothing: float, denominators: Iterable[float], unseen: Iterable[float]):
        super().__init__()
        self._smoothing, self._cells = smoothing, tuple(zip(denominators, unseen))

    def __missing__(self, vector: tuple[int | None, ...]) -> tuple[float, ...]:
        smoothing = self._smoothing
        return self.setdefault(vector, tuple(
            math.log((count + smoothing) / denominator) if count else unseen
            for count, (denominator, unseen) in zip(vector, self._cells)
        ))


class NaiveBayesModel:
    """Immutable trained model; exposes raw counts for exact persistence.

    The caller's feature Counters are kept, not copied, and must not change
    while the model is in use. ``less`` derives the model of the same corpus
    less some of its documents without changing either: the derived model
    shares the corpus Counters and keeps the documents' own counts beside
    them, and subtracts them where it reads a count. Log-likelihoods are
    taken the first time a query holds a feature and kept as that feature's
    row: one float per class, in class order, the class's unseen value where
    it never saw the feature. A row depends only on the feature's count
    vector, its count in each class, and n-gram counts are Zipfian, so rows
    are kept per distinct count vector: a model takes logs once for each
    vector among the features it is queried with, and features with equal
    vectors share one row tuple.

    Rows live in the corpus's table, one dict built from the class
    Counters' keys, which is also the vocabulary: ``vocabulary`` is its
    keys view. Each slot is None until a query of the trained model fills
    it, and a filled slot keeps the Counter's own key. A feature outside
    the corpus has the unseen row, which is returned but never stored, so
    the table never grows. A derived model keeps its rows in a memo of its
    own, since they differ from the corpus model's, and its vocabulary is a
    view of the table less the features it dropped. Threads that fill one
    feature at once store the one row of its vector, so a shared model
    stays safe.

    A model takes a smoothing that is finite, above 0, and leaves every
    class a finite denominator and an unseen likelihood above 0, so that
    every log-likelihood is finite; it raises SmoothingError otherwise.
    """

    def __init__(
        self,
        doc_counts: dict[str, int],
        feature_counts: dict[str, Counter[str]],
        smoothing: float,
        method: TokenMethod | None = None,
        variants: frozenset[TokenVariant] = frozenset(),
    ):
        self.smoothing = smoothing
        self.method = method
        self.variants = frozenset(variants)
        self._counts = {c: feature_counts.get(c) or Counter() for c in sorted(doc_counts)}
        self._held: dict[str, Counter[str]] = {}
        self._table: dict[str, tuple[float, ...] | None] = dict.fromkeys(
            chain.from_iterable(self._counts.values())
        )
        self._rows = self._table
        self.vocabulary: AbstractSet[str] = self._table.keys()
        self._fit(doc_counts, {c: sum(counts.values()) for c, counts in self._counts.items()})

    def _fit(self, doc_counts: dict[str, int], sums: dict[str, int]) -> None:
        """Priors, denominators and unseen values from the document counts
        and each class's total feature count, and an empty table of rows by
        count vector, since rows are priced with these denominators."""
        if not doc_counts:
            raise ValueError("cannot train on an empty corpus")
        if any(count <= 0 for count in doc_counts.values()):
            raise ValueError("every class needs at least one document")
        self.classes: tuple[str, ...] = tuple(sorted(doc_counts))
        self.doc_counts = dict(doc_counts)
        self._sums = sums
        total_docs = sum(self.doc_counts.values())
        self.class_log_prior = {
            c: math.log(self.doc_counts[c] / total_docs) for c in self.classes
        }
        smoothing, v = self.smoothing, len(self.vocabulary)
        if not 0 < smoothing < math.inf:  # NaN fails both comparisons
            raise SmoothingError(f"smoothing {smoothing!r} is not a finite number above 0")
        self._denominator = {c: sums[c] + smoothing * v for c in self.classes}
        for c, denominator in self._denominator.items() if v else ():
            if not denominator < math.inf:
                raise SmoothingError(f"smoothing {smoothing!r} overflows the denominator of class {c!r}")
            if not smoothing / denominator > 0:
                raise SmoothingError(f"smoothing {smoothing!r} underflows the unseen likelihood of class {c!r}")
        self.unseen_log_likelihood = {
            c: math.log(smoothing / self._denominator[c]) if v else 0.0 for c in self.classes
        }
        self._unseen_row = tuple(self.unseen_log_likelihood.values())
        self._priced = _RowsByVector(smoothing, self._denominator.values(), self._unseen_row)

    @property
    def feature_counts(self) -> dict[str, Counter[str]]:
        """Each class's feature counts. A derived model subtracts the counts
        it took out here, in time proportional to its corpus."""
        counts, held = self._counts, self._held
        return {c: Counter(counts[c]) - held[c] if c in held else counts[c] for c in self.classes}

    def less(self, doc_counts: dict[str, int], feature_counts: dict[str, Counter[str]]) -> NaiveBayesModel:
        """The model of this model's corpus less some of its documents, which
        ``doc_counts`` and ``feature_counts`` count per class. It equals
        ``train`` on the documents that are left, and it is derived in time
        proportional to the counts taken out: a feature leaves the
        vocabulary when every class that held it loses all of its count.
        This model is not changed, and the two share their corpus counts."""
        if self._held:
            raise ValueError("a derived model derives no other")
        lost: Counter[str] = Counter()  # per feature, the classes that lose all of it
        for c, held in feature_counts.items():
            lost.update(compress(held, map(eq, held.values(), map(self._counts[c].__getitem__, held))))
        holders: Counter[str] = Counter()  # per lost feature, the classes that hold it
        for counts in self._counts.values():
            holders.update(counts.keys() & lost.keys())
        dropped = frozenset(compress(lost, map(eq, lost.values(), map(holders.__getitem__, lost))))
        model = object.__new__(type(self))
        model.smoothing, model.method, model.variants = self.smoothing, self.method, self.variants
        model._counts, model._held = self._counts, feature_counts
        model._table, model._rows = self._table, {}
        model.vocabulary = _Vocabulary(self._table, dropped)
        model._fit(
            {c: d - doc_counts.get(c, 0) for c, d in self.doc_counts.items() if d > doc_counts.get(c, 0)},
            {
                c: total - sum(feature_counts[c].values()) if c in feature_counts else total
                for c, total in self._sums.items()
            },
        )
        return model

    def _rows_for(self, features: Collection[str]) -> list[tuple[float, ...]]:
        """The row of each of ``features``, in order, filling the rows not
        yet taken. A feature outside the corpus table has the unseen row,
        which is returned but neither computed nor stored.

        Rows are kept per distinct count vector, in ``_priced``. A
        feature's vector is its count in each class, in class order, less
        any held-out count, and None where the class has none left; every
        slot with that vector holds its one row tuple."""
        rows = self._rows
        found = list(map(rows.get, features))
        if all(found):
            return found
        # the features that have no row yet, of those the corpus table holds
        new = list(filter(self._table.__contains__, compress(features, map(not_, found))))
        held, columns = self._held, []
        for c in self.classes:
            counts = self._counts[c].get
            if c in held:
                # A feature the class holds loses its held-out count,
                # and is unseen if that was all of it.
                held_count = held[c].get
                columns.append([
                    count and (count - held_count(f, 0) or None) for f, count in zip(new, map(counts, new))
                ])
            else:
                columns.append(map(counts, new))
        rows.update(zip(new, map(self._priced.__getitem__, zip(*columns))))
        return list(map(rows.get, features, repeat(self._unseen_row)))


def train(
    corpus: Iterable[tuple[FeatureBag, str]],
    smoothing: float = SMOOTHING,
) -> NaiveBayesModel:
    """Fit add-α multinomial NB. All TokenBag documents must share one
    method/variant configuration; plain feature sequences are accepted too."""
    doc_counts: dict[str, int] = defaultdict(int)
    feature_counts: dict[str, Counter[str]] = defaultdict(Counter)
    method: TokenMethod | None = None
    variants: frozenset[TokenVariant] = frozenset()
    saw_bag = False
    for bag, label in corpus:
        if isinstance(bag, TokenBag):
            if saw_bag and (bag.method != method or bag.variants != variants):
                raise ValueError("corpus mixes tokenization configurations")
            method, variants, saw_bag = bag.method, bag.variants, True
        doc_counts[label] += 1
        feature_counts[label].update(_features_of(bag))
    return NaiveBayesModel(dict(doc_counts), dict(feature_counts), smoothing, method, variants)


def classify(model: NaiveBayesModel, bag: FeatureBag) -> Classification:
    """Argmax-posterior classification; out-of-vocabulary features are
    ignored, and a bag with nothing left is unclassifiable."""
    features = _features_of(bag)
    if isinstance(bag, TokenBag) and model.method is not None:
        if bag.method != model.method or bag.variants != model.variants:
            raise ValueError("bag tokenization does not match the model configuration")
    known = [f for f in features if f in model.vocabulary]
    if not known:
        return Classification(None, ())
    counts = Counter(known)
    columns = zip(*model._rows_for(counts))
    # Each class adds its column's products in feature order. x * 1 == x, so
    # when no feature repeats the column's floats are summed as they are.
    if len(counts) == len(known):
        sums = map(sum, columns)
    else:
        ks = counts.values()
        sums = (sum(map(mul, column, ks)) for column in columns)
    raw = {c: model.class_log_prior[c] + total for c, total in zip(model.classes, sums)}
    peak = max(raw.values())
    unnormalized = {c: math.exp(s - peak) for c, s in raw.items()}
    norm = sum(unnormalized.values())
    posteriors = sorted(
        ((c, unnormalized[c] / norm) for c in model.classes), key=lambda kv: (-kv[1], kv[0])
    )
    return Classification(label=posteriors[0][0], posteriors=tuple(posteriors))


# ---------------------------------------------------------------------------
# Persistence: versioned text, raw counts, byte-stable given input order.


def save_model(model: NaiveBayesModel, path: str | Path) -> None:
    lines = [
        _MAGIC,
        f"method {model.method.value if model.method else '-'}",
        "variants " + (",".join(sorted(v.value for v in model.variants)) or "-"),
        f"smoothing {model.smoothing!r}",
    ]
    for c in model.classes:
        lines.append(f"class\t{c}\t{model.doc_counts[c]}")
    for c, counts in model.feature_counts.items():
        for feature in sorted(counts):
            lines.append(f"feat\t{c}\t{feature}\t{counts[feature]}")
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def _positive(value):
    if not 0 < value < math.inf:
        raise ValueError("must be a finite number above 0")
    return value


def _header(path: str | Path, lines: list[str], lineno: int, key: str, parse):
    """Header line ``lineno`` of a model file, ``<key> <value>``, with its
    value read by ``parse``."""
    name, _, text = lines[lineno - 1].partition(" ") if lineno <= len(lines) else ("", "", "")
    if name != key:
        raise InputFileError(f"{path}:{lineno}: expected a {key} line")
    try:
        return parse(text)
    except ValueError as exc:
        raise InputFileError(f"{path}:{lineno}: bad {key} {text!r}: {exc}") from None


def load_model(path: str | Path) -> NaiveBayesModel:
    lines = read_lines(path)
    if not lines or lines[0] != _MAGIC:
        raise InputFileError(f"{path}: not a recognized model file")
    method = _header(path, lines, 2, "method", lambda text: None if text == "-" else TokenMethod(text))
    variants = _header(
        path, lines, 3, "variants",
        lambda text: frozenset() if text == "-" else frozenset(map(TokenVariant, text.split(","))),
    )
    smoothing = _header(path, lines, 4, "smoothing", lambda text: _positive(float(text)))
    doc_counts: dict[str, int] = {}
    feature_counts: dict[str, Counter[str]] = defaultdict(Counter)
    first_feat: dict[str, int] = {}  # each class's first feat line
    for lineno, line in enumerate(lines[4:], 5):
        if not line.strip():
            continue
        parts = line.split("\t")
        try:
            if parts[0] == "class" and len(parts) == 3:
                counts, key, text = doc_counts, parts[1], parts[2]
            elif parts[0] == "feat" and len(parts) == 4:
                counts, key, text = feature_counts[parts[1]], parts[2], parts[3]
                first_feat.setdefault(parts[1], lineno)
            else:
                raise ValueError("not a class or feat record")
            count = _positive(int(text))
        except ValueError as exc:
            raise InputFileError(f"{path}:{lineno}: unrecognized record {line!r}: {exc}") from None
        if key in counts:
            raise InputFileError(f"{path}:{lineno}: repeated record {line!r}")
        counts[key] = count
    if not doc_counts:
        raise InputFileError(f"{path}: no class records")
    for c, lineno in first_feat.items():
        if c not in doc_counts:
            raise InputFileError(f"{path}:{lineno}: feat record of class {c!r}, which has no class record")
    try:
        return NaiveBayesModel(doc_counts, dict(feature_counts), smoothing, method, variants)
    except SmoothingError as exc:
        raise InputFileError(f"{path}:4: bad smoothing {lines[3].partition(' ')[2]!r}: {exc}") from None
