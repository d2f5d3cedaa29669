"""Multinomial Naive Bayes over string features, in log space.

One implementation serves both call sites: first-level classification over
top categories and deep classification over candidate category paths. A
training document is either a TokenBag or any plain sequence of feature
strings; features count with multiplicity (gram generation repeats grams).
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

from .uri import InputFileError, TokenBag, TokenMethod, TokenVariant, read_lines

__all__ = ["FeatureBag", "Classification", "NaiveBayesModel", "train", "classify", "save_model", "load_model"]

FeatureBag = Union[TokenBag, Sequence[str]]

_MAGIC = "archrec-nb 1"


def _features_of(bag: FeatureBag) -> Sequence[str]:
    if isinstance(bag, TokenBag):
        return bag.features
    return bag


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one feature bag.

    ``label`` is None when every feature was out-of-vocabulary — the
    "unclassifiable" signal, distinct from any class label. ``posteriors``
    and ``log_scores`` are sorted best-first with lexicographic tie-break.
    """

    label: str | None
    posteriors: tuple[tuple[str, float], ...]
    log_scores: tuple[tuple[str, float], ...]
    ignored_features: int = 0

    @property
    def unclassifiable(self) -> bool:
        return self.label is None


class NaiveBayesModel:
    """Immutable trained model; exposes raw counts for exact persistence.

    The caller's feature Counters are kept, not copied, and must not change
    afterwards. A log-likelihood is computed the first time a (class,
    feature) pair is asked for and then memoized per class, so a model
    takes logs only of the features it is queried with.
    """

    def __init__(
        self,
        doc_counts: dict[str, int],
        feature_counts: dict[str, Counter[str]],
        smoothing: float,
        method: TokenMethod | None = None,
        variants: frozenset[TokenVariant] = frozenset(),
    ):
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if not doc_counts:
            raise ValueError("cannot train on an empty corpus")
        if any(count <= 0 for count in doc_counts.values()):
            raise ValueError("every class needs at least one document")
        self.classes: tuple[str, ...] = tuple(sorted(doc_counts))
        self.doc_counts = dict(doc_counts)
        self.feature_counts = {c: feature_counts.get(c) or Counter() for c in self.classes}
        self.smoothing = smoothing
        self.method = method
        self.variants = frozenset(variants)

        self.vocabulary: frozenset[str] = frozenset().union(*self.feature_counts.values())
        total_docs = sum(self.doc_counts.values())
        self.class_log_prior = {
            c: math.log(self.doc_counts[c] / total_docs) for c in self.classes
        }
        v = len(self.vocabulary)
        self._denominator = {
            c: sum(self.feature_counts[c].values()) + smoothing * v for c in self.classes
        }
        self.unseen_log_likelihood = {
            c: math.log(smoothing / self._denominator[c]) if v else 0.0 for c in self.classes
        }
        self._tables: dict[str, dict[str, float]] = {c: {} for c in self.classes}

    def _table(self, label: str, features: Iterable[str]) -> dict[str, float]:
        """The memo of ``label``, filled for each of ``features`` that the
        class has a count for. A feature the class never saw is not stored:
        its log-likelihood is the class's unseen value."""
        table = self._tables[label]
        counts = self.feature_counts[label]
        for f in features:
            if f not in table:
                count = counts.get(f)
                if count is not None:
                    table[f] = math.log((count + self.smoothing) / self._denominator[label])
        return table

    def log_likelihood(self, label: str, feature: str) -> float:
        return self._table(label, (feature,)).get(feature, self.unseen_log_likelihood[label])


def train(
    corpus: Iterable[tuple[FeatureBag, str]],
    smoothing: float = 1.0,
) -> NaiveBayesModel:
    """Fit add-α multinomial NB. All TokenBag documents must share one
    method/variant configuration; plain feature sequences are accepted too
    (the deep stage trains on gram lists keyed by category path)."""
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
    ignored = len(features) - len(known)
    if not known:
        return Classification(None, (), (), ignored)
    counts = Counter(known)
    raw = {}
    for c in model.classes:
        table, unseen = model._table(c, counts), model.unseen_log_likelihood[c]
        raw[c] = model.class_log_prior[c] + sum(table.get(f, unseen) * k for f, k in counts.items())
    peak = max(raw.values())
    unnormalized = {c: math.exp(s - peak) for c, s in raw.items()}
    norm = sum(unnormalized.values())
    posteriors = sorted(
        ((c, unnormalized[c] / norm) for c in model.classes), key=lambda kv: (-kv[1], kv[0])
    )
    log_scores = sorted(raw.items(), key=lambda kv: (-kv[1], kv[0]))
    return Classification(
        label=posteriors[0][0],
        posteriors=tuple(posteriors),
        log_scores=tuple(log_scores),
        ignored_features=ignored,
    )


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
    for c in model.classes:
        for feature in sorted(model.feature_counts[c]):
            lines.append(f"feat\t{c}\t{feature}\t{model.feature_counts[c][feature]}")
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def load_model(path: str | Path) -> NaiveBayesModel:
    lines = read_lines(path)
    if not lines or lines[0] != _MAGIC:
        raise InputFileError(f"{path}: not a recognized model file")
    method_text = lines[1].split(" ", 1)[1]
    variants_text = lines[2].split(" ", 1)[1]
    smoothing = float(lines[3].split(" ", 1)[1])
    method = None if method_text == "-" else TokenMethod(method_text)
    variants = (
        frozenset()
        if variants_text == "-"
        else frozenset(TokenVariant(v) for v in variants_text.split(","))
    )
    doc_counts: dict[str, int] = {}
    feature_counts: dict[str, Counter[str]] = defaultdict(Counter)
    for line in lines[4:]:
        if not line.strip():
            continue
        parts = line.split("\t")
        if parts[0] == "class" and len(parts) == 3:
            doc_counts[parts[1]] = int(parts[2])
        elif parts[0] == "feat" and len(parts) == 4:
            feature_counts[parts[1]][parts[2]] = int(parts[3])
        else:
            raise InputFileError(f"{path}: unrecognized record {line!r}")
    return NaiveBayesModel(doc_counts, dict(feature_counts), smoothing, method, variants)
