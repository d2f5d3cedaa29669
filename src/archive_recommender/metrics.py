"""Evaluation metrics and the k-fold cross-validation harness.

Per-class precision/recall/F1 plus three aggregates, labeled explicitly:
micro (pooled counts — equals accuracy on single-label data), macro
(unweighted mean over classes), and weighted (support-weighted mean).
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from . import nbayes
from .uri import TokenMethod, TokenVariant, tokenize

__all__ = [
    "ClassScores",
    "FoldResult",
    "EvalReport",
    "score_predictions",
    "majority_baseline",
    "cross_validate",
]


@dataclass(frozen=True)
class ClassScores:
    label: str
    tp: int
    fp: int
    fn: int

    @property
    def support(self) -> int:
        return self.tp + self.fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class FoldResult:
    fold: int
    train_size: int
    tested: int
    filtered_out: int
    correct: int


@dataclass
class EvalReport:
    per_class: dict[str, ClassScores]
    micro_f1: float
    macro_f1: float
    weighted_f1: float
    accuracy: float
    evaluated: int
    folds: list[FoldResult] = field(default_factory=list)

    @property
    def filtered_out(self) -> int:
        return sum(fold.filtered_out for fold in self.folds)

    @property
    def skipped_folds(self) -> list[int]:
        """The folds that scored no item."""
        return [fold.fold for fold in self.folds if not fold.tested]

    def to_records(self) -> list[dict]:
        records = [
            {
                "section": "class",
                "key": label,
                "precision": round(scores.precision, 4),
                "recall": round(scores.recall, 4),
                "f1": round(scores.f1, 4),
                "support": scores.support,
            }
            for label, scores in sorted(self.per_class.items())
        ]
        records.append(
            {
                "section": "summary",
                "micro_f1": round(self.micro_f1, 4),
                "macro_f1": round(self.macro_f1, 4),
                "weighted_f1": round(self.weighted_f1, 4),
                "accuracy": round(self.accuracy, 4),
                "evaluated": self.evaluated,
                "filtered_out": self.filtered_out,
            }
        )
        for fold in self.folds:
            records.append(
                {
                    "section": "fold",
                    "key": fold.fold,
                    "train_size": fold.train_size,
                    "tested": fold.tested,
                    "filtered_out": fold.filtered_out,
                    "correct": fold.correct,
                }
            )
        return records

    def to_table(self) -> str:
        width = max([len(label) for label in self.per_class] + [8]) + 2
        lines = [f"{'class'.ljust(width)}{'prec':>8}{'recall':>8}{'f1':>8}{'support':>9}"]
        for label, s in sorted(self.per_class.items()):
            lines.append(
                f"{label.ljust(width)}{s.precision:8.4f}{s.recall:8.4f}{s.f1:8.4f}{s.support:>9}"
            )
        lines.append("")
        lines.append(
            f"micro F1 {self.micro_f1:.4f}   macro F1 {self.macro_f1:.4f}   "
            f"weighted F1 {self.weighted_f1:.4f}   accuracy {self.accuracy:.4f}"
        )
        lines.append(f"evaluated {self.evaluated}   filtered out {self.filtered_out}")
        if self.folds:
            skipped = ",".join(map(str, self.skipped_folds)) or "none"
            lines.append(f"folds {len(self.folds)}   skipped {skipped}")
        return "\n".join(lines) + "\n"


def score_predictions(pairs: Iterable[tuple[str, str | None]]) -> EvalReport:
    """Score (truth, predicted) pairs; a None prediction counts against its
    truth class without crediting any other class."""
    true_positives: Counter[str] = Counter()
    truth_counts: Counter[str] = Counter()
    predicted_counts: Counter[str] = Counter()
    for truth, predicted in pairs:
        truth_counts[truth] += 1
        if predicted is not None:
            predicted_counts[predicted] += 1
            if predicted == truth:
                true_positives[truth] += 1

    per_class = {}
    for label in sorted(set(truth_counts) | set(predicted_counts)):
        tp = true_positives[label]
        per_class[label] = ClassScores(label, tp, predicted_counts[label] - tp, truth_counts[label] - tp)

    tp_total = sum(s.tp for s in per_class.values())
    fp_total = sum(s.fp for s in per_class.values())
    fn_total = sum(s.fn for s in per_class.values())
    micro_p = tp_total / (tp_total + fp_total) if tp_total + fp_total else 0.0
    micro_r = tp_total / (tp_total + fn_total) if tp_total + fn_total else 0.0
    micro_f1 = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    macro_f1 = sum(s.f1 for s in per_class.values()) / len(per_class) if per_class else 0.0
    support_total = sum(s.support for s in per_class.values())
    weighted_f1 = (
        sum(s.f1 * s.support for s in per_class.values()) / support_total
        if support_total
        else 0.0
    )
    return EvalReport(
        per_class=per_class,
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        weighted_f1=weighted_f1,
        accuracy=tp_total / support_total if support_total else 0.0,
        evaluated=support_total,
    )


def majority_baseline(labels: Iterable[str]) -> float:
    """Accuracy of always predicting the most frequent class."""
    counts = Counter(labels)
    total = sum(counts.values())
    return max(counts.values()) / total if total else 0.0


def cross_validate(
    corpus: Sequence[tuple[str, str]],
    method: TokenMethod,
    variants: Iterable[TokenVariant] = (),
    folds: int = 10,
    smoothing: float = 1.0,
) -> EvalReport:
    """k-fold cross-validation over (uri, top_label) pairs.

    Fold assignment is deterministic round-robin (item i → fold i mod k).
    Within each fold, test items carrying any feature unseen in that fold's
    training vocabulary are dropped (counted, not scored) — as are items
    that tokenize to nothing — so every scored item is classifiable.

    Each item is tokenized once, and its grams are kept for every fold,
    with one string per distinct gram across the corpus. Once every item
    is tokenized, its grams are counted into its class's corpus totals,
    and one model is built on them; the totals never change. Then, one
    fold at a time, the fold's own items are counted, the fold's model is
    derived with ``NaiveBayesModel.less`` in time proportional to those
    counts, and the fold's items are scored. A fold's counts and model are
    released before the next fold's are taken. A fold's model equals what
    ``nbayes.train`` gives on the fold's training items.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if len(corpus) < folds:
        raise ValueError(f"corpus of {len(corpus)} items cannot fill {folds} folds")
    variant_set = frozenset(variants)
    table: dict[str, str] = {}  # each gram's first string
    bags = [
        tuple(map(table.setdefault, features, features))
        for features in (tokenize(uri, method, variant_set).features for uri, _ in corpus)
    ]
    del table
    labels = [label for _, label in corpus]
    n = len(corpus)

    grams: defaultdict[str, Counter[str]] = defaultdict(Counter)
    for features, label in zip(bags, labels):
        grams[label].update(features)
    whole = nbayes.NaiveBayesModel(Counter(labels), grams, smoothing, method, variant_set)

    all_pairs: list[tuple[str, str | None]] = []
    fold_results: list[FoldResult] = []
    for k in range(folds):
        test_bags, test_labels = bags[k::folds], labels[k::folds]
        held: defaultdict[str, Counter[str]] = defaultdict(Counter)
        for features, label in zip(test_bags, test_labels):
            held[label].update(features)
        model = whole.less(Counter(test_labels), held)
        fold_pairs = [
            (label, nbayes.classify(model, features).label)
            for features, label in zip(test_bags, test_labels)
            if features and model.vocabulary.issuperset(features)
        ]
        del held, model  # released before the next fold is counted
        correct = sum(1 for truth, predicted in fold_pairs if truth == predicted)
        fold_results.append(
            FoldResult(k, n - len(test_bags), len(fold_pairs), len(test_bags) - len(fold_pairs), correct)
        )
        all_pairs.extend(fold_pairs)
    return replace(score_predictions(all_pairs), folds=fold_results)
