"""End-to-end recommendation pipeline.

Given a requested URI (and optional datetime), find the most similar
archived pages: look the URI up in the ontology; failing that, classify it
to a first-level category, refine with the deep classifier, collect the
winning category's member pages, drop everything the archives don't hold,
and rank the rest.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable

from .archives import CandidateEvidence, EvidenceService
from .deep import CategoryVectorIndex, DeepClassificationError, GramScheme, refine, subtree_index
from .metrics import EvalReport, cross_validate
from .nbayes import NaiveBayesModel, classify as nb_classify, train as nb_train
from .ontology import (
    CategoryIndex,
    CategoryPath,
    OntologyProvider,
    lookup_requested,
)
from .ranking import RankWeights, Recommendation, rank
from .uri import TokenMethod, TokenVariant, canonicalize_surt, parse_uri, tokenize

__all__ = [
    "L1_METHOD",
    "L1_VARIANTS",
    "REASON_UNCLASSIFIABLE",
    "REASON_NO_CANDIDATES",
    "REASON_NO_ARCHIVED",
    "RecommendationRequest",
    "RecommendationResult",
    "Recommender",
    "build_l1_corpus",
    "train_l1",
    "evaluate_l1",
]

# Default first-level configuration: the best-performing tokenization found
# in evaluation — all-grams over the cleaned URI with the TLD and digits
# stripped first.
L1_METHOD = TokenMethod.ALL_GRAMS_URI
L1_VARIANTS = frozenset({TokenVariant.STRIP_TLD, TokenVariant.STRIP_NUMBERS})
# Candidate categories the deep stage keeps, and the additive smoothing of
# both naive Bayes models.
DEEP_CANDIDATES = 10
SMOOTHING = 1.0

REASON_UNCLASSIFIABLE = "unclassifiable"
REASON_NO_CANDIDATES = "no candidates"
REASON_NO_ARCHIVED = "no archived candidates"


@dataclass(frozen=True)
class RecommendationRequest:
    uri: str
    datetime: datetime | None = None
    top_n: int = 10
    weights: RankWeights = RankWeights()
    grams: GramScheme = GramScheme.ALL_GRAM
    temporal_as_similarity: bool = True

    def __post_init__(self):
        parse_uri(self.uri, assume_http=True)
        if self.top_n < 1:
            raise ValueError("top_n must be at least 1")


@dataclass
class RecommendationResult:
    request: RecommendationRequest
    route: str  # "ontology-hit" | "classified-deep" | "classified-shallow" | "none"
    category: str | None
    recommendations: list[Recommendation]
    trace: tuple[str, ...]
    reason: str | None = None
    dropped: tuple[tuple[str, str], ...] = ()
    warnings: tuple[str, ...] = ()


def build_l1_corpus(index: CategoryIndex) -> list[tuple[str, str]]:
    """(uri, first-level label) pairs for training and cross-validation."""
    return [(entry.uri, entry.category.top) for entry in index.all_entries()]


def train_l1(
    index: CategoryIndex,
    method: TokenMethod = L1_METHOD,
    variants: Iterable[TokenVariant] = L1_VARIANTS,
    smoothing: float = 1.0,
) -> NaiveBayesModel:
    """Train the first-level classifier on every indexed entry's URI.

    Each URI is tokenized as training reaches it and counted at once, so
    one tokenized URI is held at a time, beside the counts."""
    variant_set = frozenset(variants)
    return nb_train(
        ((tokenize(uri, method, variant_set), label) for uri, label in build_l1_corpus(index)),
        smoothing,
    )


def evaluate_l1(
    index: CategoryIndex,
    method: TokenMethod = L1_METHOD,
    variants: Iterable[TokenVariant] = L1_VARIANTS,
    folds: int = 10,
    smoothing: float = 1.0,
) -> EvalReport:
    """k-fold cross-validation of first-level classification over the index."""
    return cross_validate(build_l1_corpus(index), method, variants, folds, smoothing)


class Recommender:
    """Orchestrates the four pipeline steps against pluggable providers.

    The first-level model is trained lazily from the index when none is
    supplied; per-top-category vector indexes for the deep stage are built
    on first use and cached for the life of the instance. Both are built
    under one lock, so threads may share an instance.
    """

    def __init__(
        self,
        index: CategoryIndex,
        evidence: EvidenceService,
        model: NaiveBayesModel | None = None,
        secondary: OntologyProvider | None = None,
    ):
        self.index = index
        self.evidence = evidence
        self.model = model
        self.secondary = secondary
        self._subtrees: dict[tuple[str, GramScheme], CategoryVectorIndex] = {}
        self._build_lock = threading.Lock()

    def _l1_model(self) -> NaiveBayesModel:
        with self._build_lock:
            if self.model is None:
                self.model = train_l1(self.index, smoothing=SMOOTHING)
            return self.model

    def _subtree(self, top: str, grams: GramScheme) -> CategoryVectorIndex:
        key = (top, grams)
        with self._build_lock:
            if key not in self._subtrees:
                self._subtrees[key] = subtree_index(self.index, top, grams)
            return self._subtrees[key]

    def recommend(self, request: RecommendationRequest, now: datetime | None = None) -> RecommendationResult:
        trace: list[str] = []
        warnings: list[str] = []
        now_dt = now or datetime.now(timezone.utc)
        requested_dt = request.datetime or now_dt
        requested_surt = canonicalize_surt(request.uri)
        request_bag = tokenize(request.uri, TokenMethod.TOKENS)
        route = "none"
        category: CategoryPath | None = None
        dropped: list[tuple[str, str]] = []

        def result(recommendations: list[Recommendation], reason: str | None = None) -> RecommendationResult:
            return RecommendationResult(
                request=request,
                route=route,
                category=None if category is None else str(category),
                recommendations=recommendations,
                trace=tuple(trace),
                reason=reason,
                dropped=tuple(dropped),
                warnings=tuple(warnings),
            )

        # Step 0: is the requested URI already categorized somewhere?
        outcome = lookup_requested(self.index, self.secondary, request.uri, requested_surt)
        if outcome.warning:
            warnings.append(outcome.warning)
        if outcome.found and any(e.surt != requested_surt for e in outcome.entries):
            route = "ontology-hit"
            category = outcome.category
            entries = outcome.entries
            trace.append(f"step0: found in {outcome.source} ontology under {category}")
        else:
            if outcome.found:
                trace.append(
                    f"step0: found in {outcome.source} ontology under {outcome.category} "
                    "but with no other members; classifying instead"
                )
            else:
                trace.append("step0: requested URI not in any ontology")

            # Step 1: first-level classification from the URI alone.
            model = self._l1_model()
            method = model.method or L1_METHOD
            variants = model.variants if model.method is not None else L1_VARIANTS
            outcome_l1 = nb_classify(model, tokenize(request.uri, method, variants))
            if outcome_l1.label is None:
                trace.append("step1: no known features; unclassifiable at the first level")
                return result([], REASON_UNCLASSIFIABLE)
            top = outcome_l1.label
            top_posterior = dict(outcome_l1.posteriors)[top]
            trace.append(f"step1: first-level category {top} (posterior {top_posterior:.6f})")

            # Step 2: refine within the first-level subtree.
            try:
                vindex = self._subtree(top, request.grams)
                category, candidates, tree = refine(vindex, request_bag, DEEP_CANDIDATES, SMOOTHING)
                route = "classified-deep"
                trace.append(
                    f"step2: deep category {category} "
                    f"(from {len(candidates)} candidates, {len(tree.nodes)} tree nodes)"
                )
                entries = self.index.entries_for(category) or self.index.entries_under(category)
            except DeepClassificationError as exc:
                route = "classified-shallow"
                category = CategoryPath((top,))
                entries = self.index.entries_under(category)
                trace.append(f"step2: deep classification failed ({exc}); using all {top} entries")

        # The requested page must never recommend itself.
        before = len(entries)
        entries = [e for e in entries if e.surt != requested_surt]
        if len(entries) != before:
            trace.append("candidates: excluded the requested URI itself")
        if not entries:
            return result([], REASON_NO_CANDIDATES)

        # Step 3: keep only candidates the archives actually hold. Their
        # SURTs key the evidence, and their token sets the ranking.
        evidence_list = self.evidence.gather([(e.uri, e.surt) for e in entries], requested_dt)
        pages: list[CandidateEvidence] = []
        page_tokens: list[frozenset[str]] = []
        for entry, ev in zip(entries, evidence_list):
            if ev.error is not None:
                dropped.append((ev.uri, f"evidence unavailable: {ev.error}"))
            elif not ev.archive.archived:
                dropped.append((ev.uri, "not archived"))
            else:
                pages.append(ev)
                page_tokens.append(entry.tokens)
        trace.append(f"step3: {len(pages)} of {len(entries)} candidates are archived")
        if not pages:
            return result([], REASON_NO_ARCHIVED)

        # Step 4: score and order.
        recommendations = rank(
            pages,
            request.weights,
            request.top_n,
            request_tokens=set(request_bag),
            candidate_tokens=page_tokens,
            requested=requested_dt,
            upper_bound=now_dt,
            temporal_as_similarity=request.temporal_as_similarity,
            notes=(f"path: {route}",),
        )
        trace.append(f"step4: ranked {len(pages)} candidates, returning {len(recommendations)}")
        return result(recommendations)
