"""Scoring and ranking of candidate pages.

Each candidate gets four component scores in [0, 1] — temporal closeness,
popularity, URI-token similarity, archival quality — combined as a weighted
sum. Weights default to 0.25 each and must sum to 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Collection, Iterable, Sequence

from .archives import CandidateEvidence, DamageEvidence, PopularityEvidence, format_instant

__all__ = [
    "EARLIEST_ARCHIVE_DATE",
    "RankWeights",
    "TemporalInputs",
    "temporal_score",
    "popularity_score",
    "uri_similarity",
    "archival_quality",
    "Recommendation",
    "rank",
]

# Lower bound of the scoring window: public web archiving begins in 1996.
EARLIEST_ARCHIVE_DATE = datetime(1996, 1, 1, tzinfo=timezone.utc)

_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RankWeights:
    temporal: float = 0.25
    popularity: float = 0.25
    similarity: float = 0.25
    quality: float = 0.25

    def __post_init__(self):
        values = (self.temporal, self.popularity, self.similarity, self.quality)
        if not all(math.isfinite(w) for w in values):  # NaN passes both checks below
            raise ValueError(f"weights must be finite, got {values!r}")
        if any(w < 0 for w in values):
            raise ValueError("weights must be non-negative")
        total = sum(values)
        if abs(total - 1.0) > _WEIGHT_TOLERANCE:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    @classmethod
    def parse(cls, text: str) -> "RankWeights":
        """Parse "t,p,s,q" (e.g. "0.4,0.2,0.2,0.2")."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected four comma-separated weights, got {text!r}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"non-numeric weight in {text!r}") from exc
        return cls(*values)


@dataclass(frozen=True)
class TemporalInputs:
    requested: datetime
    memento: datetime
    upper_bound: datetime
    earliest: datetime = EARLIEST_ARCHIVE_DATE


def temporal_score(inputs: TemporalInputs, as_similarity: bool = True) -> float:
    """Distance between the requested datetime and the chosen memento,
    normalized by the full archiving window.

    The raw form is a distance (0 = same instant). By default the complement
    is returned so that, like every other component, larger means better.
    """
    window = (inputs.upper_bound - inputs.earliest).total_seconds()
    if window <= 0:
        raise ValueError("upper bound must fall after the earliest archive date")
    raw = abs((inputs.requested - inputs.memento).total_seconds()) / window
    raw = min(max(raw, 0.0), 1.0)
    return 1.0 - raw if as_similarity else raw


def popularity_score(evidence: PopularityEvidence) -> float:
    """Average of a global-rank term and an archive-activity term.

    Rank r maps to |ln r / ln floor − 1|: 1.0 at rank 1, 0.0 at the floor.
    Memento count n maps to ln n / ln ceiling; n = 0 contributes 0. A missing
    rank contributes 0.
    """
    if evidence.global_rank is not None:
        rank_term = abs(math.log(evidence.global_rank) / math.log(evidence.rank_floor) - 1.0)
    else:
        rank_term = 0.0
    if evidence.archive_count > 0:
        count_term = math.log(evidence.archive_count) / math.log(evidence.archive_count_ceiling)
    else:
        count_term = 0.0
    return min(max((rank_term + count_term) / 2.0, 0.0), 1.0)


def uri_similarity(request_tokens: set[str] | frozenset[str], candidate_tokens: Iterable[str]) -> float:
    """Jaccard similarity of the request's token set and the set of the
    candidate's tokens, which may repeat; two empty sets score 0."""
    union = len(request_tokens.union(candidate_tokens))
    if not union:
        return 0.0
    return len(request_tokens.intersection(candidate_tokens)) / union


def archival_quality(evidence: DamageEvidence) -> float:
    """Complement of the damage estimate for the chosen memento."""
    return 1.0 - evidence.damage


@dataclass(frozen=True)
class Recommendation:
    uri: str
    memento_uri: str
    memento_datetime: datetime
    temporal: float
    popularity: float
    similarity: float
    quality: float
    score: float
    explanations: tuple[str, ...]


def rank(
    candidates: list[CandidateEvidence],
    weights: RankWeights = RankWeights(),
    top_n: int | None = None,
    *,
    request_tokens: set[str] | frozenset[str],
    candidate_tokens: Sequence[Collection[str]],
    requested: datetime,
    upper_bound: datetime,
    temporal_as_similarity: bool = True,
    notes: tuple[str, ...] = (),
) -> list[Recommendation]:
    """Score every archived candidate and return them best-first.

    ``candidate_tokens`` holds each candidate's TOKENS features, in
    candidate order, in any collection (an entry's ``tokens`` tuple, say),
    compared as a set; ``notes`` end every recommendation's explanations.
    Ties on score break lexicographically by URI so output is reproducible.
    The temporal window runs from ``EARLIEST_ARCHIVE_DATE`` to
    ``upper_bound``. Each candidate is an archived record whose memento,
    popularity and damage the evidence layer set; unarchived pages are
    filtered before ranking, not here.
    """
    requested_text = format_instant(requested)
    results: list[Recommendation] = []
    for candidate, tokens in zip(candidates, candidate_tokens, strict=True):
        if candidate.memento is None:
            raise ValueError(f"cannot rank unarchived candidate {candidate.uri}")
        memento_dt, memento_uri = candidate.memento
        t = temporal_score(
            TemporalInputs(requested, memento_dt, upper_bound),
            as_similarity=temporal_as_similarity,
        )
        p = popularity_score(candidate.popularity)
        s = uri_similarity(request_tokens, tokens)
        q = archival_quality(candidate.damage)
        score = (
            weights.temporal * t
            + weights.popularity * p
            + weights.similarity * s
            + weights.quality * q
        )
        shared = len(request_tokens.intersection(tokens))
        union = len(request_tokens.union(tokens))
        rank_text = (
            f"rank {candidate.popularity.global_rank}"
            if candidate.popularity.global_rank is not None
            else "rank missing"
        )
        explanations = (
            f"temporal={t:.6f}: nearest memento {format_instant(memento_dt)} vs requested {requested_text}",
            f"popularity={p:.6f}: {rank_text}, {candidate.archive.memento_count} mementos",
            f"similarity={s:.6f}: {shared} shared of {union} tokens",
            f"quality={q:.6f}: damage {candidate.damage.damage:.6f} ({candidate.damage.source.value})",
        ) + notes
        results.append(
            Recommendation(
                uri=candidate.uri,
                memento_uri=memento_uri,
                memento_datetime=memento_dt,
                temporal=t,
                popularity=p,
                similarity=s,
                quality=q,
                score=score,
                explanations=explanations,
            )
        )
    results.sort(key=lambda r: (-r.score, r.uri))
    if top_n is not None:
        results = results[:top_n]
    return results
