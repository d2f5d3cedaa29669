"""Recommend archived web pages for URIs that no longer resolve on the
live web, using only the requested URI (and an optional datetime).

The pipeline: look the URI up in a category ontology; if absent, classify
it from URI-derived character n-grams, refine the category with a
hierarchical classifier, gather the category's member pages, keep those
held by web archives, and rank them by temporal closeness, popularity,
URI similarity, and archival quality.
"""
from .archives import (
    ArchiveEvidence,
    ArchiveFetchError,
    DamageEvidence,
    EvidenceCache,
    EvidenceService,
    FixtureArchiveSource,
    MemGatorClient,
    PopularityEvidence,
    fetch_timemap,
    nearest_memento,
)
from .config import ConfigError, Settings, load_settings
from .deep import (
    GramScheme,
    build_vector_index,
    classify_deep,
    evaluate_deep,
    prune_tree,
    top_candidates,
)
from .logs import AccessLogRecord, filter_access_log, filter_log_file, parse_access_log
from .metrics import EvalReport, cross_validate, majority_baseline, score_predictions
from .nbayes import NaiveBayesModel, classify, load_model, save_model, train
from .ontology import (
    CategoryIndex,
    CategoryPath,
    IngestFormat,
    OntologyEntry,
    ingest_dmoz,
    load_index,
    save_index,
)
from .pipeline import (
    RecommendationRequest,
    RecommendationResult,
    Recommender,
    evaluate_l1,
    train_l1,
)
from .ranking import RankWeights, Recommendation, rank
from .reports import DistributionReport, analyze_uris
from .uri import (
    ParsedUri,
    TokenBag,
    TokenMethod,
    TokenVariant,
    UriParseError,
    canonicalize_surt,
    parse_uri,
    tokenize,
)
from .words import SegmentPiece, WordLexicon, segment_words

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # uri
    "ParsedUri",
    "UriParseError",
    "parse_uri",
    "canonicalize_surt",
    "tokenize",
    "TokenMethod",
    "TokenVariant",
    "TokenBag",
    # words
    "WordLexicon",
    "SegmentPiece",
    "segment_words",
    # ontology
    "CategoryPath",
    "OntologyEntry",
    "CategoryIndex",
    "IngestFormat",
    "ingest_dmoz",
    "save_index",
    "load_index",
    # classification
    "NaiveBayesModel",
    "train",
    "classify",
    "save_model",
    "load_model",
    "EvalReport",
    "score_predictions",
    "cross_validate",
    "majority_baseline",
    # deep classification
    "GramScheme",
    "build_vector_index",
    "top_candidates",
    "prune_tree",
    "classify_deep",
    "evaluate_deep",
    # archives
    "ArchiveFetchError",
    "ArchiveEvidence",
    "PopularityEvidence",
    "DamageEvidence",
    "fetch_timemap",
    "nearest_memento",
    "FixtureArchiveSource",
    "MemGatorClient",
    "EvidenceCache",
    "EvidenceService",
    # ranking
    "RankWeights",
    "Recommendation",
    "rank",
    # pipeline
    "RecommendationRequest",
    "RecommendationResult",
    "Recommender",
    "train_l1",
    "evaluate_l1",
    # logs
    "AccessLogRecord",
    "parse_access_log",
    "filter_access_log",
    "filter_log_file",
    # reports
    "DistributionReport",
    "analyze_uris",
    # config
    "Settings",
    "ConfigError",
    "load_settings",
]
