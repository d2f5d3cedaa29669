"""Command-line interface.

Subcommands: ingest, train, recommend, evaluate-l1, evaluate-deep,
analyze-logs, stats. Exit codes: 0 = success with at least one
recommendation (or a completed report), 2 = success with an empty result,
3 = usage error, 4 = configuration or I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
from datetime import timezone
from pathlib import Path
from typing import Sequence

from .archives import (
    ArchiveFetchError,
    EvidenceCache,
    EvidenceService,
    FixtureArchiveSource,
    FixtureDamageProvider,
    FixturePopularityProvider,
    MemGatorClient,
    MementoDamageClient,
)
from .config import ConfigError, Settings, load_settings, parse_datetime
from .deep import evaluate_deep
from .logs import analyze_requests, filter_log_file
from .metrics import majority_baseline
from .nbayes import load_model, save_model
from .ontology import (
    FixtureOntologyProvider,
    IngestFormat,
    corpus_stats,
    ingest_dmoz,
    load_index,
    save_index,
)
from .pipeline import (
    RecommendationRequest,
    Recommender,
    build_l1_corpus,
    evaluate_l1,
    train_l1,
)
from .uri import TokenMethod, TokenVariant, UriParseError

EXIT_OK = 0
EXIT_EMPTY = 2
EXIT_USAGE = 3
EXIT_CONFIG = 4

_METHODS = {
    "tokens": TokenMethod.TOKENS,
    "grams-tokens": TokenMethod.ALL_GRAMS_TOKENS,
    "grams-uri": TokenMethod.ALL_GRAMS_URI,
}
_VARIANTS = {
    "strip-tld": TokenVariant.STRIP_TLD,
    "strip-numbers": TokenVariant.STRIP_NUMBERS,
    "strip-stopwords": TokenVariant.STRIP_STOPWORDS,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 3 (not 2) on usage errors, freeing 2 for
    empty-but-successful results."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_variants(text: str) -> list[TokenVariant]:
    if not text.strip():
        return []
    names = [part.strip() for part in text.split(",")]
    unknown = [n for n in names if n not in _VARIANTS]
    if unknown:
        raise ConfigError(f"unknown variants: {', '.join(unknown)} (use {', '.join(_VARIANTS)})")
    return [_VARIANTS[n] for n in names]


def _emit(records: list[dict], table: str, output: str) -> None:
    if output == "records":
        for record in records:
            print(json.dumps(record, sort_keys=True))
    else:
        print(table)


# ---------------------------------------------------------------------------
# Provider wiring


def _fixture_path(settings: Settings, name: str) -> Path | None:
    if settings.fixtures is None:
        return None
    candidate = Path(settings.fixtures) / name
    return candidate if candidate.exists() else None


def _resolve_index_path(settings: Settings) -> Path:
    if settings.index is not None:
        return Path(settings.index)
    bundled = _fixture_path(settings, "index.tsv")
    if bundled is not None:
        return bundled
    raise ConfigError("no category index configured (use --index or a fixtures dir with index.tsv)")


def _build_evidence_service(settings: Settings) -> EvidenceService:
    if settings.aggregator is not None:
        archive_source = MemGatorClient(settings.aggregator)
    else:
        timemaps = _fixture_path(settings, "timemaps")
        if timemaps is None:
            raise ConfigError(
                "no archive source configured (use --aggregator or a fixtures dir with timemaps/)"
            )
        archive_source = FixtureArchiveSource(timemaps)

    popularity = None
    popularity_path = _fixture_path(settings, "popularity.tsv")
    if popularity_path is not None:
        popularity = FixturePopularityProvider(popularity_path)

    if settings.damage_service is not None:
        damage = MementoDamageClient(settings.damage_service)
    else:
        damage_path = _fixture_path(settings, "damage.tsv")
        damage = FixtureDamageProvider(damage_path) if damage_path is not None else None

    cache = None
    if settings.cache is not None:
        cache = EvidenceCache(settings.cache, max_age=settings.cache_max_age)

    return EvidenceService(
        archive_source=archive_source,
        popularity_provider=popularity,
        damage_provider=damage,
        cache=cache,
        parallelism=settings.parallelism,
        retries=settings.retries,
        max_pages=settings.max_pages,
    )


def _build_recommender(settings: Settings) -> Recommender:
    index = load_index(_resolve_index_path(settings))
    model = load_model(settings.model) if settings.model is not None else None
    secondary = None
    secondary_path = (
        Path(settings.secondary)
        if settings.secondary is not None
        else _fixture_path(settings, "secondary_ontology.jsonl")
    )
    if secondary_path is not None:
        secondary = FixtureOntologyProvider(secondary_path)
    return Recommender(
        index=index,
        evidence=_build_evidence_service(settings),
        model=model,
        secondary=secondary,
    )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args: argparse.Namespace, settings: Settings) -> int:
    index = ingest_dmoz(args.source, IngestFormat(args.format))
    save_index(index, args.index_out)
    report = index.ingest_report
    records: list[dict] = [
        {
            "type": "ingest",
            "records_read": report.records_read,
            "kept": report.kept,
            "dropped_category": report.dropped_category,
            "dropped_missing": report.dropped_missing,
            "malformed": report.malformed,
            "duplicates": report.duplicates,
            "categories": len(index.by_category),
            "index": str(args.index_out),
        }
    ]
    records += [{"type": "warning", "message": w} for w in report.warnings]
    lines = [
        f"read {report.records_read} records; kept {report.kept} "
        f"({len(index.by_category)} categories)",
        f"dropped: {report.dropped_category} unretained-category, "
        f"{report.dropped_missing} missing-field, {report.malformed} malformed, "
        f"{report.duplicates} duplicate",
        f"index written to {args.index_out}",
    ]
    lines += [f"warning: {w}" for w in report.warnings]
    _emit(records, "\n".join(lines), settings.output)
    return EXIT_OK


def _cmd_train(args: argparse.Namespace, settings: Settings) -> int:
    index = load_index(_resolve_index_path(settings))
    method = _METHODS[args.method]
    variants = frozenset(_parse_variants(args.variants))
    model = train_l1(index, method, variants, args.smoothing)
    save_model(model, args.model_out)
    summary = {
        "type": "train",
        "documents": sum(model.doc_counts.values()),
        "classes": len(model.classes),
        "vocabulary": len(model.vocabulary),
        "method": args.method,
        "variants": sorted(v.name.lower() for v in variants),
        "model": str(args.model_out),
    }
    table = (
        f"trained on {summary['documents']} documents, "
        f"{summary['classes']} classes, vocabulary {summary['vocabulary']}\n"
        f"model written to {args.model_out}"
    )
    _emit([summary], table, settings.output)
    return EXIT_OK


def _cmd_recommend(args: argparse.Namespace, settings: Settings) -> int:
    recommender = _build_recommender(settings)
    with recommender.evidence.cache or contextlib.nullcontext():
        return _recommend(recommender, args, settings)


def _recommend(recommender: Recommender, args: argparse.Namespace, settings: Settings) -> int:
    request = RecommendationRequest(
        uri=args.uri,
        datetime=None if args.datetime is None else parse_datetime(args.datetime),
        top_n=settings.top,
        weights=settings.weights_obj(),
        grams=settings.grams_obj(),
        temporal_as_similarity=not settings.temporal_literal,
    )
    result = recommender.recommend(request, now=settings.now_obj())

    records: list[dict] = [
        {
            "type": "result",
            "uri": request.uri,
            "route": result.route,
            "category": result.category,
            "reason": result.reason,
            "returned": len(result.recommendations),
            "trace": list(result.trace),
            "warnings": list(result.warnings),
            "dropped": [{"uri": u, "why": why} for u, why in result.dropped],
        }
    ]
    for position, rec in enumerate(result.recommendations, start=1):
        records.append(
            {
                "type": "recommendation",
                "position": position,
                "uri": rec.uri,
                "memento_uri": rec.memento_uri,
                "memento_datetime": rec.memento_datetime.astimezone(timezone.utc).strftime(
                    "%Y-%m-%dT%H:%M:%SZ"
                ),
                "score": round(rec.score, 6),
                "temporal": round(rec.temporal, 6),
                "popularity": round(rec.popularity, 6),
                "similarity": round(rec.similarity, 6),
                "quality": round(rec.quality, 6),
                "explanations": list(rec.explanations),
            }
        )

    lines = [f"request: {request.uri}", f"route: {result.route}  category: {result.category}"]
    if result.recommendations:
        lines.append(f"{'#':>2}  {'score':>8}  {'t':>6} {'p':>6} {'s':>6} {'q':>6}  uri")
        for position, rec in enumerate(result.recommendations, start=1):
            lines.append(
                f"{position:>2}  {rec.score:8.6f}  {rec.temporal:6.4f} {rec.popularity:6.4f} "
                f"{rec.similarity:6.4f} {rec.quality:6.4f}  {rec.uri}"
            )
            lines.append(f"    memento: {rec.memento_uri}")
    else:
        lines.append(f"no recommendations: {result.reason}")
    for uri, why in result.dropped:
        lines.append(f"dropped: {uri} ({why})")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    lines += [f"trace: {step}" for step in result.trace]
    _emit(records, "\n".join(lines), settings.output)
    return EXIT_OK if result.recommendations else EXIT_EMPTY


def _cmd_evaluate_l1(args: argparse.Namespace, settings: Settings) -> int:
    index = load_index(_resolve_index_path(settings))
    method = _METHODS[args.method]
    variants = _parse_variants(args.variants)
    report = evaluate_l1(index, method, variants, folds=args.folds, smoothing=args.smoothing)
    baseline = majority_baseline(label for _, label in build_l1_corpus(index))
    records = report.to_records()
    records.append({"type": "baseline", "majority_accuracy": round(baseline, 6)})
    table = report.to_table() + f"\nmajority baseline accuracy: {baseline:.6f}"
    _emit(records, table, settings.output)
    return EXIT_OK


def _cmd_evaluate_deep(args: argparse.Namespace, settings: Settings) -> int:
    index = load_index(_resolve_index_path(settings))
    report = evaluate_deep(
        index,
        holdout_fraction=args.holdout,
        grams=settings.grams_obj(),
        n_candidates=args.candidates,
        smoothing=args.smoothing,
    )
    _emit(report.to_records(), report.to_table(), settings.output)
    return EXIT_OK


def _cmd_analyze_logs(args: argparse.Namespace, settings: Settings) -> int:
    uris, stats = filter_log_file(args.log)
    report = analyze_requests(uris)
    records: list[dict] = [{"type": "filter", **stats.as_dict()}]
    records.extend(report.to_records())
    stat_lines = [
        f"{name}: {value}" for name, value in stats.as_dict().items()
    ]
    table = "filter summary\n" + "\n".join(f"  {line}" for line in stat_lines)
    table += "\n" + report.to_table()
    _emit(records, table, settings.output)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace, settings: Settings) -> int:
    index = load_index(_resolve_index_path(settings))
    report = corpus_stats(index)
    _emit(report.to_records(), report.to_table(), settings.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="key=value settings file")
    shared.add_argument("--fixtures", metavar="DIR", help="directory of recorded provider fixtures")
    shared.add_argument("--aggregator", metavar="URL", help="Memento aggregator base URL")
    shared.add_argument("--damage-service", dest="damage_service", metavar="URL")
    shared.add_argument("--cache", metavar="PATH", help="evidence cache file (JSON Lines)")
    shared.add_argument("--index", metavar="PATH", help="category index TSV")
    shared.add_argument("--model", metavar="PATH", help="trained first-level model")
    shared.add_argument("--secondary", metavar="PATH", help="secondary ontology JSONL")
    shared.add_argument("--weights", metavar="T,P,S,Q", help="ranking weights, must sum to 1")
    shared.add_argument("--grams", choices=["3", "all"], help="deep-stage feature scheme")
    shared.add_argument("--top", type=int, metavar="N", help="max recommendations")
    shared.add_argument(
        "--temporal-literal",
        dest="temporal_literal",
        action="store_true",
        default=None,
        help="report the temporal component as raw distance instead of its complement",
    )
    shared.add_argument("--output", choices=["table", "records"], help="output format")
    shared.add_argument("--now", metavar="ISO8601", help="pin the current instant (reproducible runs)")

    parser = _Parser(prog="archrec", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("ingest", parents=[shared], help="build a category index from a directory dump")
    p.add_argument("source", help="dump file (TSV or RDF; gzip allowed)")
    p.add_argument("--format", choices=["tsv", "rdf"], default="tsv")
    p.add_argument("--index-out", dest="index_out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_ingest)

    p = commands.add_parser("train", parents=[shared], help="train the first-level URI classifier")
    p.add_argument("--model-out", dest="model_out", required=True, metavar="PATH")
    p.add_argument("--method", choices=sorted(_METHODS), default="grams-uri")
    p.add_argument("--variants", default="strip-tld,strip-numbers", metavar="LIST",
                   help="comma-separated: strip-tld,strip-numbers,strip-stopwords")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.set_defaults(func=_cmd_train)

    p = commands.add_parser("recommend", parents=[shared], help="recommend archived pages for a URI")
    p.add_argument("uri", help="requested URI")
    p.add_argument("--datetime", metavar="ISO8601", help="desired datetime for the page")
    p.set_defaults(func=_cmd_recommend)

    p = commands.add_parser("evaluate-l1", parents=[shared], help="cross-validate first-level classification")
    p.add_argument("--method", choices=sorted(_METHODS), default="grams-uri")
    p.add_argument("--variants", default="strip-tld,strip-numbers", metavar="LIST")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.set_defaults(func=_cmd_evaluate_l1)

    p = commands.add_parser("evaluate-deep", parents=[shared], help="evaluate deep classification per level")
    p.add_argument("--holdout", type=float, default=0.1, metavar="FRACTION")
    p.add_argument("--candidates", type=int, default=10, metavar="N")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.set_defaults(func=_cmd_evaluate_deep)

    p = commands.add_parser("analyze-logs", parents=[shared], help="filter an access log and profile the URIs")
    p.add_argument("log", help="access log (gzip-transparent)")
    p.set_defaults(func=_cmd_analyze_logs)

    p = commands.add_parser("stats", parents=[shared], help="profile the category index")
    p.set_defaults(func=_cmd_stats)

    return parser


_SETTING_FLAGS = (
    "fixtures",
    "aggregator",
    "damage_service",
    "cache",
    "index",
    "model",
    "secondary",
    "weights",
    "grams",
    "top",
    "temporal_literal",
    "output",
    "now",
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; usage errors exit EXIT_USAGE
        return int(exc.code or 0)
    overrides = {name: getattr(args, name, None) for name in _SETTING_FLAGS}
    try:
        settings = load_settings(args.config, overrides)
        return args.func(args, settings)
    except (ConfigError, UriParseError, ArchiveFetchError, OSError) as exc:
        print(f"archrec: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
