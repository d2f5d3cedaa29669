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
import math
import sys
from dataclasses import fields
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
    format_instant,
)
from .config import ConfigError, Settings, load_settings, parse_datetime
from .deep import CANDIDATES, HOLDOUT_FRACTION, GramScheme, evaluate_deep
from .logs import analyze_requests, filter_log_file
from .metrics import FOLDS, majority_baseline
from .nbayes import SMOOTHING, SmoothingError, load_model, save_model
from .ontology import (
    CategoryIndex,
    FixtureOntologyProvider,
    IngestFormat,
    corpus_stats,
    ingest_dmoz,
    load_index,
    save_index,
)
from .pipeline import (
    L1_METHOD,
    L1_VARIANTS,
    RecommendationRequest,
    Recommender,
    build_l1_corpus,
    evaluate_l1,
    train_l1,
)
from .uri import InputFileError, TokenMethod, TokenVariant, UriParseError

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
# The first-level defaults of train and evaluate-l1, by their flag names.
_DEFAULT_METHOD = next(name for name, method in _METHODS.items() if method is L1_METHOD)
_DEFAULT_VARIANTS = ",".join(name for name, variant in _VARIANTS.items() if variant in L1_VARIANTS)


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


def _ranged(convert, accepts, requirement: str):
    """An argparse type: ``convert`` the text, then keep it only if
    ``accepts`` it, so an out-of-range value is a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
            if accepts(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")

    return parse


_count = _ranged(int, lambda n: n >= 1, "an integer of at least 1")
_folds = _ranged(int, lambda n: n >= 2, "an integer of at least 2")
_holdout = _ranged(float, lambda x: 0.0 < x <= 0.5, "a number above 0 and at most 0.5")
_smoothing = _ranged(float, lambda x: 0.0 < x < math.inf, "a finite number above 0")


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


_TO_TRAIN = "to train the first-level model on"


def _load_index(settings: Settings, needs_entries: str | None = None) -> CategoryIndex:
    """The configured index, which must hold an entry where a command
    ``needs_entries`` (what for, as the error names it)."""
    index = load_index(path := _resolve_index_path(settings))
    if needs_entries and not len(index):
        raise ConfigError(f"{path}: the category index holds no entries {needs_entries}")
    return index


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

    popularity_path = _fixture_path(settings, "popularity.tsv")
    popularity = FixturePopularityProvider(popularity_path) if popularity_path is not None else None

    if settings.damage_service is not None:
        damage = MementoDamageClient(settings.damage_service)
    else:
        damage_path = _fixture_path(settings, "damage.tsv")
        damage = FixtureDamageProvider(damage_path) if damage_path is not None else None

    cache = EvidenceCache(settings.cache, max_age=settings.cache_max_age) if settings.cache is not None else None
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
    index = _load_index(settings, _TO_TRAIN if settings.model is None else None)
    model = load_model(settings.model) if settings.model is not None else None
    secondary_path = _fixture_path(settings, "secondary_ontology.jsonl")
    if settings.secondary is not None:
        secondary_path = Path(settings.secondary)
    secondary = FixtureOntologyProvider(secondary_path) if secondary_path is not None else None
    return Recommender(index, _build_evidence_service(settings), model, secondary)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args: argparse.Namespace, settings: Settings) -> int:
    index, report = ingest_dmoz(args.source, IngestFormat(args.format))
    save_index(index, args.index_out)
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
    index = _load_index(settings, _TO_TRAIN)
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
                "memento_datetime": format_instant(rec.memento_datetime),
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
    index = _load_index(settings, "to evaluate")
    method = _METHODS[args.method]
    variants = _parse_variants(args.variants)
    corpus = build_l1_corpus(index)
    if args.folds > len(corpus):  # a bound of the index, so argparse cannot check it
        print(f"archrec: error: --folds {args.folds} is more than the corpus of {len(corpus)} items",
              file=sys.stderr)
        return EXIT_USAGE
    report = evaluate_l1(index, method, variants, folds=args.folds, smoothing=args.smoothing)
    baseline = majority_baseline(label for _, label in corpus)
    records = report.to_records()
    records.append({"type": "baseline", "majority_accuracy": round(baseline, 6)})
    table = report.to_table() + f"\nmajority baseline accuracy: {baseline:.6f}"
    _emit(records, table, settings.output)
    return EXIT_OK


def _cmd_evaluate_deep(args: argparse.Namespace, settings: Settings) -> int:
    index = _load_index(settings, "to evaluate")
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
    index = _load_index(settings, "to profile")
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
    shared.add_argument("--grams", choices=[scheme.value for scheme in GramScheme], help="deep-stage feature scheme")
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
    p.add_argument("--method", choices=sorted(_METHODS), default=_DEFAULT_METHOD)
    p.add_argument("--variants", default=_DEFAULT_VARIANTS, metavar="LIST",
                   help="comma-separated: strip-tld,strip-numbers,strip-stopwords")
    p.add_argument("--smoothing", type=_smoothing, default=SMOOTHING)
    p.set_defaults(func=_cmd_train)

    p = commands.add_parser("recommend", parents=[shared], help="recommend archived pages for a URI")
    p.add_argument("uri", help="requested URI")
    p.add_argument("--datetime", metavar="ISO8601", help="desired datetime for the page")
    p.set_defaults(func=_cmd_recommend)

    p = commands.add_parser("evaluate-l1", parents=[shared], help="cross-validate first-level classification")
    p.add_argument("--method", choices=sorted(_METHODS), default=_DEFAULT_METHOD)
    p.add_argument("--variants", default=_DEFAULT_VARIANTS, metavar="LIST")
    p.add_argument("--folds", type=_folds, default=FOLDS)
    p.add_argument("--smoothing", type=_smoothing, default=SMOOTHING)
    p.set_defaults(func=_cmd_evaluate_l1)

    p = commands.add_parser("evaluate-deep", parents=[shared], help="evaluate deep classification per level")
    p.add_argument("--holdout", type=_holdout, default=HOLDOUT_FRACTION, metavar="FRACTION")
    p.add_argument("--candidates", type=_count, default=CANDIDATES, metavar="N")
    p.add_argument("--smoothing", type=_smoothing, default=SMOOTHING)
    p.set_defaults(func=_cmd_evaluate_deep)

    p = commands.add_parser("analyze-logs", parents=[shared], help="filter an access log and profile the URIs")
    p.add_argument("log", help="access log (gzip-transparent)")
    p.set_defaults(func=_cmd_analyze_logs)

    p = commands.add_parser("stats", parents=[shared], help="profile the category index")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; usage errors exit EXIT_USAGE
        return int(exc.code or 0)
    overrides = {f.name: getattr(args, f.name, None) for f in fields(Settings)}
    try:
        settings = load_settings(args.config, overrides)
        return args.func(args, settings)
    except SmoothingError as exc:  # a --smoothing that a model of the corpus cannot take
        print(f"archrec: error: --smoothing: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, InputFileError, UriParseError, ArchiveFetchError, OSError) as exc:
        print(f"archrec: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
