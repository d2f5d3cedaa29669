"""Directory-ontology ingestion, indexing, lookup, and persistence.

The primary ontology is a DMOZ-style hierarchy read either from the RDF dump
vocabulary (ExternalPage/topic) or from a simple TSV format:

    category<TAB>uri<TAB>title<TAB>description

with ``#`` comment lines. Retained entries are limited to the thirteen
general-interest top-level categories; World, Regional, Netscape,
Kids_and_Teens, and Adult are dropped. A pluggable secondary provider
(Wikipedia-style "official website" records) backs lookups for URIs missing
from the primary index.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Protocol

from .reports import DistributionReport, analyze_uris
from .uri import (
    InputFileError, TokenMethod, UriParseError, canonicalize_surt, content_lines, open_input, read_lines, tokenize,
)

__all__ = [
    "RETAINED_TOP_CATEGORIES",
    "CategoryPath",
    "OntologyEntry",
    "CategoryIndex",
    "IngestFormat",
    "IngestReport",
    "ingest_dmoz",
    "save_index",
    "load_index",
    "OntologyProvider",
    "SecondaryRecord",
    "FixtureOntologyProvider",
    "LookupOutcome",
    "lookup_requested",
    "corpus_stats",
]

RETAINED_TOP_CATEGORIES = frozenset(
    {
        "Arts",
        "Business",
        "Computers",
        "Games",
        "Health",
        "Home",
        "News",
        "Recreation",
        "Reference",
        "Science",
        "Shopping",
        "Society",
        "Sports",
    }
)
_MAX_WARNINGS = 20  # an ingest report keeps only its first warnings


@dataclass(frozen=True, order=True)
class CategoryPath:
    """Ordered hierarchy of category labels, e.g. Computers/Computer_Science."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("category path needs at least one label")
        for label in self.labels:
            if not label or "/" in label:
                raise ValueError(f"bad category label {label!r}")

    @classmethod
    def parse(cls, text: str) -> "CategoryPath":
        labels = tuple(part for part in text.strip().strip("/").split("/") if part)
        if labels and labels[0] == "Top":
            labels = labels[1:]
        return cls(labels)

    def __str__(self) -> str:
        return "/".join(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def top(self) -> str:
        return self.labels[0]

    def ancestors(self) -> Iterator["CategoryPath"]:
        """Proper prefixes, shortest first."""
        for k in range(1, len(self.labels)):
            yield CategoryPath(self.labels[:k])

    def is_prefix_of(self, other: "CategoryPath") -> bool:
        return self.labels == other.labels[: len(self.labels)]


@dataclass(frozen=True)
class OntologyEntry:
    category: CategoryPath
    uri: str
    surt: str
    title: str | None = None
    description: str | None = None

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """The URI's TOKENS features, in order and with repeats: the deep
        build expands them into the entry's grams, and ranking compares
        them as a set for URI similarity. Worked out on first read and kept
        with the entry, so each entry's URI is tokenized once."""
        return tokenize(self.uri, TokenMethod.TOKENS).features


@dataclass
class IngestReport:
    records_read: int = 0
    kept: int = 0
    dropped_category: int = 0
    dropped_missing: int = 0
    malformed: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def duplicates(self) -> int:
        """Records that passed every filter but whose SURT an earlier record holds."""
        return self.records_read - self.malformed - self.dropped_missing - self.dropped_category - self.kept

    def warn(self, message: str) -> None:
        if len(self.warnings) < _MAX_WARNINGS:
            self.warnings.append(message)


class CategoryIndex:
    """Immutable-after-build index of entries by deepest category and by SURT."""

    def __init__(self, entries: Iterable[OntologyEntry]):
        self.by_category: dict[str, list[OntologyEntry]] = {}
        self.by_surt: dict[str, OntologyEntry] = {}
        for entry in entries:
            if entry.surt in self.by_surt:
                continue
            self.by_surt[entry.surt] = entry
            self.by_category.setdefault(str(entry.category), []).append(entry)

    def __len__(self) -> int:
        return len(self.by_surt)

    def all_entries(self) -> Iterator[OntologyEntry]:
        for entries in self.by_category.values():
            yield from entries

    def categories(self) -> list[CategoryPath]:
        return sorted(entries[0].category for entries in self.by_category.values())

    def entries_for(self, category: CategoryPath | str) -> list[OntologyEntry]:
        return list(self.by_category.get(str(category), ()))

    def entries_under(self, prefix: CategoryPath) -> list[OntologyEntry]:
        out: list[OntologyEntry] = []
        for path in self.categories():
            if prefix.is_prefix_of(path):
                out.extend(self.by_category[str(path)])
        return out

    def lookup_surt(self, surt: str) -> OntologyEntry | None:
        return self.by_surt.get(surt)


class IngestFormat(Enum):
    TSV = "tsv"
    RDF = "rdf"


def _entry_from_fields(
    category_text: str,
    uri: str,
    title: str,
    description: str,
    report: IngestReport,
) -> OntologyEntry | None:
    if not category_text or not uri:
        report.dropped_missing += 1
        return None
    try:
        category = CategoryPath.parse(category_text)
    except ValueError as exc:
        report.malformed += 1
        report.warn(f"bad category {category_text!r}: {exc}")
        return None
    if category.top not in RETAINED_TOP_CATEGORIES:
        report.dropped_category += 1
        return None
    try:
        surt = canonicalize_surt(uri)
    except UriParseError as exc:
        report.malformed += 1
        report.warn(str(exc))
        return None
    return OntologyEntry(
        category=category,
        uri=uri,
        surt=surt,
        title=title or None,
        description=description or None,
    )


def _iter_tsv(stream: IO[bytes], report: IngestReport) -> Iterator[OntologyEntry]:
    lines = (raw.decode("utf-8", errors="replace").rstrip("\n").rstrip("\r") for raw in stream)
    for _, line in content_lines(lines):
        report.records_read += 1
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 4:
            report.malformed += 1
            report.warn(f"expected 2-4 tab-separated fields, got {len(parts)}")
            continue
        parts += [""] * (4 - len(parts))
        entry = _entry_from_fields(parts[0].strip(), parts[1].strip(), parts[2].strip(), parts[3].strip(), report)
        if entry is not None:
            yield entry


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _iter_rdf(events: Iterator[tuple[str, Any]], report: IngestReport) -> Iterator[OntologyEntry]:
    for _, elem in events:
        if _localname(elem.tag) != "ExternalPage":
            continue
        report.records_read += 1
        uri = ""
        for key, value in elem.attrib.items():
            if _localname(key) == "about":
                uri = value
        title = description = topic = ""
        for child in elem:
            name = _localname(child.tag)
            text = (child.text or "").strip()
            if name == "Title":
                title = text
            elif name == "Description":
                description = text
            elif name == "topic":
                topic = text
        elem.clear()
        entry = _entry_from_fields(topic, uri, title, description, report)
        if entry is not None:
            yield entry


def ingest_dmoz(
    source: str | Path, format: IngestFormat = IngestFormat.TSV
) -> tuple[CategoryIndex, IngestReport]:
    """Read, filter, and index a directory dump file, plain or gzip; return
    the index and the report of what the read counted.

    Filtering: entries missing URI or category are dropped; only the thirteen
    retained top-level categories are kept; URIs are SURT-canonicalized, and
    of records sharing a SURT the first seen is kept (order sources
    newest-first). Unparseable records are skipped and counted on the
    returned report; a truncated or malformed RDF dump raises
    InputFileError naming its path (fatal).
    """
    report = IngestReport()
    with open_input(source) as stream:
        if format is IngestFormat.TSV:
            index = CategoryIndex(_iter_tsv(stream, report))
        else:
            import xml.etree.ElementTree as ET  # only RDF ingest parses XML

            try:
                index = CategoryIndex(_iter_rdf(ET.iterparse(stream, events=("end",)), report))
            except ET.ParseError as exc:
                raise InputFileError(f"{source}: malformed RDF ({exc})") from None
    report.kept = len(index)
    return index, report


# ---------------------------------------------------------------------------
# Persistence: TSV records plus a SURT sidecar aligned line-for-line.


def save_index(index: CategoryIndex, path: str | Path) -> None:
    path = Path(path)
    lines = []
    surts = []
    for key in sorted(index.by_category):
        for entry in index.by_category[key]:
            lines.append(
                "\t".join(
                    (str(entry.category), entry.uri, entry.title or "", entry.description or "")
                )
            )
            surts.append(entry.surt)
    path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
    Path(str(path) + ".surt").write_text("\n".join(surts) + ("\n" if surts else ""), "utf-8")


def load_index(path: str | Path) -> CategoryIndex:
    """Reload a saved index, trusting the sidecar to skip re-canonicalizing.
    Each entry's SURT, from the sidecar where it has one line per row, is
    also the key its TimeMap and popularity are cached under, so a sidecar
    must hold ``canonicalize_surt`` of each URI. Rows with one category
    text share one parsed path. A row with no category raises
    InputFileError."""
    path = Path(path)
    rows: list[tuple[CategoryPath, str, str, str]] = []
    categories: dict[str, CategoryPath] = {}  # by the text of the row
    for lineno, line in content_lines(read_lines(path)):
        parts = line.split("\t")
        parts += [""] * (4 - len(parts))
        category = categories.get(parts[0])
        if category is None:
            try:
                category = categories[parts[0]] = CategoryPath.parse(parts[0])
            except ValueError as exc:
                raise InputFileError(f"{path}:{lineno}: malformed index row {line!r}: {exc}") from None
        rows.append((category, parts[1], parts[2], parts[3]))
    sidecar = Path(str(path) + ".surt")
    surts: list[str] | None = None
    if sidecar.exists():
        candidate = read_lines(sidecar)
        if len(candidate) == len(rows):
            surts = candidate
    return CategoryIndex(
        OntologyEntry(
            category=category, uri=uri, surt=surts[i] if surts else canonicalize_surt(uri),
            title=title or None, description=description or None,
        )
        for i, (category, uri, title, description) in enumerate(rows)
    )


# ---------------------------------------------------------------------------
# Secondary ontology (official-website records)


@dataclass(frozen=True)
class SecondaryRecord:
    categories: tuple[str, ...]
    members: tuple[str, ...]

    @cached_property
    def _category_and_members(self) -> tuple[CategoryPath, tuple[OntologyEntry, ...], str | None]:
        """The record's category, an entry per member URI that parses, and
        the warning for the last one that does not; worked out on the first
        lookup that finds the record and kept with it."""
        category = CategoryPath(tuple(label.replace("/", "_") for label in self.categories))
        entries = []
        warning = None
        for member in self.members:
            try:
                entries.append(OntologyEntry(category=category, uri=member, surt=canonicalize_surt(member)))
            except UriParseError as exc:
                warning = f"skipped unparseable member URI: {exc}"
        return category, tuple(entries), warning


class OntologyProvider(Protocol):
    def lookup(self, uri: str) -> SecondaryRecord | None: ...


class FixtureOntologyProvider:
    """JSON Lines file of {official_uri, categories, members}, matched by SURT.
    A line that is not one raises InputFileError: one whose official URI does
    not parse, whose categories are not an array of non-empty strings, or
    whose members are not an array."""

    def __init__(self, path: str | Path):
        self._by_surt: dict[str, SecondaryRecord] = {}
        for lineno, line in content_lines(read_lines(path)):
            try:
                obj = json.loads(line)
                official_uri = obj["official_uri"]
                categories, members = obj.get("categories", []), obj.get("members", [])
                if not isinstance(categories, list) or not all(isinstance(c, str) and c for c in categories):
                    raise ValueError("categories is not an array of non-empty strings")
                if not isinstance(members, list):
                    raise ValueError("members is not an array")
                surt = canonicalize_surt(official_uri)
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise InputFileError(f"{path}:{lineno}: malformed ontology record {line!r}: {exc!r}") from None
            self._by_surt[surt] = SecondaryRecord(tuple(categories), tuple(members))

    def lookup(self, uri: str) -> SecondaryRecord | None:
        return self._by_surt.get(canonicalize_surt(uri))


@dataclass
class LookupOutcome:
    category: CategoryPath | None
    entries: list[OntologyEntry]
    source: str  # "primary" | "secondary" | "none"
    warning: str | None = None

    @property
    def found(self) -> bool:
        return self.category is not None


def lookup_requested(
    index: CategoryIndex,
    secondary: OntologyProvider | None,
    uri: str,
    surt: str,
) -> LookupOutcome:
    """Find the requested URI's category: primary index first, by ``surt``,
    the URI's SURT (``canonicalize_surt(uri)``), then the secondary
    provider. Provider failures degrade to the primary-only answer with a
    warning instead of raising."""
    hit = index.lookup_surt(surt)
    if hit is not None:
        return LookupOutcome(category=hit.category, entries=index.entries_for(hit.category), source="primary")
    if secondary is None:
        return LookupOutcome(category=None, entries=[], source="none")
    try:
        record = secondary.lookup(uri)
    except Exception as exc:  # degraded, not fatal
        return LookupOutcome(
            category=None, entries=[], source="none", warning=f"secondary ontology lookup failed: {exc}"
        )
    if record is None or not record.categories:
        return LookupOutcome(category=None, entries=[], source="none")
    category, entries, warning = record._category_and_members
    return LookupOutcome(category=category, entries=list(entries), source="secondary", warning=warning)


def corpus_stats(index: CategoryIndex) -> DistributionReport:
    """Distribution report (TLD / depth / patterns / dictionary / category)
    over every entry in the index."""
    return analyze_uris((entry.uri, entry.category.top) for entry in index.all_entries())
