"""Shared distribution-report schema.

Both the ontology corpus statistics and the access-log analysis emit the
same report: TLD distribution, depth distribution, structural-pattern
frequencies, hostname dictionary-word composition, and (when the input is
categorized) per-category counts. Two renderers: an aligned text table and
plain record dicts for machine output.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .uri import ParsedUri, UriParseError, depth, detect_patterns, parse_uri
from .words import dictionary_bucket

__all__ = ["DictionaryStats", "DistributionReport", "analyze_uris", "host_dictionary_bucket"]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class DictionaryStats:
    """How hostnames decompose into dictionary words (suffix removed)."""

    all_words: int = 0
    some_words: int = 0
    no_words: int = 0

    @property
    def total(self) -> int:
        return self.all_words + self.some_words + self.no_words


@dataclass
class DistributionReport:
    total: int
    tld_counts: Counter[str]
    depth_counts: Counter[int]
    pattern_counts: Counter[str]
    dictionary: DictionaryStats
    category_counts: Counter[str] | None = None
    malformed: int = 0

    def percent(self, count: int) -> float:
        return 100.0 * count / self.total if self.total else 0.0

    def to_records(self) -> list[dict]:
        records: list[dict] = [{"section": "total", "key": "uris", "count": self.total}]
        if self.malformed:
            records.append({"section": "total", "key": "malformed", "count": self.malformed})
        for name, count in sorted(self.tld_counts.items(), key=lambda kv: (-kv[1], kv[0])):
            records.append(self._row("tld", name, count))
        for value in sorted(self.depth_counts):
            records.append(self._row("depth", str(value), self.depth_counts[value]))
        for name, count in self.pattern_counts.items():
            records.append(self._row("pattern", name, count))
        d = self.dictionary
        for name, count in (("all", d.all_words), ("some", d.some_words), ("none", d.no_words)):
            records.append(self._row("dictionary_words", name, count))
        if self.category_counts is not None:
            for name, count in sorted(self.category_counts.items(), key=lambda kv: (-kv[1], kv[0])):
                records.append(self._row("category", name, count))
        return records

    def _row(self, section: str, key: str, count: int) -> dict:
        return {
            "section": section,
            "key": key,
            "count": count,
            "percent": round(self.percent(count), 2),
        }

    def to_table(self) -> str:
        lines = []
        current = None
        rows = self.to_records()
        width = max(len(str(r["key"])) for r in rows) + 2
        for r in rows:
            if r["section"] != current:
                current = r["section"]
                lines.append("")
                lines.append(current)
            pct = f'{r["percent"]:6.2f}%' if "percent" in r else ""
            lines.append(f'  {str(r["key"]).ljust(width)}{r["count"]:>8}  {pct}')
        return "\n".join(lines[1:]) + "\n"


def host_dictionary_bucket(parsed: ParsedUri) -> str:
    """``dictionary_bucket`` of the registrable host label's letters (public suffix removed)."""
    label, tld = parsed.registered_domain, parsed.tld
    if tld and label.endswith("." + tld):
        label = label[: -(len(tld) + 1)]
    return dictionary_bucket("".join(ch for ch in label.lower() if ch in _LETTERS))


def analyze_uris(items: Iterable[tuple[str, str | None]]) -> DistributionReport:
    """Build the distribution report from (uri, top_category_or_None) pairs."""
    tlds: Counter[str] = Counter()
    depths: Counter[int] = Counter()
    patterns: Counter[str] = Counter()
    categories: Counter[str] = Counter()
    buckets: Counter[str] = Counter()
    total = 0
    malformed = 0
    saw_category = False
    for uri, top in items:
        try:
            parsed = parse_uri(uri, assume_http=True)
            uri_depth = depth(uri)
            report = detect_patterns(uri)
        except UriParseError:
            malformed += 1
            continue
        total += 1
        tlds[parsed.host.rsplit(".", 1)[-1] if not parsed.is_ip_host else "(ip)"] += 1
        depths[uri_depth] += 1
        for flag, value in report.flags().items():
            if value:
                patterns[flag] += 1
        buckets[host_dictionary_bucket(parsed)] += 1
        if top is not None:
            saw_category = True
            categories[top] += 1
    return DistributionReport(
        total=total,
        tld_counts=tlds,
        depth_counts=depths,
        pattern_counts=patterns,
        dictionary=DictionaryStats(buckets["all"], buckets["some"], buckets["none"]),
        category_counts=categories if saw_category else None,
        malformed=malformed,
    )
