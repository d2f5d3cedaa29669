"""Shared distribution-report schema.

Both the ontology corpus statistics and the access-log analysis emit the
same report: TLD distribution, depth distribution, structural-pattern
frequencies, hostname dictionary-word composition, and (when the input is
categorized) per-category counts. Two renderers: an aligned text table and
plain record dicts for machine output.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .uri import ParsedUri, UriParseError, depth, detect_patterns, parse_uri
from .words import dictionary_bucket

__all__ = ["DistributionReport", "analyze_uris", "host_dictionary_bucket"]

_NOT_LETTERS = re.compile("[^a-z]+")


@dataclass
class DistributionReport:
    total: int
    tld_counts: Counter[str]
    depth_counts: Counter[int]
    pattern_counts: Counter[str]  # in the order each pattern was first seen
    dictionary: Counter[str]  # dictionary_bucket names of the host labels
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
        for name in ("all", "some", "none"):
            records.append(self._row("dictionary_words", name, self.dictionary[name]))
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


def _host_letters(parsed: ParsedUri) -> str:
    """The ASCII letters of the registrable host label (public suffix removed)."""
    label, tld = parsed.registered_domain, parsed.tld
    if tld and label.endswith("." + tld):
        label = label[: -(len(tld) + 1)]
    return _NOT_LETTERS.sub("", label.lower())


def host_dictionary_bucket(parsed: ParsedUri) -> str:
    """``dictionary_bucket`` of the registrable host label's letters (public suffix removed)."""
    return dictionary_bucket(_host_letters(parsed))


def analyze_uris(items: Iterable[tuple[str, str | None]]) -> DistributionReport:
    """Build the distribution report from (uri, top_category_or_None) pairs;
    each URI is parsed once, and every fact is read off that parse."""
    tlds: Counter[str] = Counter()
    depths: Counter[int] = Counter()
    patterns: Counter[str] = Counter()
    categories: Counter[str] = Counter()
    buckets: Counter[str] = Counter()
    # Many URIs share a host: segment each distinct letter string once per call.
    bucket_of: dict[str, str] = {}
    total = 0
    malformed = 0
    saw_category = False
    for uri, top in items:
        try:
            parsed = parse_uri(uri)
        except UriParseError:
            malformed += 1
            continue
        total += 1
        tlds[parsed.host.rsplit(".", 1)[-1] if not parsed.is_ip_host else "(ip)"] += 1
        depths[depth(parsed)] += 1
        patterns.update(detect_patterns(parsed))
        letters = _host_letters(parsed)
        if letters not in bucket_of:
            bucket_of[letters] = dictionary_bucket(letters)
        buckets[bucket_of[letters]] += 1
        if top is not None:
            saw_category = True
            categories[top] += 1
    return DistributionReport(
        total=total,
        tld_counts=tlds,
        depth_counts=depths,
        pattern_counts=patterns,
        dictionary=buckets,
        category_counts=categories if saw_category else None,
        malformed=malformed,
    )
