"""Web server access-log parsing and the URI filtering pipeline.

Lines are whitespace-separated with nine fields — client IP, access time,
method, URI, protocol, status, bytes sent, referrer, user agent — where the
user agent is the unsplit remainder. Reading is gzip-transparent and the
filter is streaming and single-pass.
"""
from __future__ import annotations

import io
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator

from .archives import parse_instant
from .reports import DistributionReport, analyze_uris
from .uri import UriParseError, open_input, parse_uri

__all__ = [
    "ENGLISH_CCTLDS",
    "HTML_EXTENSIONS",
    "AccessLogRecord",
    "LogParseError",
    "LogFilterStats",
    "parse_log_line",
    "read_log_lines",
    "parse_access_log",
    "filter_access_log",
    "filter_log_file",
    "analyze_requests",
]

# ccTLDs of predominantly English-speaking countries; two-letter TLDs outside
# this set are dropped, anything longer counts as a generic TLD and is kept.
ENGLISH_CCTLDS = frozenset({"us", "uk", "au", "ca", "nz", "ie", "za"})

# Path extensions that plausibly serve an HTML page ("" = no extension).
HTML_EXTENSIONS = frozenset({"", "html", "htm", "php", "asp", "aspx", "jsp", "cgi"})


class LogParseError(ValueError):
    """A line that does not match the nine-field schema."""


@dataclass(frozen=True)
class AccessLogRecord:
    client_ip: str
    access_time: datetime
    method: str
    uri: str
    protocol: str
    status: int
    bytes_sent: int | None
    referrer: str | None
    user_agent: str

    def __post_init__(self):
        if not 100 <= self.status <= 599:
            raise LogParseError(f"status {self.status} is not a 3-digit HTTP code")


def _number(field: str) -> int | None:
    """The value of a field of digits, else None. ``str.isdigit`` also passes
    digits such as ``²`` that ``int`` rejects, and ``int`` rejects more
    digits than ``sys.get_int_max_str_digits()``."""
    if not field.isdigit():
        return None
    try:
        return int(field)
    except ValueError:
        return None


def parse_log_line(line: str) -> AccessLogRecord:
    parts = line.split(maxsplit=8)
    if len(parts) != 9:
        raise LogParseError(f"expected 9 fields, got {len(parts)}")
    ip, when, method, uri, protocol, status, size, referrer, agent = parts
    try:
        access_time = parse_instant(when)
    except ValueError as exc:
        raise LogParseError(f"bad access time {when!r}") from exc
    code = _number(status)
    if code is None:
        raise LogParseError(f"non-numeric status {status!r}")
    return AccessLogRecord(
        client_ip=ip,
        access_time=access_time,
        method=method,
        uri=uri,
        protocol=protocol,
        status=code,
        bytes_sent=_number(size),
        referrer=None if referrer == "-" else referrer,
        user_agent=agent,
    )


@dataclass
class LogFilterStats:
    total_lines: int = 0
    malformed: int = 0
    non_200: int = 0
    bad_uri: int = 0
    bad_extension: int = 0
    ip_host: int = 0
    non_english_tld: int = 0
    duplicate: int = 0
    kept: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def read_log_lines(path: str | Path) -> Iterator[str]:
    """Yield lines from a plain or gzip-compressed log, sniffed by magic."""
    with open_input(path) as stream, io.TextIOWrapper(stream, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            yield line.rstrip("\n")


def parse_access_log(lines: Iterable[str], stats: LogFilterStats | None = None) -> Iterator[AccessLogRecord]:
    """Parse lines into records; malformed lines are counted and skipped."""
    if stats is None:
        stats = LogFilterStats()
    for line in lines:
        if not line.strip():
            continue
        stats.total_lines += 1
        try:
            yield parse_log_line(line)
        except LogParseError:
            stats.malformed += 1


def _extension(path: str) -> str:
    segment = path.rsplit("/", 1)[-1]
    if "." not in segment:
        return ""
    return segment.rsplit(".", 1)[-1].lower()


def filter_access_log(
    records: Iterable[AccessLogRecord], stats: LogFilterStats | None = None
) -> Iterator[str]:
    """Reduce records to unique page URIs worth analyzing.

    Keeps status-200 requests for syntactically valid absolute http(s) URIs
    with an HTML-ish extension, a non-IP host, and an English-speaking-country
    ccTLD or any generic TLD; exact duplicate URIs pass through once.
    """
    if stats is None:
        stats = LogFilterStats()
    seen: set[str] = set()
    for record in records:
        if record.status != 200:
            stats.non_200 += 1
            continue
        if "://" not in record.uri:  # parse_uri would read a bare host/path as http
            stats.bad_uri += 1
            continue
        try:
            parsed = parse_uri(record.uri)
        except UriParseError:
            stats.bad_uri += 1
            continue
        if _extension(parsed.path) not in HTML_EXTENSIONS:
            stats.bad_extension += 1
            continue
        if parsed.is_ip_host:
            stats.ip_host += 1
            continue
        # The effective TLD may be multi-label (co.uk); the country code is
        # its last label. Two-letter codes outside the allowlist are dropped.
        country = parsed.tld.rsplit(".", 1)[-1]
        if len(country) == 2 and country not in ENGLISH_CCTLDS:
            stats.non_english_tld += 1
            continue
        if record.uri in seen:
            stats.duplicate += 1
            continue
        seen.add(record.uri)
        stats.kept += 1
        yield record.uri


def filter_log_file(path: str | Path) -> tuple[list[str], LogFilterStats]:
    """Read, parse, and filter a log file in one pass."""
    stats = LogFilterStats()
    records = parse_access_log(read_log_lines(path), stats)
    uris = list(filter_access_log(records, stats))
    return uris, stats


def analyze_requests(uris: Iterable[str]) -> DistributionReport:
    """Distribution report (TLD / depth / patterns / dictionary words) over
    filtered request URIs — same schema as the ontology corpus report."""
    return analyze_uris((uri, None) for uri in uris)
