"""External evidence: archive presence via Memento TimeMaps, domain
popularity rank, and archival-damage scores.

Every source sits behind a small provider interface with a live client and
a file-backed fixture implementation, so the whole test suite runs offline.
A persistent append-only cache keyed by (kind, SURT) makes repeated
lookups idempotent within a cache epoch.
"""
from __future__ import annotations

import errno
import json
import logging
import math
import os
import re
import stat
import threading
import time
import weakref
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Protocol, Sequence
from urllib.parse import quote

from .uri import InputFileError, UriParseError, canonicalize_surt, content_lines, parse_uri, read_lines

__all__ = [
    "RANK_FLOOR_DEFAULT",
    "ARCHIVE_COUNT_CEILING_DEFAULT",
    "PARALLELISM", "RETRIES", "MAX_PAGES",
    "ArchiveFetchError",
    "ArchiveEvidence",
    "PopularityEvidence",
    "DamageEvidence",
    "DamageSource",
    "parse_instant",
    "format_instant",
    "fetch_timemap",
    "nearest_memento",
    "fetch_damage",
    "TimemapSource",
    "FixtureArchiveSource",
    "MemGatorClient",
    "PopularityProvider",
    "FixturePopularityProvider",
    "DamageProvider",
    "FixtureDamageProvider",
    "MementoDamageClient",
    "EvidenceCache",
    "CandidateEvidence",
    "EvidenceService",
]

_log = logging.getLogger(__name__)

# Popularity normalization constants: the lowest global rank observed on the
# rank provider, and the memento count of its top-ranked site.
RANK_FLOOR_DEFAULT = 30_000_000
ARCHIVE_COUNT_CEILING_DEFAULT = 538_300

PARALLELISM = 4  # candidates whose evidence is gathered at once
RETRIES = 1  # retries of a transient TimeMap failure
MAX_PAGES = 5  # TimeMap continuation pages followed


class ArchiveFetchError(Exception):
    """Transient or malformed-response failure; retry is the caller's call.
    Distinct from "not archived", which is a normal empty result."""


class _TransientFetchError(ArchiveFetchError):
    """A failure that a second try may not meet: the transport's, or a 5xx
    reply. The evidence service retries these alone."""


class DamageSource(Enum):
    PROVIDER = "provider"
    FIXTURE = "fixture"
    DEFAULT_MISSING = "default_missing"


# TimeMap datetimes are decoded by a fast path when they have exactly the
# fixed form TimeMaps write; any other string goes to the general parser,
# which stays the reference for what is accepted and what raises. The fast
# path matches [0-9], not \d, which also takes non-ASCII digits. The page
# scan's link pattern embeds this one, so a usual memento link's match
# hands over the fields.
_MONTH_DIGITS = {
    name: f"{number:02d}"
    for number, name in enumerate("Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split(), 1)
}
# RFC 1123, as TimeMaps write it: day, month, year and time of day. Years
# below 1000 are left to parsedate_to_datetime, which maps two-digit years
# (and so "0050") into 1969-2068. So are hours past 23, so that no reading
# of ISO 8601's "24:00" by fromisoformat can differ from the constructor's.
_RFC1123_DATETIME = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun), ([0-9]{2}) (" + "|".join(_MONTH_DIGITS) + r")"
    r" ([1-9][0-9]{3}) ((?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}) GMT"
)


_DATETIME = itemgetter(0)  # of a (datetime, memento URI) pair


# The ISO 8601 extended form that parse_instant reads: a date, then an
# optional time (hours, minutes, seconds, and a fraction of 3 or 6 digits)
# after "T" or a space, with an optional "Z" or ±HH:MM offset. Every
# interpreter's fromisoformat reads it alike; 3.11 and later read more.
_INSTANT = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:Z|[+-][0-9]{2}:[0-9]{2})?)?"
)


def parse_instant(text: str) -> datetime:
    """An ISO-8601 instant in UTC: a date alone is its midnight, and ``Z`` or
    no offset is UTC. Raises ValueError on other text, or past years 1-9999."""
    if not _INSTANT.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")  # as fromisoformat words it
    parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
    try:
        return parsed.astimezone(timezone.utc) if parsed.tzinfo else parsed.replace(tzinfo=timezone.utc)
    except OverflowError:
        raise ValueError("no UTC value inside years 1-9999") from None


def format_instant(dt: datetime) -> str:
    """An instant as RFC 3339 UTC text to the second; unlike glibc
    ``strftime``, ``isoformat`` pads a year below 1000 to four digits."""
    return dt.astimezone(timezone.utc).isoformat(timespec="seconds")[:19] + "Z"


def _rfc1123_stamp(raw: str | None) -> str | None:
    """The ISO 8601 text ``YYYY-MM-DDTHH:MM:SS`` of a TimeMap datetime in the
    strict RFC 1123 form, its fields reordered and unchecked; None for any
    other value. The page scan writes the same text from its own match."""
    match = _RFC1123_DATETIME.fullmatch(raw) if raw is not None else None
    if match is None:
        return None
    day, month, year, clock = match.groups()
    return f"{year}-{_MONTH_DIGITS[month]}-{day}T{clock}"


def _link_time(raw: str) -> tuple[datetime, str]:
    """A TimeMap ``datetime`` parameter outside the strict RFC 1123 form,
    read by the general parser, as an aware UTC datetime and its cache text.
    Raises ArchiveFetchError on a datetime it does not read."""
    from email.utils import parsedate_to_datetime  # a fixture run never needs it

    try:
        when = parsedate_to_datetime(raw)
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        when = when.astimezone(timezone.utc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveFetchError(f"bad datetime {raw!r} in TimeMap") from exc
    return when, format_instant(when)


@dataclass(frozen=True)
class ArchiveEvidence:
    uri: str
    mementos: tuple[tuple[datetime, str], ...]  # (datetime UTC, memento URI), sorted
    truncated: bool = False
    # The cache text of each memento datetime, in memento order, where
    # fetch_timemap wrote it while decoding, until the cache line is written
    # (see _encode_timemap). Not a field: equality and repr do not see it.
    _texts = None

    @property
    def archived(self) -> bool:
        return bool(self.mementos)

    @property
    def memento_count(self) -> int:
        return len(self.mementos)

    def to_json_dict(self) -> dict:
        texts = self._texts or [format_instant(dt) for dt, _ in self.mementos]
        return {
            "uri": self.uri,
            "mementos": [[text, m] for text, (_, m) in zip(texts, self.mementos)],
            "truncated": self.truncated,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArchiveEvidence":
        """Raises TypeError on a value of a type that a fetch never writes."""
        uri, pairs, truncated = data["uri"], data["mementos"], data.get("truncated", False)
        if type(uri) is not str or type(pairs) is not list or type(truncated) is not bool:
            raise TypeError("uri, mementos or truncated of the wrong type")
        mementos = []
        for text, memento in pairs:
            if type(text) is not str or type(memento) is not str:
                raise TypeError(f"memento {[text, memento]!r} is not a pair of strings")
            mementos.append((parse_instant(text), memento))
        # nearest_memento bisects, so a cache line written in another order is
        # sorted here; the sort is stable, so equal datetimes keep line order.
        mementos.sort(key=_DATETIME)
        return cls(uri=uri, mementos=tuple(mementos), truncated=truncated)


@dataclass(frozen=True)
class PopularityEvidence:
    global_rank: int | None
    rank_floor: int = RANK_FLOOR_DEFAULT
    archive_count: int = 0
    archive_count_ceiling: int = ARCHIVE_COUNT_CEILING_DEFAULT

    def __post_init__(self):
        if self.global_rank is not None and not 1 <= self.global_rank <= self.rank_floor:
            raise ValueError("global_rank must lie in [1, rank_floor]")
        if self.archive_count > self.archive_count_ceiling:
            raise ValueError("archive_count above ceiling must be clamped by the fetcher")


@dataclass(frozen=True)
class DamageEvidence:
    damage: float
    source: DamageSource

    def __post_init__(self):
        if not 0.0 <= self.damage <= 1.0:
            raise ValueError("damage must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        return {"damage": self.damage, "source": self.source.value}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DamageEvidence":
        damage = data["damage"]
        if type(damage) not in (int, float):  # not isinstance: JSON true is no damage
            raise TypeError(f"damage {damage!r} is not a number")
        return cls(damage=damage, source=DamageSource(data["source"]))


# ---------------------------------------------------------------------------
# TimeMap (link-format) parsing


# A piece of link-format text runs up to the next separator outside <...>
# and "...". A quoted string honours backslash escapes and may open inside
# <...>; an unterminated string or <...> runs to the end of the text.
_QUOTED = r'"(?:[^"\\]+|\\[\s\S]?)*"?'
_PIECE = r'(?:[^<"{sep}]+|' + _QUOTED + r'|<(?:[^>"]+|' + _QUOTED + r')*>?)*'
_PIECES = {sep: re.compile(_PIECE.format(sep=re.escape(sep))) for sep in ",;"}


def _split_quoted(text: str, separator: str) -> list[str]:
    """Split on a separator that does not bind inside <...> or "..."."""
    piece = _PIECES[separator].match
    parts: list[str] = []
    pos = 0
    while pos <= len(text):
        match = piece(text, pos)
        parts.append(match.group())
        pos = match.end() + 1  # step over the separator the piece stopped at
    return parts


# The one-scan form of a link: ASCII blanks, <target> with no "<" or '"' in
# the target, `; key="value"` parameters with token keys and quoted values
# free of escapes, then blanks and a comma or the end of the text. On this
# form the split parser gives exactly what the scan gives; every other text
# goes to the split parser. The target is matched up to the first ">" and
# then checked, which is cheaper than a class that excludes "<" and '"'.
# The first branch takes the usual parameters: `; rel="..."`, an optional
# `; datetime="..."` and an optional `; type="..."`. It captures the rel
# (group 2) and the whole datetime (group 3), and a datetime in the strict
# RFC 1123 form also as its day, month, year and clock (groups 4-7). Any
# other link in the form matches the second branch, whose parameter span
# (group 8) is read by _SIMPLE_PARAM.
_BLANKS = r"[ \t\r\f\v]*"
_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_LINK_END = rf"{_BLANKS}(?:,|\Z)"
_LINK = re.compile(
    rf'{_BLANKS}<([^>]*)>(?:'
    rf'{_BLANKS};{_BLANKS}rel{_BLANKS}={_BLANKS}"([^"\\]*)"'
    rf'(?:{_BLANKS};{_BLANKS}datetime{_BLANKS}={_BLANKS}"({_RFC1123_DATETIME.pattern}|[^"\\]*)")?'
    rf'(?:{_BLANKS};{_BLANKS}type{_BLANKS}={_BLANKS}"[^"\\]*")?{_LINK_END}'
    rf'|((?:{_BLANKS};{_BLANKS}{_TOKEN}{_BLANKS}={_BLANKS}"[^"\\]*")*){_LINK_END})'
)
_SIMPLE_PARAM = re.compile(rf';{_BLANKS}({_TOKEN}){_BLANKS}={_BLANKS}"([^"\\]*)"')


def parse_timemap_links(page: str) -> tuple[list[tuple[str | None, str]], str | None]:
    """The (raw datetime or None, target) pair of each memento link of one
    link-format TimeMap page (`<uri>; rel="memento"; datetime="..."`), in
    page order, and the target of its first rel="next" link (None if there
    is none). The general reader: it splits into links on commas, then into
    fields on semicolons, outside <...> and "...". A repeated key keeps its
    last value; keys are lower-cased and ``rel`` splits on whitespace.
    Raises ArchiveFetchError on malformed input."""
    pairs: list[tuple[str | None, str]] = []
    next_uri = None
    for chunk in _split_quoted(page.replace("\n", " "), ","):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in _split_quoted(chunk, ";")]
        if not fields[0].startswith("<") or ">" not in fields[0]:
            raise ArchiveFetchError(f"malformed link target {fields[0]!r}")
        target = fields[0][1 : fields[0].index(">")]
        params: dict[str, str] = {}
        for param in fields[1:]:
            if not param:
                continue
            key, eq, value = param.partition("=")
            if not eq:
                raise ArchiveFetchError(f"malformed link parameter {param!r}")
            value = value.strip()
            if value.startswith('"') and value.endswith('"') and len(value) >= 2:
                value = value[1:-1]
            params[key.strip().lower()] = value
        rels = params.get("rel", "").split()
        if "memento" in rels:
            pairs.append((params.get("datetime"), target))
        if next_uri is None and "next" in rels:
            next_uri = target
    return pairs, next_uri


# A memento link as the page scan hands it to the decoder: its raw datetime
# (None if it has none), its target, and the raw datetime's ISO text if it is
# in the strict RFC 1123 form (see _rfc1123_stamp), else None.
_ScannedMemento = tuple[str | None, str, str | None]


def _page_mementos(page: str) -> tuple[list[_ScannedMemento], str | None]:
    """The memento links of one TimeMap page in page order, each with the
    raw datetime and target that ``parse_timemap_links`` reads and its
    strict-form text, and the target of the page's first rel="next" link.
    A page in the one-scan form is read in that scan, one ``_LINK`` match
    per link. A usual link (`; rel="..."`, then an optional `; datetime=
    "..."` and an optional `; type="..."`) hands over its rel and datetime
    in that match, and a strict-form datetime its fields too. Any other
    link's parameters are read again by ``_SIMPLE_PARAM``, keeping the last
    ``rel`` and ``datetime``. A page off the form goes to
    ``parse_timemap_links``."""
    text = page.replace("\n", " ")
    match = _LINK.match
    params_of = _SIMPLE_PARAM.findall
    mementos: list[_ScannedMemento] = []
    next_uri = None
    pos, end = 0, len(text)
    while pos < end:
        link = match(text, pos)
        if link is None:
            break
        target, rel, raw, day, month, year, clock, span = link.groups()
        if "<" in target or '"' in target:
            break
        if span:
            for key, value in params_of(span):
                key = key.lower()
                if key == "rel":
                    rel = value
                elif key == "datetime":
                    raw = value
        if rel is not None:
            rels = rel.split()
            if "memento" in rels:
                stamp = f"{year}-{_MONTH_DIGITS[month]}-{day}T{clock}" if day else _rfc1123_stamp(raw)
                mementos.append((raw, target, stamp))
            if next_uri is None and "next" in rels:
                next_uri = target
        pos = link.end()
    else:
        return mementos, next_uri
    pairs, next_uri = parse_timemap_links(page)  # the scan stopped: the page is off the form
    return [(raw, target, _rfc1123_stamp(raw)) for raw, target in pairs], next_uri


def _evidence_from_pairs(uri: str, scanned: Iterable[_ScannedMemento], truncated: bool) -> ArchiveEvidence:
    """The evidence of a map's scanned memento links, each decoded in page
    order, so the first bad link of the map names the error. A strict-form
    datetime is decoded from its ISO text, and its raw value names it if the
    date does not exist (31 Feb); any other goes to ``_link_time``."""
    mementos: list[tuple[datetime, str]] = []
    texts: list[str] = []
    for raw, target, stamp in scanned:
        if stamp is not None:
            # The constructor's range checks, in C; a zero offset reads as
            # the timezone.utc singleton.
            try:
                when = datetime.fromisoformat(stamp + "+00:00")
            except ValueError as exc:
                raise ArchiveFetchError(f"bad datetime {raw!r} in TimeMap") from exc
            text = stamp + "Z"
        elif raw is None:
            raise ArchiveFetchError(f"memento link without datetime: {target!r}")
        else:
            when, text = _link_time(raw)
        mementos.append((when, target))
        texts.append(text)
    mementos.sort()
    texts.sort()  # fixed-width ISO text sorts as the UTC datetimes it came from
    evidence = ArchiveEvidence(uri=uri, mementos=tuple(mementos), truncated=truncated)
    object.__setattr__(evidence, "_texts", tuple(texts))
    return evidence


class TimemapSource(Protocol):
    def get_timemap(self, uri: str) -> str | None: ...

    def get_page(self, page_uri: str) -> str | None: ...


def fetch_timemap(source: TimemapSource, uri: str, max_pages: int = MAX_PAGES) -> ArchiveEvidence:
    """Fetch and parse the TimeMap for a URI, following up to ``max_pages``
    continuation pages (rel="next"). A missing TimeMap means not archived."""
    page = source.get_timemap(uri)
    if page is None:
        return ArchiveEvidence(uri=uri, mementos=())
    scanned: list[_ScannedMemento] = []
    seen: set[str] = set()
    truncated = False
    followed = 0
    while page is not None:
        page_mementos, next_uri = _page_mementos(page)
        scanned += page_mementos
        if not next_uri:
            break
        if next_uri in seen or followed >= max_pages:
            truncated = followed >= max_pages
            break
        seen.add(next_uri)
        page = source.get_page(next_uri)
        followed += 1
    return _evidence_from_pairs(uri, scanned, truncated)


def nearest_memento(evidence: ArchiveEvidence, requested: datetime) -> tuple[datetime, str]:
    """Memento closest to the requested datetime; equidistant pairs resolve
    to the earlier capture, and equal datetimes to the first in sorted order."""
    mementos = evidence.mementos
    if not mementos:
        raise ValueError(f"{evidence.uri} has no mementos")
    after = bisect_left(mementos, requested, key=_DATETIME)  # first at or after requested
    if after == 0:
        return mementos[0]
    before = bisect_left(mementos, mementos[after - 1][0], hi=after, key=_DATETIME)
    if after == len(mementos) or requested - mementos[before][0] <= mementos[after][0] - requested:
        return mementos[before]
    return mementos[after]


# ---------------------------------------------------------------------------
# Concrete TimeMap sources


# The open errors that mean no file can be at the path: none is there
# (ENOENT), a file stands where a directory should (ENOTDIR), a symlink
# loops (ELOOP), or a name is too long to exist (ENAMETOOLONG, as a long
# URI's quoted file name can be). The URI is then not archived.
_NO_FILE_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENAMETOOLONG})
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


class FixtureArchiveSource:
    """Reads recorded TimeMaps from a directory; filename = percent-encoded
    URI + ".link". A missing file plays the role of an aggregator 404. Each
    URI's path is worked out once; its file is read on every call."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._paths: dict[str, str] = {}

    def _read(self, uri: str) -> str | None:
        """The file's text as ``Path.read_text(encoding="utf-8")`` reads it:
        its bytes are read whole, decoded once, and their line ends made
        ``\\n`` as text mode makes them."""
        path = self._paths.get(uri)
        if path is None:
            path = self._paths[uri] = str(self.directory / (quote(uri, safe="") + ".link"))
        try:
            fd = os.open(path, _READ_FLAGS)
        except OSError as exc:
            if exc.errno in _NO_FILE_ERRNOS:
                return None
            raise
        try:
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):  # as open() raises it, naming the path
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            # One byte past the size, so a whole file is read in one call
            # that also sees its end; a file that grew is read on to its end.
            size = status.st_size + 1
            data = os.read(fd, size)
            if len(data) == size:
                chunks = [data]
                while chunk := os.read(fd, 1 << 16):
                    chunks.append(chunk)
                data = b"".join(chunks)
        finally:
            os.close(fd)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveFetchError(f"{path}: bytes that are not UTF-8 ({exc.reason})") from None
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return text

    def get_timemap(self, uri: str) -> str | None:
        return self._read(uri)

    def get_page(self, page_uri: str) -> str | None:
        return self._read(page_uri)


# What a GET leaves unescaped: ``requests.utils.requote_uri``'s set, so a
# space or a non-ASCII character, which ``http.client`` refuses, is escaped.
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


class _HttpClient:
    """The network clients' one request path: a GET through an opener of
    http and https alone, so neither a rel="next" link nor a redirect can
    read a local file. ``urllib.request`` is imported only to build it.
    Each client sets its default ``timeout`` in seconds, and its messages:
    ``<_failed>: <error>``, and ``_returned`` formatted with status and URL."""

    def __init__(self, base_url: str, timeout: float | None = None):
        import urllib.request as request  # a fixture run never needs it

        self.base_url = base_url.rstrip("/")
        self.timeout = self.timeout if timeout is None else timeout
        self._request = request.Request
        self._opener = request.OpenerDirector()  # UnknownHandler refuses any other scheme
        for handler in (request.ProxyHandler, request.UnknownHandler, request.HTTPHandler, request.HTTPSHandler,
                        request.HTTPDefaultErrorHandler, request.HTTPRedirectHandler, request.HTTPErrorProcessor):
            self._opener.add_handler(handler())

    def _get(self, url: str) -> str | None:
        """The body of the 200 reply to a GET of ``url``, decoded by its
        declared charset or else UTF-8, or None on a 404. Raises
        ArchiveFetchError on a transport failure, a body that does not
        decode, or any other status: a _TransientFetchError on a transport
        failure or a 5xx."""
        from http.client import HTTPException  # loaded with the opener
        from urllib.error import HTTPError, URLError

        try:
            with self._opener.open(self._request(quote(url, safe=_URL_SAFE)), timeout=self.timeout) as reply:
                status = reply.status
                if status == 200:
                    text = reply.read().decode(reply.headers.get_content_charset() or "utf-8")
        except HTTPError as exc:  # an OSError too, so caught first
            exc.close()
            if exc.code == 404:
                return None
            status = exc.code
        # HTTPException is no OSError; ValueError is a URL without a scheme or
        # bytes that do not decode, and LookupError an unknown charset. Of
        # these, only the transport's may pass: a URLError that the opener
        # raised itself, such as an unknown scheme, has a text reason.
        except (OSError, HTTPException, ValueError, LookupError) as exc:
            detail = exc.reason if isinstance(exc, URLError) else exc
            error = _TransientFetchError if isinstance(detail, (OSError, HTTPException)) else ArchiveFetchError
            raise error(f"{self._failed}: {detail}") from exc
        if status != 200:
            error = _TransientFetchError if 500 <= status < 600 else ArchiveFetchError
            raise error(self._returned.format(status=status, url=url))
        return text


class MemGatorClient(_HttpClient):
    """Memento aggregator client (GET <base>/timemap/link/<uri>)."""

    timeout = 10.0
    _failed = "aggregator request failed"
    _returned = "aggregator returned {status} for {url}"

    def get_timemap(self, uri: str) -> str | None:
        return self.get_page(f"{self.base_url}/timemap/link/{uri}")

    def get_page(self, page_uri: str) -> str | None:
        return self._get(page_uri)


# ---------------------------------------------------------------------------
# Popularity and damage providers


class PopularityProvider(Protocol):
    def get_rank(self, domain: str) -> int | None: ...


def _fixture_rows(
    path: str | Path, kind: str, convert: Callable[[str], object]
) -> Iterator[tuple[str, object]]:
    """(key, converted value) for each `key<TAB>value` row of a fixture TSV,
    skipping blank and `#` lines. A value that does not convert, or bytes
    that are not UTF-8, raise InputFileError naming the file and the line."""
    for lineno, line in content_lines(read_lines(path)):
        key, _, value = line.partition("\t")
        try:
            converted = convert(value)
        except ValueError as exc:
            raise InputFileError(f"{path}:{lineno}: malformed {kind} row {line!r}: {exc}") from exc
        yield key.strip(), converted


class FixturePopularityProvider:
    """TSV of `domain<TAB>rank`, matched by registered domain."""

    def __init__(self, path: str | Path):
        self._ranks: dict[str, int] = {
            domain.lower(): rank for domain, rank in _fixture_rows(path, "popularity", int)
        }

    def get_rank(self, domain: str) -> int | None:
        return self._ranks.get(domain.lower())


class DamageProvider(Protocol):
    def get_damage(self, memento_uri: str) -> float | None: ...


class FixtureDamageProvider:
    """TSV of `memento URI<TAB>damage in [0,1]`, matched exactly."""

    source = DamageSource.FIXTURE

    def __init__(self, path: str | Path):
        self._damage: dict[str, float] = dict(_fixture_rows(path, "damage", float))

    def get_damage(self, memento_uri: str) -> float | None:
        return self._damage.get(memento_uri)


class MementoDamageClient(_HttpClient):
    """Client for a damage-scoring service exposing /api/damage/<uri>."""

    source = DamageSource.PROVIDER
    timeout = 30.0
    _failed = "damage request failed"
    _returned = "damage service returned {status}"

    def get_damage(self, memento_uri: str) -> float | None:
        """``total_damage`` clamped to [0, 1], or None on a 404 or a null; a reply that
        is not a JSON object, or whose ``total_damage`` is not a finite JSON number, is
        an ArchiveFetchError."""
        text = self._get(f"{self.base_url}/api/damage/{quote(memento_uri, safe='')}")
        if text is None:
            return None
        try:
            reply = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ArchiveFetchError(f"damage service reply is not JSON: {exc}") from exc
        if not isinstance(reply, dict):
            raise ArchiveFetchError("damage service reply is not a JSON object")
        value = reply.get("total_damage")
        if value is None:
            return None
        try:
            # not isinstance: JSON true is no damage, as in DamageEvidence
            damage = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:
            damage = math.nan
        if not math.isfinite(damage):
            raise ArchiveFetchError(f"damage service sent total_damage {value!r}, not a finite number")
        return max(0.0, min(1.0, damage))


def fetch_damage(provider: DamageProvider | None, memento_uri: str) -> DamageEvidence:
    """Damage for a memento; a miss falls back to the documented neutral 0.5."""
    if provider is not None:
        value = provider.get_damage(memento_uri)
        if value is not None:
            source = getattr(provider, "source", DamageSource.PROVIDER)
            return DamageEvidence(damage=value, source=source)
    return DamageEvidence(damage=0.5, source=DamageSource.DEFAULT_MISSING)


# ---------------------------------------------------------------------------
# Cache


# The writer of every cache line: ``json.dumps(record, sort_keys=True)``,
# without building an encoder per line. Codec values hold no cycles.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)
_PROVIDER = "gateway"  # named by every cache line; a line naming another is skipped at load


class EvidenceCache:
    """Append-only JSON Lines cache keyed by (kind, SURT).

    Later records supersede earlier ones; entries older than ``max_age``
    seconds are treated as misses so they get refetched. Each entry keeps
    one form of its value: a loaded line's raw value until its first
    decode, then only the decoded value (see ``get``).
    Lines are appended through one unbuffered handle, opened by the first
    ``put``, one write per line. ``close`` releases it; so does dropping the
    cache, through a finalizer that holds the handle, not the cache.
    """

    def __init__(self, path: str | Path, max_age: float | None = None, clock: Callable[[], float] = time.time):
        self.path = Path(path)
        self.max_age = max_age
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (fetched_at, value, whether the value is decoded)
        self._entries: dict[tuple[str, str], tuple[float, object, bool]] = {}
        self._handle: IO[bytes] | None = None
        self._release: weakref.finalize | None = None
        if self.path.exists():
            skipped = 0
            # A byte that is not UTF-8 stays in its line as a lone surrogate,
            # so only that line is lost; every other line splits as before.
            for line in self.path.read_text("utf-8", errors="surrogateescape").splitlines():
                if not line.strip():
                    continue
                try:
                    line.encode("utf-8")  # UnicodeEncodeError on such a byte
                    record = json.loads(line)
                    provider, key = record["provider"], (record["kind"], record["surt"])
                    fetched_at = record["fetched_at"]
                    if type(fetched_at) not in (int, float):  # not isinstance: JSON true is no timestamp
                        raise TypeError("fetched_at is not a number")
                    if not math.isfinite(fetched_at):  # NaN never expires; OverflowError past float range
                        raise ValueError("fetched_at is not finite")
                    entry = (fetched_at, record["value"], False)
                    if provider == _PROVIDER:
                        self._entries[key] = entry
                except (ValueError, KeyError, TypeError, OverflowError, RecursionError):  # torn or foreign line
                    skipped += 1
            if skipped:
                _log.warning("evidence cache %s: skipped %d corrupt line(s)", self.path, skipped)

    def get(self, kind: str, surt: str, decode: Callable[[object], object]):
        """The entry's decoded value, or None on a miss or an expired entry.
        An entry is decoded at most once, and a value given to ``put`` never;
        a decode that raises keeps the raw value. Decoded values are shared,
        so ``decode`` must return frozen ones, never None."""
        key = (kind, surt)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or self.max_age is not None and self._clock() - entry[0] > self.max_age:
                return None
            fetched_at, value, decoded = entry
            if not decoded:
                value = decode(value)
                self._entries[key] = (fetched_at, value, True)
            return value

    def put(self, kind: str, surt: str, value: dict, decoded) -> None:
        """Append a line of the raw ``value``, and keep ``decoded`` as its value."""
        record = {
            "provider": _PROVIDER,
            "kind": kind,
            "surt": surt,
            "fetched_at": self._clock(),
            "value": value,
        }
        # ensure_ascii holds the line to ASCII, so its bytes are its text.
        line = (_LINE_ENCODER.encode(record) + "\n").encode("ascii")
        with self._lock:
            self._entries[(kind, surt)] = (record["fetched_at"], decoded, True)
            if self._handle is None:
                self._handle = open(self.path, "ab", buffering=0)
                self._release = weakref.finalize(self, self._handle.close)
            # Unbuffered: readers of the file see every line at once.
            written = self._handle.write(line)
            while written < len(line):  # a raw write may stop short of the line
                written += self._handle.write(line[written:])

    def close(self) -> None:
        """Close the append handle, if one is open; a later ``put`` opens
        the file again. Closing twice is harmless."""
        with self._lock:
            if self._release is not None:
                self._release()
                self._handle = self._release = None

    def __enter__(self) -> "EvidenceCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Evidence service: cached, concurrent fan-out over candidates


def _int_rank(rank) -> tuple[int | None]:
    """A popularity rank, fetched or read from its line, as an integer or
    None, in a 1-tuple: no cache hit may be None, which ``get`` keeps for a miss."""
    return (None if rank is None else int(rank),)


def _cached_rank(value: dict) -> tuple[int | None]:
    """The rank of a popularity line, read as an integer. A fetch writes an
    integer or null, and an older line may hold a float; a value of any
    other type raises."""
    rank = value.get("rank")
    if rank is not None and type(rank) not in (int, float):  # JSON true and "5" are no rank
        raise TypeError(f"rank {rank!r} is not a number")
    return _int_rank(rank)


def _encode_timemap(evidence: ArchiveEvidence) -> dict:
    """The cache value of a fetched TimeMap. Its memento texts are read for
    this one line, so it releases them: written again, the line takes the
    same texts from ``format_instant`` of the datetimes."""
    value = evidence.to_json_dict()
    object.__setattr__(evidence, "_texts", None)
    return value


# Each cached kind: its name in warnings, the encoder that writes a value to
# its cache line, and the decoder that reads one back and raises on any value
# it cannot read. decode(encode(v)) == v for every value a fetch returns
# (TimeMaps are sorted, UTC and whole seconds; ranks are read as integers),
# so a fetched value stands for its line's decoded one. The TimeMap decoder
# is looked up on each call, so a wrapper put on the class is seen.
_CODECS = {
    "timemap": ("TimeMap", _encode_timemap, lambda value: ArchiveEvidence.from_json_dict(value)),
    "popularity": ("popularity", lambda ranked: {"rank": ranked[0]}, _cached_rank),
    "damage": ("damage", DamageEvidence.to_json_dict, DamageEvidence.from_json_dict),
}

# The package's fixture sources, or none: their reads hold the interpreter
# lock, so a pool over them only slows them.
_IN_PROCESS_SOURCES = (FixtureArchiveSource, FixturePopularityProvider, FixtureDamageProvider, type(None))


@dataclass
class CandidateEvidence:
    """One candidate's evidence. An archived record carries the memento that
    ranking scores, with popularity and damage; any other carries none."""

    uri: str
    archive: ArchiveEvidence
    memento: tuple[datetime, str] | None = None  # (datetime UTC, memento URI)
    popularity: PopularityEvidence | None = None
    damage: DamageEvidence | None = None
    error: str | None = None


class EvidenceService:
    def __init__(
        self,
        archive_source: TimemapSource,
        popularity_provider: PopularityProvider | None = None,
        damage_provider: DamageProvider | None = None,
        cache: EvidenceCache | None = None,
        parallelism: int = PARALLELISM,
        retries: int = RETRIES,
        max_pages: int = MAX_PAGES,
    ):
        self.archive_source = archive_source
        self.popularity_provider = popularity_provider
        self.damage_provider = damage_provider
        self.cache = cache
        sources = (archive_source, popularity_provider, damage_provider)
        in_process = all(type(source) in _IN_PROCESS_SOURCES for source in sources)
        self.parallelism = 1 if in_process else parallelism
        self.retries = retries
        self.max_pages = max_pages
        self._pool_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None

    def _cached(self, kind: str, surt: str, fetch: Callable[[], object]):
        """The evidence of one kind for a SURT, cached or fetched. A value is
        encoded only to write its cache line, and a cache entry is decoded
        at most once. A cached value that does not decode counts as a miss:
        it is fetched again and superseded."""
        label, encode, decode = _CODECS[kind]
        cache = self.cache
        if cache is not None:
            try:
                hit = cache.get(kind, surt, decode)
                if hit is not None:
                    return hit
            except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
                _log.warning(
                    "evidence cache %s: refetching undecodable %s for %s: %s: %s",
                    cache.path, label, surt, type(exc).__name__, exc,
                )
        value = fetch()
        if cache is not None:
            cache.put(kind, surt, encode(value), value)
        return value

    def _fetch_timemap(self, uri: str) -> ArchiveEvidence:
        """Fetch a TimeMap, retrying a transport failure or a 5xx reply up to
        ``retries`` times; any other ArchiveFetchError is raised at once."""
        attempt = 0
        while True:
            try:
                return fetch_timemap(self.archive_source, uri, self.max_pages)
            except _TransientFetchError:
                if attempt >= self.retries:
                    raise
                attempt += 1

    def _fetch_rank(self, uri: str) -> tuple[int | None]:
        if self.popularity_provider is None:
            return (None,)
        domain = parse_uri(uri).registered_domain
        return _int_rank(self.popularity_provider.get_rank(domain))

    def evidence_for(self, uri: str, surt: str, requested: datetime) -> CandidateEvidence:
        """The evidence of one candidate, its TimeMap and popularity cached
        under ``surt``, the candidate's SURT (``canonicalize_surt(uri)``).
        The one pick of its memento nearest ``requested`` keys the damage,
        and is kept on the record for ranking. A fetch error of any kind, or
        a nearest memento URI that does not parse, gives a record with that
        error and no mementos, and caches nothing for the kind that failed."""
        try:
            archive = self._cached("timemap", surt, lambda: self._fetch_timemap(uri))
            if not archive.archived:
                return CandidateEvidence(uri=uri, archive=archive)
            memento = nearest_memento(archive, requested)
            nearest_surt = canonicalize_surt(memento[1])
            (rank,) = self._cached("popularity", surt, lambda: self._fetch_rank(uri))
            damage = self._cached(
                "damage",
                nearest_surt,
                lambda: fetch_damage(self.damage_provider, memento[1]),
            )
        except (ArchiveFetchError, UriParseError) as exc:
            return CandidateEvidence(uri=uri, archive=ArchiveEvidence(uri=uri, mementos=()), error=str(exc))
        popularity = PopularityEvidence(
            global_rank=None if rank is None else max(1, min(rank, RANK_FLOOR_DEFAULT)),
            archive_count=min(archive.memento_count, ARCHIVE_COUNT_CEILING_DEFAULT),
        )
        return CandidateEvidence(uri=uri, archive=archive, memento=memento, popularity=popularity, damage=damage)

    def gather(self, candidates: Sequence[tuple[str, str]], requested: datetime) -> list[CandidateEvidence]:
        """Evidence for every (uri, SURT) candidate, serially or on the
        service's pool; results come back in input order either way."""
        if min(self.parallelism, len(candidates)) <= 1:
            return [self.evidence_for(uri, surt, requested) for uri, surt in candidates]
        return list(self._pool().map(lambda c: self.evidence_for(*c, requested), candidates))

    def _pool(self) -> ThreadPoolExecutor:
        """The service's one executor, started on first use. Its idle workers
        exit when the service is garbage-collected."""
        with self._pool_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.parallelism)
            return self._executor
