"""External evidence: archive presence via Memento TimeMaps, domain
popularity rank, and archival-damage scores.

Every source sits behind a small provider interface with a live client and
a file-backed fixture implementation, so the whole test suite runs offline.
A persistent append-only cache keyed by (provider, kind, SURT) makes
repeated lookups idempotent within a cache epoch.
"""
from __future__ import annotations

import errno
import json
import logging
import math
import re
import threading
import time
import weakref
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Protocol, Sequence
from urllib.parse import quote

import requests

from .uri import InputFileError, canonicalize_surt, parse_uri, read_lines

__all__ = [
    "RANK_FLOOR_DEFAULT",
    "ARCHIVE_COUNT_CEILING_DEFAULT",
    "ArchiveFetchError",
    "ArchiveEvidence",
    "PopularityEvidence",
    "DamageEvidence",
    "DamageSource",
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


class ArchiveFetchError(Exception):
    """Transient or malformed-response failure; retry is the caller's call.
    Distinct from "not archived", which is a normal empty result."""


class DamageSource(Enum):
    PROVIDER = "provider"
    FIXTURE = "fixture"
    DEFAULT_MISSING = "default_missing"


# Memento datetimes are decoded by a fast path when they have exactly the
# fixed form their writer uses; any other string goes to the general parser,
# which stays the reference for what is accepted and what raises. The fast
# paths match [0-9], not \d, which also takes non-ASCII digits.
_CACHE_DATETIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_CACHE_DATETIME = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})Z")
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


def _cache_datetime(text: str) -> datetime:
    """A cached memento datetime, as ``ArchiveEvidence.to_json_dict`` writes it."""
    match = _CACHE_DATETIME.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        return datetime.strptime(text, _CACHE_DATETIME_FORMAT).replace(tzinfo=timezone.utc)
    year, month, day, hour, minute, second = match.groups()
    return datetime(
        int(year), int(month), int(day), int(hour), int(minute), int(second), tzinfo=timezone.utc
    )


def _cache_datetime_text(dt: datetime) -> str:
    """The cached form of a memento datetime; unlike glibc ``strftime``,
    ``isoformat`` pads a year below 1000 to four digits."""
    return dt.isoformat(timespec="seconds")[:19] + "Z"


def _link_time(raw: str) -> tuple[datetime, str]:
    """A TimeMap ``datetime`` parameter (RFC 1123) as an aware UTC datetime
    and its cache text. The fast path writes the text from the fields it
    matched; a datetime the general parser read is formatted. Raises
    ArchiveFetchError on a datetime that neither reads."""
    try:
        match = _RFC1123_DATETIME.fullmatch(raw) if isinstance(raw, str) else None
        if match is None:
            when = parsedate_to_datetime(raw)
            if when.tzinfo is None:
                when = when.replace(tzinfo=timezone.utc)
            when = when.astimezone(timezone.utc)
            return when, _cache_datetime_text(when)
        day, month, year, clock = match.groups()
        iso = f"{year}-{_MONTH_DIGITS[month]}-{day}T{clock}"
        # The constructor's range checks, in C; a zero offset reads as the
        # timezone.utc singleton.
        when = datetime.fromisoformat(iso + "+00:00")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveFetchError(f"bad datetime {raw!r} in TimeMap") from exc
    return when, iso + "Z"


@dataclass(frozen=True)
class ArchiveEvidence:
    uri: str
    mementos: tuple[tuple[datetime, str], ...]  # (datetime UTC, memento URI), sorted
    truncated: bool = False
    # The cache text of each memento datetime, in memento order, where
    # fetch_timemap wrote it while decoding. Not a field: equality and repr
    # do not see it.
    _texts = None

    @property
    def archived(self) -> bool:
        return bool(self.mementos)

    @property
    def memento_count(self) -> int:
        return len(self.mementos)

    def to_json_dict(self) -> dict:
        texts = self._texts
        if texts is None:
            texts = [_cache_datetime_text(dt) for dt, _ in self.mementos]
        return {
            "uri": self.uri,
            "mementos": [[text, m] for text, (_, m) in zip(texts, self.mementos)],
            "truncated": self.truncated,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ArchiveEvidence":
        # nearest_memento bisects, so a cache line written in another order is
        # sorted here; the sort is stable, so equal datetimes keep line order.
        mementos = sorted(((_cache_datetime(dt), m) for dt, m in data["mementos"]), key=_DATETIME)
        return cls(uri=data["uri"], mementos=tuple(mementos), truncated=data.get("truncated", False))


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
        return cls(damage=data["damage"], source=DamageSource(data["source"]))


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


# The one-scan form of a link: ASCII blanks, <target>, `; key="value"`
# parameters with token keys and quoted values free of escapes, then blanks
# and a comma or the end of the text. On this form the split parser gives
# exactly what the scan gives; every other text goes to the split parser.
_BLANKS = r"[ \t\r\f\v]*"
_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_SIMPLE_LINK = re.compile(
    rf'{_BLANKS}<([^<>"]*)>((?:{_BLANKS};{_BLANKS}{_TOKEN}{_BLANKS}={_BLANKS}"[^"\\]*")*)'
    rf"{_BLANKS}(?:,|\Z)"
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


def _page_mementos(page: str) -> tuple[list[tuple[str | None, str]], str | None]:
    """What ``parse_timemap_links`` returns for one TimeMap page. A page in
    the one-scan form is read in that scan, keeping only the last ``rel``
    and ``datetime`` of each link; any other page goes to
    ``parse_timemap_links``."""
    text = page.replace("\n", " ")
    match = _SIMPLE_LINK.match
    params_of = _SIMPLE_PARAM.findall
    pairs: list[tuple[str | None, str]] = []
    next_uri = None
    pos, end = 0, len(text)
    while pos < end:
        link = match(text, pos)
        if link is None:
            return parse_timemap_links(page)
        target, span = link.groups()
        rel = raw = None
        for key, value in params_of(span):
            key = key.lower()
            if key == "rel":
                rel = value
            elif key == "datetime":
                raw = value
        if rel is not None:
            rels = rel.split()
            if "memento" in rels:
                pairs.append((raw, target))
            if next_uri is None and "next" in rels:
                next_uri = target
        pos = link.end()
    return pairs, next_uri


def _evidence_from_pairs(
    uri: str, pairs: Iterable[tuple[str | None, str]], truncated: bool
) -> ArchiveEvidence:
    """The evidence of a map's memento pairs, each decoded in page order, so
    the first bad pair of the map names the error."""
    mementos: list[tuple[datetime, str]] = []
    texts: list[str] = []
    for raw, target in pairs:
        if raw is None:
            raise ArchiveFetchError(f"memento link without datetime: {target!r}")
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


def fetch_timemap(source: TimemapSource, uri: str, max_pages: int = 5) -> ArchiveEvidence:
    """Fetch and parse the TimeMap for a URI, following up to ``max_pages``
    continuation pages (rel="next"). A missing TimeMap means not archived."""
    page = source.get_timemap(uri)
    if page is None:
        return ArchiveEvidence(uri=uri, mementos=())
    pairs: list[tuple[str | None, str]] = []
    seen: set[str] = set()
    truncated = False
    followed = 0
    while page is not None:
        page_pairs, next_uri = _page_mementos(page)
        pairs += page_pairs
        if not next_uri:
            break
        if next_uri in seen or followed >= max_pages:
            truncated = followed >= max_pages
            break
        seen.add(next_uri)
        page = source.get_page(next_uri)
        followed += 1
    return _evidence_from_pairs(uri, pairs, truncated)


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


# The open errors that mean no file is at the path (ENOENT, a file where a
# directory should be, a symlink loop): the ones ``Path.exists`` reads as False.
_NO_FILE_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP})


class FixtureArchiveSource:
    """Reads recorded TimeMaps from a directory; filename = percent-encoded
    URI + ".link". A missing file plays the role of an aggregator 404."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _read(self, uri: str) -> str | None:
        path = self.directory / (quote(uri, safe="") + ".link")
        try:
            return path.read_text("utf-8")
        except OSError as exc:
            if exc.errno in _NO_FILE_ERRNOS:
                return None
            raise
        except UnicodeDecodeError as exc:
            raise ArchiveFetchError(f"{path}: bytes that are not UTF-8 ({exc.reason})") from None

    def get_timemap(self, uri: str) -> str | None:
        return self._read(uri)

    def get_page(self, page_uri: str) -> str | None:
        return self._read(page_uri)


class MemGatorClient:
    """Memento aggregator client (GET <base>/timemap/link/<uri>)."""

    def __init__(self, base_url: str, timeout: float = 10.0, session: requests.Session | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.session = session or requests.Session()

    def _get(self, url: str) -> str | None:
        try:
            response = self.session.get(url, timeout=self.timeout)
        except requests.RequestException as exc:
            raise ArchiveFetchError(f"aggregator request failed: {exc}") from exc
        if response.status_code == 404:
            return None
        if response.status_code != 200:
            raise ArchiveFetchError(f"aggregator returned {response.status_code} for {url}")
        return response.text

    def get_timemap(self, uri: str) -> str | None:
        return self._get(f"{self.base_url}/timemap/link/{uri}")

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
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
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


class MementoDamageClient:
    """Client for a damage-scoring service exposing /api/damage/<uri>."""

    source = DamageSource.PROVIDER

    def __init__(self, base_url: str, timeout: float = 30.0, session: requests.Session | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.session = session or requests.Session()

    def get_damage(self, memento_uri: str) -> float | None:
        url = f"{self.base_url}/api/damage/{quote(memento_uri, safe='')}"
        try:
            response = self.session.get(url, timeout=self.timeout)
        except requests.RequestException as exc:
            raise ArchiveFetchError(f"damage request failed: {exc}") from exc
        if response.status_code == 404:
            return None
        if response.status_code != 200:
            raise ArchiveFetchError(f"damage service returned {response.status_code}")
        value = response.json().get("total_damage")
        return None if value is None else max(0.0, min(1.0, float(value)))


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


# The decoded slot of a cache entry that no hit has decoded yet.
_UNDECODED = object()


class EvidenceCache:
    """Append-only JSON Lines cache keyed by (provider, kind, SURT).

    Later records supersede earlier ones; entries older than ``max_age``
    seconds are treated as misses so they get refetched. Each entry keeps
    the decoded form of its value beside the raw one (see ``decoded``).
    Lines are appended through one handle, opened by the first ``put`` and
    flushed after each line. ``close`` releases it; so does dropping the
    cache, through a finalizer that holds the handle, not the cache.
    """

    def __init__(self, path: str | Path, max_age: float | None = None, clock: Callable[[], float] = time.time):
        self.path = Path(path)
        self.max_age = max_age
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (fetched_at, raw value, decoded value or _UNDECODED)
        self._entries: dict[tuple[str, str, str], tuple[float, object, object]] = {}
        self._handle: IO[str] | None = None
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
                    key = (record["provider"], record["kind"], record["surt"])
                    fetched_at = record["fetched_at"]
                    if type(fetched_at) not in (int, float):  # not isinstance: JSON true is no timestamp
                        raise TypeError("fetched_at is not a number")
                    if not math.isfinite(fetched_at):  # NaN never expires; OverflowError past float range
                        raise ValueError("fetched_at is not finite")
                    self._entries[key] = (fetched_at, record["value"], _UNDECODED)
                except (ValueError, KeyError, TypeError, OverflowError):  # torn or foreign line
                    skipped += 1
            if skipped:
                _log.warning("evidence cache %s: skipped %d corrupt line(s)", self.path, skipped)

    def get(self, provider: str, kind: str, surt: str) -> dict | None:
        with self._lock:
            hit = self._entries.get((provider, kind, surt))
        if hit is None:
            return None
        fetched_at, value, _ = hit
        if self.max_age is not None and self._clock() - fetched_at > self.max_age:
            return None
        return value

    def decoded(self, provider: str, kind: str, surt: str, raw, decode: Callable[[object], object]):
        """``decode(raw)``, where ``raw`` is the value ``get`` or ``put`` just
        saw under this key. While ``raw`` is still the entry's value, the
        result is kept with the entry and every later call returns it, so
        the entry is decoded at most once. A decode that raises keeps
        nothing. Values are shared, so ``decode`` must return frozen ones."""
        key = (provider, kind, surt)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] is not raw:  # superseded since it was seen
                return decode(raw)
            if entry[2] is _UNDECODED:
                entry = self._entries[key] = (entry[0], raw, decode(raw))
            return entry[2]

    def put(self, provider: str, kind: str, surt: str, value: dict) -> None:
        record = {
            "provider": provider,
            "kind": kind,
            "surt": surt,
            "fetched_at": self._clock(),
            "value": value,
        }
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._entries[(provider, kind, surt)] = (record["fetched_at"], value, _UNDECODED)
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
                self._release = weakref.finalize(self, self._handle.close)
            self._handle.write(line + "\n")
            self._handle.flush()  # readers of the file see every line at once

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


def _decode_rank(value: dict) -> int | None:
    rank = value.get("rank")
    return None if rank is None else int(rank)


# Each cached kind: its name in warnings, the encoder that writes a value to
# its cache line, the decoder that reads one back and raises on any value it
# cannot read, and whether a fetched value may stand for its decoded line.
# That holds where decode(encode(v)) == v for every value the fetcher returns:
# TimeMaps (sorted, UTC, whole seconds) and damage; not popularity, whose
# decoder truncates a rank that is not an int. The TimeMap decoder is looked
# up on each call, so a wrapper put on the class is seen.
_CODECS = {
    "timemap": (
        "TimeMap", ArchiveEvidence.to_json_dict, lambda value: ArchiveEvidence.from_json_dict(value), True
    ),
    "popularity": ("popularity", lambda rank: {"rank": rank}, _decode_rank, False),
    "damage": ("damage", DamageEvidence.to_json_dict, DamageEvidence.from_json_dict, True),
}


@dataclass
class CandidateEvidence:
    uri: str
    archive: ArchiveEvidence
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
        parallelism: int = 4,
        retries: int = 1,
        max_pages: int = 5,
    ):
        self.archive_source = archive_source
        self.popularity_provider = popularity_provider
        self.damage_provider = damage_provider
        self.cache = cache
        self.parallelism = max(1, parallelism)
        self.retries = max(0, retries)
        self.max_pages = max_pages
        self._pool_lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None

    def _cached(self, kind: str, surt: str, fetch: Callable[[], object]):
        """The evidence of one kind for a SURT, cached or fetched. A value is
        encoded only to write its cache line, and a cache entry is decoded
        at most once. A cached value that does not decode counts as a miss:
        it is fetched again and superseded."""
        label, encode, decode, fetched_is_decoded = _CODECS[kind]
        cache = self.cache
        if cache is not None:
            hit = cache.get("gateway", kind, surt)
            if hit is not None:
                try:
                    return cache.decoded("gateway", kind, surt, hit, decode)
                except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
                    _log.warning(
                        "evidence cache %s: refetching undecodable %s for %s: %s: %s",
                        cache.path, label, surt, type(exc).__name__, exc,
                    )
        value = fetch()
        if cache is not None:
            raw = encode(value)
            cache.put("gateway", kind, surt, raw)
            if fetched_is_decoded:  # keep the fetched value as the line's decoded one
                cache.decoded("gateway", kind, surt, raw, lambda _: value)
        return value

    def _fetch_timemap(self, uri: str) -> ArchiveEvidence:
        """Fetch a TimeMap, retrying an ArchiveFetchError up to ``retries`` times."""
        attempt = 0
        while True:
            try:
                return fetch_timemap(self.archive_source, uri, self.max_pages)
            except ArchiveFetchError:
                if attempt >= self.retries:
                    raise
                attempt += 1

    def _fetch_rank(self, uri: str) -> int | None:
        if self.popularity_provider is None:
            return None
        domain = parse_uri(uri, assume_http=True).registered_domain
        return self.popularity_provider.get_rank(domain)

    def evidence_for(self, uri: str, requested: datetime) -> CandidateEvidence:
        surt = canonicalize_surt(uri)
        try:
            archive = self._cached("timemap", surt, lambda: self._fetch_timemap(uri))
        except ArchiveFetchError as exc:
            empty = ArchiveEvidence(uri=uri, mementos=())
            return CandidateEvidence(uri=uri, archive=empty, error=str(exc))
        if not archive.archived:
            return CandidateEvidence(uri=uri, archive=archive)

        _, nearest_uri = nearest_memento(archive, requested)
        rank = self._cached("popularity", surt, lambda: self._fetch_rank(uri))
        popularity = PopularityEvidence(
            global_rank=None if rank is None else max(1, min(rank, RANK_FLOOR_DEFAULT)),
            archive_count=min(archive.memento_count, ARCHIVE_COUNT_CEILING_DEFAULT),
        )
        damage = self._cached(
            "damage",
            canonicalize_surt(nearest_uri),
            lambda: fetch_damage(self.damage_provider, nearest_uri),
        )
        return CandidateEvidence(uri=uri, archive=archive, popularity=popularity, damage=damage)

    def gather(self, uris: Sequence[str], requested: datetime) -> list[CandidateEvidence]:
        """Fetch evidence for every candidate concurrently; results come back
        in input order regardless of completion order."""
        if not uris:
            return []
        if min(self.parallelism, len(uris)) == 1:
            return [self.evidence_for(uri, requested) for uri in uris]
        return list(self._pool().map(lambda u: self.evidence_for(u, requested), uris))

    def _pool(self) -> ThreadPoolExecutor:
        """The service's one executor, started on first use. Its idle workers
        exit when the service is garbage-collected."""
        with self._pool_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.parallelism)
            return self._executor
