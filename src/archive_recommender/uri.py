"""URI-level processing: parsing, SURT canonicalization, depth, tokenization,
structural pattern detection, and reading the package's text input files.

Everything else here is pure and operates on immutable inputs; the bundled
stop-word list and public-suffix snapshot are loaded once and shared.
"""
from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import urlsplit

__all__ = [
    "InputFileError",
    "read_lines",
    "UriParseError",
    "ParsedUri",
    "PublicSuffixList",
    "TokenMethod",
    "TokenVariant",
    "TokenBag",
    "UriPatternReport",
    "LocationFlags",
    "parse_uri",
    "canonicalize_surt",
    "depth",
    "tokenize",
    "token_grams",
    "text_tokens",
    "detect_patterns",
    "load_stopwords",
]

GRAM_SIZES = range(4, 9)

_LETTER_RUN = re.compile(r"[a-z]+")
_DIGITS = re.compile(r"[0-9]+")
_HOST_OK = re.compile(r"^[a-z0-9._~-]+$")
_LONG_STRING = re.compile(r"[a-zA-Z]{10,}")
_LONG_SLUG = re.compile(r"[a-zA-Z]{5,}(?:[^a-zA-Z0-9]+[a-zA-Z]{5,})+")
_CASE_CHANGE = re.compile(r"[a-z][A-Z]")
_PERCENT_ENCODED = re.compile(r"%[0-9A-Fa-f]{2}")
_DATE_SLASHED = re.compile(r"/(19|20)\d{2}/(0[1-9]|1[0-2])/(0[1-9]|[12]\d|3[01])(?:/|$)")
_DATE_DASHED = re.compile(r"(?<!\d)(19|20)\d{2}-(0[1-9]|1[0-2])-(0[1-9]|[12]\d|3[01])(?!\d)")
SCHEME_TOKENS = frozenset({"http", "https"})


class InputFileError(ValueError):
    """An input file that cannot be read; names the file, and the line at fault if any."""


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, as ``str.splitlines`` splits them;
    bytes that are not UTF-8 raise InputFileError naming their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "|").splitlines())
        raise InputFileError(f"{path}:{lineno}: bytes that are not UTF-8 ({exc.reason})") from None


class UriParseError(ValueError):
    """Raised for URIs that cannot be handled; names the offending component."""

    def __init__(self, uri: str, component: str, detail: str):
        super().__init__(f"cannot parse {component} of {uri!r}: {detail}")
        self.uri = uri
        self.component = component
        self.detail = detail


# ---------------------------------------------------------------------------
# Public-suffix handling


class PublicSuffixList:
    """Matcher over public-suffix rules (normal, wildcard `*`, exception `!`).

    Follows the published matching algorithm: the prevailing rule is the
    matching exception, else the longest matching rule, else the single-label
    fallback for hosts under suffixes absent from the snapshot. A lookup walks
    the host's own label suffixes against hashed rule sets, so its cost grows
    with the host's label count, not with the number of rules. A wildcard may
    only be the leftmost label of a normal rule, as in the published list.
    """

    def __init__(self, rules: Iterable[str]):
        self._rules: set[tuple[str, ...]] = set()
        self._exceptions: set[tuple[str, ...]] = set()
        for raw in rules:
            line = raw.strip()
            if not line or line.startswith("//") or line.startswith("#"):
                continue
            if line.startswith("!"):
                target, rule = self._exceptions, tuple(line[1:].lower().split("."))
                wildcard = "*" in rule
            else:
                target, rule = self._rules, tuple(line.lower().split("."))
                wildcard = "*" in rule[1:]
            if wildcard:
                raise ValueError(f"unsupported wildcard in public-suffix rule {line!r}")
            target.add(rule)

    def suffix_label_count(self, host: str) -> int:
        labels = tuple(host.lower().rstrip(".").split("."))
        best = 0
        for i in range(len(labels)):  # longest suffix first
            tail = labels[i:]
            if tail in self._exceptions:
                return len(tail) - 1
            if not best and (tail in self._rules or ("*",) + tail[1:] in self._rules):
                best = len(tail)
        return best if best else 1  # fallback: last label

    def public_suffix(self, host: str) -> str:
        labels = host.lower().rstrip(".").split(".")
        n = self.suffix_label_count(host)
        return ".".join(labels[-n:]) if n <= len(labels) else host.lower()

    def registered_domain(self, host: str) -> str:
        """Suffix plus one label; a host that *is* a suffix maps to itself."""
        labels = host.lower().rstrip(".").split(".")
        n = self.suffix_label_count(host)
        take = min(len(labels), n + 1)
        return ".".join(labels[-take:])

    @classmethod
    @lru_cache(maxsize=1)
    def bundled(cls) -> "PublicSuffixList":
        text = resources.files("archive_recommender.data").joinpath("public_suffix.dat").read_text("utf-8")
        return cls(text.splitlines())


@lru_cache(maxsize=1)
def load_stopwords() -> frozenset[str]:
    text = resources.files("archive_recommender.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(
        line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")
    )


# ---------------------------------------------------------------------------
# Parsing


# Parses kept, one per distinct (URI string, assume_http) pair: a few
# thousand covers an index of that size plus its lost and logged URIs.
PARSE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ParsedUri:
    scheme: str
    host: str
    port: int | None
    path: str
    query: str | None
    registered_domain: str
    tld: str
    is_ip_host: bool


def _is_ip(host: str) -> bool:
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


def parse_uri(uri: str, *, assume_http: bool = False) -> ParsedUri:
    """Parse an absolute http(s) URI into components.

    With ``assume_http`` a bare ``host/path`` string is accepted by
    prepending ``http://`` — convenient for directory dumps and CLI input.
    Results are shared from a bounded cache of the most recently parsed
    distinct strings; a string that fails to parse raises on every call.
    """
    if not isinstance(uri, str) or not uri.strip():
        raise UriParseError(str(uri), "uri", "empty input")
    return _parse_checked(uri, assume_http)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_checked(uri: str, assume_http: bool) -> ParsedUri:
    text = uri.strip()
    if "://" not in text:
        if assume_http and not text.startswith(("http:", "https:")):
            text = "http://" + text
        else:
            raise UriParseError(uri, "scheme", "missing scheme")
    parts = urlsplit(text)
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise UriParseError(uri, "scheme", f"unsupported scheme {parts.scheme!r}")
    try:
        host = parts.hostname
        port = parts.port
    except ValueError as exc:  # e.g. non-numeric or out-of-range port
        raise UriParseError(uri, "port", str(exc)) from None
    if not host:
        raise UriParseError(uri, "host", "empty host")
    host = host.rstrip(".")
    is_ip = _is_ip(host)
    if not (is_ip or _HOST_OK.match(host)):
        raise UriParseError(uri, "host", f"invalid characters in {host!r}")
    if any(not label for label in host.split(".")):
        raise UriParseError(uri, "host", "empty label in host")
    if is_ip:
        registered, tld = host, ""
    else:
        psl = PublicSuffixList.bundled()
        registered, tld = psl.registered_domain(host), psl.public_suffix(host)
    return ParsedUri(
        scheme=scheme,
        host=host,
        port=port,
        path=parts.path,
        query=parts.query or None,
        registered_domain=registered,
        tld=tld,
        is_ip_host=is_ip,
    )


def canonicalize_surt(uri: str) -> str:
    """Sort-friendly form used as the deduplication key.

    ``http://cs.odu.edu/`` → ``edu,odu,cs)/``. Scheme and fragment dropped,
    host labels reversed and comma-joined, explicit non-default port kept,
    path and query lowercased, empty path rendered as ``/``.
    """
    p = parse_uri(uri, assume_http=True)
    host_part = ",".join(reversed(p.host.split(".")))
    default_port = 80 if p.scheme == "http" else 443
    if p.port is not None and p.port != default_port:
        host_part += f":{p.port}"
    path = p.path.lower() or "/"
    query = "" if p.query is None else "?" + p.query.lower()
    return f"{host_part}){path}{query}"


def depth(uri: str) -> int:
    """Count non-empty path segments; one trailing index.html/home.html
    segment does not count (a bare homepage URI has depth 0)."""
    p = parse_uri(uri, assume_http=True)
    segments = [s for s in p.path.split("/") if s]
    if segments and segments[-1].lower() in ("index.html", "home.html"):
        segments.pop()
    return len(segments)


# ---------------------------------------------------------------------------
# Tokenization


class TokenMethod(Enum):
    TOKENS = "tokens"
    ALL_GRAMS_TOKENS = "all_grams_tokens"
    ALL_GRAMS_URI = "all_grams_uri"


class TokenVariant(Enum):
    STRIP_TLD = "strip_tld"
    STRIP_NUMBERS = "strip_numbers"
    STRIP_STOPWORDS = "strip_stopwords"


@dataclass(frozen=True)
class TokenBag:
    """Multiset of string features from one tokenization configuration."""

    method: TokenMethod
    variants: frozenset[TokenVariant]
    features: tuple[str, ...]

    def as_set(self) -> frozenset[str]:
        return frozenset(self.features)

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[str]:
        return iter(self.features)

    def __bool__(self) -> bool:
        return bool(self.features)


def _grams(text: str, sizes: range) -> list[str]:
    return [text[i : i + n] for n in sizes for i in range(len(text) - n + 1)]


def token_grams(tokens: Iterable[str], sizes: range = GRAM_SIZES) -> list[str]:
    """n-grams for each n in ``sizes`` within each token, token by token;
    tokens shorter than the smallest size pass through whole."""
    return [g for t in tokens for g in (_grams(t, sizes) if len(t) >= sizes.start else (t,))]


def text_tokens(text: str) -> list[str]:
    """TOKENS features of free text, such as a title: its lowercased letter
    runs longer than two letters, without the scheme tokens."""
    return [t for t in _LETTER_RUN.findall(text.lower()) if len(t) > 2 and t not in SCHEME_TOKENS]


def _working_string(parsed: ParsedUri, variants: frozenset[TokenVariant]) -> str:
    host = parsed.host
    if TokenVariant.STRIP_TLD in variants and parsed.tld:
        suffix = "." + parsed.tld
        if host.endswith(suffix):
            host = host[: -len(suffix)]
        elif host == parsed.tld:
            host = ""
    pieces = [parsed.scheme, "://", host]
    if parsed.port is not None:
        pieces.append(f":{parsed.port}")
    pieces.append(parsed.path)
    if parsed.query is not None:
        pieces.append("?" + parsed.query)
    working = "".join(pieces).lower()
    if TokenVariant.STRIP_NUMBERS in variants:
        working = _DIGITS.sub("", working)
    return working


def tokenize(
    uri: str,
    method: TokenMethod,
    variants: Iterable[TokenVariant] = (),
) -> TokenBag:
    """Extract features from a URI with one of the three methods.

    * ``TOKENS`` — lowercase, split on non-alphabetic characters, drop the
      scheme tokens http/https and anything of length ≤ 2.
    * ``ALL_GRAMS_TOKENS`` — 4..8-grams generated within each token;
      tokens shorter than 4 characters are kept whole.
    * ``ALL_GRAMS_URI`` — the letter runs are concatenated into one string
      and 4..8-grams are generated across it (token boundaries vanish).

    Variants apply before gram generation: STRIP_TLD removes the effective
    public suffix from the host, STRIP_NUMBERS deletes digits (merging the
    letter runs around them), STRIP_STOPWORDS drops stop-list tokens. With
    STRIP_STOPWORDS the output is additionally guaranteed to contain no
    feature equal to a stop word, so grams that happen to spell one are
    filtered after generation.
    """
    variant_set = frozenset(variants)
    parsed = parse_uri(uri, assume_http=True)
    working = _working_string(parsed, variant_set)
    runs = [t for t in _LETTER_RUN.findall(working) if t not in SCHEME_TOKENS]
    if TokenVariant.STRIP_STOPWORDS in variant_set:
        stop = load_stopwords()
        runs = [t for t in runs if t not in stop]

    features: list[str]
    if method is TokenMethod.ALL_GRAMS_URI:
        features = _grams("".join(runs), GRAM_SIZES)
    else:
        tokens = [t for t in runs if len(t) > 2]
        if method is TokenMethod.TOKENS:
            features = tokens
        else:
            features = token_grams(tokens)

    if TokenVariant.STRIP_STOPWORDS in variant_set:
        stop = load_stopwords()
        features = [f for f in features if f not in stop]
    return TokenBag(method=method, variants=variant_set, features=tuple(features))


# ---------------------------------------------------------------------------
# Structural patterns


class LocationFlags(NamedTuple):
    """(hostname, path) boolean pair."""

    hostname: bool
    path: bool


@dataclass(frozen=True)
class UriPatternReport:
    """Presence flags for the structural URI patterns, split by location.

    Query, port, IP-host, percent-encoding, and date apply to a single
    location by construction, so they carry one flag each; the rest are
    reported for hostname and path separately. The "path" side covers the
    path plus the query string.
    """

    long_strings: LocationFlags
    long_slugs: LocationFlags
    numbers: LocationFlags
    case_change: LocationFlags
    query: bool
    port: bool
    ip_host: bool
    percent_encoding: bool
    date: bool

    def flags(self) -> dict[str, bool]:
        out: dict[str, bool] = {}
        for name in ("long_strings", "long_slugs", "numbers", "case_change"):
            pair: LocationFlags = getattr(self, name)
            out[f"{name}.hostname"] = pair.hostname
            out[f"{name}.path"] = pair.path
        out["query"] = self.query
        out["port"] = self.port
        out["ip_host"] = self.ip_host
        out["percent_encoding"] = self.percent_encoding
        out["date"] = self.date
        return out


def detect_patterns(uri: str) -> UriPatternReport:
    """Flag the structural patterns of a URI.

    Long string = 10+ contiguous letters; long slug = 2+ runs of 5+ letters
    separated by non-alphanumeric characters; case change is detected on the
    original (pre-lowercasing) text. Scheme choice never affects the result.
    """
    parsed = parse_uri(uri, assume_http=True)
    # Original-case components for case-change detection.
    text = uri.strip()
    if "://" not in text:
        text = "http://" + text
    raw = urlsplit(text)
    raw_host = raw.netloc.rsplit("@", 1)[-1].split(":")[0].strip("[]")
    raw_path = raw.path + (("?" + raw.query) if raw.query else "")
    path_side = parsed.path + (("?" + parsed.query) if parsed.query is not None else "")
    host = parsed.host
    return UriPatternReport(
        long_strings=LocationFlags(
            bool(_LONG_STRING.search(raw_host)), bool(_LONG_STRING.search(path_side))
        ),
        long_slugs=LocationFlags(
            bool(_LONG_SLUG.search(raw_host)), bool(_LONG_SLUG.search(path_side))
        ),
        numbers=LocationFlags(
            bool(_DIGITS.search(host)), bool(_DIGITS.search(path_side))
        ),
        case_change=LocationFlags(
            bool(_CASE_CHANGE.search(raw_host)), bool(_CASE_CHANGE.search(raw_path))
        ),
        query=parsed.query is not None,
        port=parsed.port is not None,
        ip_host=parsed.is_ip_host,
        percent_encoding=bool(_PERCENT_ENCODED.search(path_side)),
        date=bool(_DATE_SLASHED.search(path_side) or _DATE_DASHED.search(path_side)),
    )
