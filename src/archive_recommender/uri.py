"""URI-level processing: parsing, SURT canonicalization, depth, tokenization,
structural pattern detection, and reading the package's text input files.

``parse_uri`` is the one place a URI string is read. The facts of a URI
(host, registered domain, TLD, depth, structural patterns) are read off its
``ParsedUri``: a caller that needs several parses once and passes the parse
on. ``tokenize`` and ``canonicalize_surt`` take the string and parse it
themselves. Everything else here is pure and operates on immutable inputs;
the bundled stop-word list and public-suffix snapshot are loaded once and
shared.
"""
from __future__ import annotations

import gzip
import ipaddress
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable, Iterator
from urllib.parse import SplitResult, urlsplit

__all__ = [
    "InputFileError",
    "read_lines",
    "content_lines",
    "read_bundled",
    "open_input",
    "UriParseError",
    "ParsedUri",
    "PublicSuffixList",
    "TokenMethod",
    "TokenVariant",
    "TokenBag",
    "parse_uri",
    "canonicalize_surt",
    "depth",
    "tokenize",
    "token_grams",
    "text_tokens",
    "PATTERNS",
    "detect_patterns",
    "load_stopwords",
]

GRAM_SIZES = range(4, 9)

_LETTER_RUN = re.compile(r"[a-z]+")
_DIGITS = re.compile(r"[0-9]+")
_HOST_OK = re.compile(r"^[a-z0-9._~-]+$")
_MAX_LABEL = 63  # octets in one DNS label, RFC 1035 §2.3.4
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


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(number from 1, line) of each line that is neither blank nor a ``#`` comment."""
    return ((lineno, line) for lineno, line in enumerate(lines, 1) if line.strip()[:1] not in ("", "#"))


def read_bundled(name: str) -> list[str]:
    """The lines of the package's data file ``data/<name>``, less blank and ``#`` lines."""
    return [line for _, line in content_lines(read_lines(Path(__file__).parent / "data" / name))]


@contextmanager
def open_input(path: str | Path) -> Iterator[IO[bytes]]:
    """A binary stream of a plain or gzip-compressed file, told apart by its
    first bytes; gzip data cut short or corrupt raises InputFileError."""
    with open(path, "rb") as raw:
        if raw.peek(2)[:2] != b"\x1f\x8b":
            yield raw
            return
        try:
            with gzip.GzipFile(fileobj=raw) as stream:
                yield stream
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise InputFileError(f"{path}: gzip data cut short or corrupt ({exc})") from None


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

    @classmethod
    @lru_cache(maxsize=1)
    def bundled(cls) -> "PublicSuffixList":
        return cls(read_bundled("public_suffix.dat"))


@lru_cache(maxsize=1)
def load_stopwords() -> frozenset[str]:
    return frozenset(line.strip() for line in read_bundled("stopwords.txt"))


# ---------------------------------------------------------------------------
# Parsing


# Parses kept, one per distinct URI string: a few thousand covers an index
# of that size plus its lost and logged URIs.
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
    host_as_written: str  # before lowercasing, as case-change detection reads it


# An IPv4 address is ASCII decimal octets and dots, and an IPv6 one holds a
# colon; any other host is a name, told apart without calling ipaddress.
_IPV4_CHARACTERS = frozenset("0123456789.")


def _is_ip(host: str) -> bool:
    if ":" not in host and not _IPV4_CHARACTERS.issuperset(host):
        return False
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        return False


def parse_uri(uri: str) -> ParsedUri:
    """Parse an absolute http(s) URI into components.

    A bare ``host/path`` string is read as http, by prepending ``http://``,
    as directory dumps and CLI input write it.
    The registered domain and TLD come from one walk of the public-suffix
    rules over the host's labels. Results are shared from a bounded cache
    of the most recently parsed distinct strings; a string that fails to
    parse raises on every call.
    """
    if not isinstance(uri, str) or not uri.strip():
        raise UriParseError(str(uri), "uri", "empty input")
    return _parse_checked(uri)


def _split(uri: str, text: str) -> SplitResult:
    """``urlsplit(text)``, raising UriParseError on what it rejects, such as
    an unclosed ``[`` in the host."""
    try:
        return urlsplit(text)
    except ValueError as exc:
        raise UriParseError(uri, "host", str(exc)) from None


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_checked(uri: str) -> ParsedUri:
    text = uri.strip()
    if "://" not in text:
        if text.startswith(("http:", "https:")):
            raise UriParseError(uri, "scheme", "missing scheme")
        text = "http://" + text
    parts = _split(uri, text)
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
    labels = host.split(".")
    if any(not label for label in labels):
        raise UriParseError(uri, "host", "empty label in host")
    if any(len(label) > _MAX_LABEL for label in labels):  # hosts are ASCII here: a character is an octet
        raise UriParseError(uri, "host", f"host label longer than {_MAX_LABEL} octets")
    if is_ip:
        registered, tld = host, ""
    else:  # a host that is a suffix is its own registered domain
        n = PublicSuffixList.bundled().suffix_label_count(host)
        registered, tld = ".".join(labels[-n - 1 :]), ".".join(labels[-n:])
    written = parts.netloc.rsplit("@", 1)[-1]
    # A bracketed IPv6 host holds colons of its own: take it up to its "]".
    written = written[1:].partition("]")[0] if written.startswith("[") else written.split(":")[0]
    return ParsedUri(
        scheme=scheme,
        host=host,
        port=port,
        path=parts.path,
        query=parts.query or None,
        registered_domain=registered,
        tld=tld,
        is_ip_host=is_ip,
        host_as_written=written,
    )


def canonicalize_surt(uri: str) -> str:
    """Sort-friendly form used as the deduplication key.

    ``http://cs.odu.edu/`` → ``edu,odu,cs)/``. Scheme and fragment dropped,
    host labels reversed and comma-joined, explicit non-default port kept,
    path and query lowercased, empty path rendered as ``/``.
    """
    p = parse_uri(uri)
    host_part = ",".join(reversed(p.host.split(".")))
    default_port = 80 if p.scheme == "http" else 443
    if p.port is not None and p.port != default_port:
        host_part += f":{p.port}"
    path = p.path.lower() or "/"
    query = "" if p.query is None else "?" + p.query.lower()
    return f"{host_part}){path}{query}"


def depth(parsed: ParsedUri) -> int:
    """Count the parsed URI's non-empty path segments; one trailing
    index.html/home.html segment does not count (a bare homepage URI has
    depth 0)."""
    segments = [s for s in parsed.path.split("/") if s]
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
    parsed = parse_uri(uri)
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


# The names detect_patterns gives, in the order it gives them. The "path"
# side covers the path plus the query string; query, port, IP host,
# percent-encoding and date apply to one location by construction.
PATTERNS = (
    "long_strings.hostname",
    "long_strings.path",
    "long_slugs.hostname",
    "long_slugs.path",
    "numbers.hostname",
    "numbers.path",
    "case_change.hostname",
    "case_change.path",
    "query",
    "port",
    "ip_host",
    "percent_encoding",
    "date",
)


def detect_patterns(parsed: ParsedUri) -> tuple[str, ...]:
    """The names of the structural patterns the parsed URI shows, in
    PATTERNS order.

    Long string = 10+ contiguous letters; long slug = 2+ runs of 5+ letters
    separated by non-alphanumeric characters; case change is detected on the
    original (pre-lowercasing) text. Scheme choice never affects the result.
    """
    raw_host = parsed.host_as_written
    path_side = parsed.path + (("?" + parsed.query) if parsed.query is not None else "")
    shown = (
        _LONG_STRING.search(raw_host),
        _LONG_STRING.search(path_side),
        _LONG_SLUG.search(raw_host),
        _LONG_SLUG.search(path_side),
        _DIGITS.search(parsed.host),
        _DIGITS.search(path_side),
        _CASE_CHANGE.search(raw_host),
        _CASE_CHANGE.search(path_side),
        parsed.query is not None,
        parsed.port is not None,
        parsed.is_ip_host,
        _PERCENT_ENCODED.search(path_side),
        _DATE_SLASHED.search(path_side) or _DATE_DASHED.search(path_side),
    )
    return tuple(name for name, on in zip(PATTERNS, shown) if on)
