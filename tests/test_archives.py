"""Archive evidence: TimeMap parsing and paging, nearest-memento selection,
popularity/damage providers, the JSONL cache, and the evidence service."""

from __future__ import annotations

import gc
import json
import logging
import os
import re
import socket
import string
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime, parsedate_to_datetime
from urllib.parse import quote, unquote

import pytest
from hypothesis import example, given, strategies as st

from archive_recommender import archives
from archive_recommender.archives import (
    ArchiveEvidence,
    ArchiveFetchError,
    DamageEvidence,
    DamageSource,
    EvidenceCache,
    EvidenceService,
    FixtureArchiveSource,
    FixtureDamageProvider,
    FixturePopularityProvider,
    MemGatorClient,
    MementoDamageClient,
    PopularityEvidence,
    RANK_FLOOR_DEFAULT,
    _TransientFetchError,
    fetch_damage,
    fetch_timemap,
    nearest_memento,
    parse_instant,
    parse_timemap_links,
)
from archive_recommender.uri import canonicalize_surt
from conftest import FailingProvider, ForeignSource, closed_port

UTC = timezone.utc


def dt(text: str) -> datetime:
    return datetime.strptime(text, "%Y%m%d%H%M%S").replace(tzinfo=UTC)


SINGLE_PAGE = (
    '<http://a.example.com>; rel="original",\n'
    '<https://aggregator.example/timemap/link/http://a.example.com>; rel="self"; '
    'type="application/link-format",\n'
    '<https://web.archive.org/web/20140110080000/http://a.example.com/>; '
    'rel="first last memento"; datetime="Fri, 10 Jan 2014 08:00:00 GMT"\n'
)


def keyed(uris: list[str]) -> list[tuple[str, str]]:
    """(uri, SURT) candidates for ``EvidenceService.gather``, each SURT worked
    out from its URI, as an index entry's sidecar holds it."""
    return [(uri, canonicalize_surt(uri)) for uri in uris]


def evidence_for(service: EvidenceService, uri: str, requested: datetime):
    """``service.evidence_for`` with the URI's own SURT."""
    return service.evidence_for(uri, canonicalize_surt(uri), requested)


class MapSource:
    """In-memory TimeMap source; counts calls for retry tests."""

    def __init__(self, first, pages=None, fail_times=0):
        self.first = first
        self.pages = pages or {}
        self.fail_times = fail_times
        self.calls = 0

    def get_timemap(self, uri):
        self.calls += 1
        if self.fail_times > 0:
            self.fail_times -= 1
            raise _TransientFetchError("upstream 502")  # as a live client raises a 5xx
        return self.first

    def get_page(self, page_uri):
        return self.pages.get(page_uri)


def split_quoted_by_scan(text, separator):
    """Oracle: the character loop that the regex tokenizer replaced."""
    parts = []
    buf = []
    in_angle = in_quote = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_quote:
            buf.append(ch)
            if ch == "\\" and i + 1 < len(text):
                buf.append(text[i + 1])
                i += 1
            elif ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
            buf.append(ch)
        elif ch == "<":
            in_angle = True
            buf.append(ch)
        elif ch == ">":
            in_angle = False
            buf.append(ch)
        elif ch == separator and not in_angle:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return parts


class TestSplitQuoted:
    @given(text=st.text(alphabet='<>",;\\ a=', max_size=40))
    @example(text='<a,"b>",c>;"d,e";f')
    @example(text='"unterminated, quote\\')
    @example(text='stray>,<unterminated, angle')
    def test_matches_character_scan(self, text):
        for separator in ",;":
            assert archives._split_quoted(text, separator) == split_quoted_by_scan(text, separator)


SPLIT_PARSER = parse_timemap_links  # the general reader, the oracle of the page scan
SINGLE_PAGE_MEMENTO = "https://web.archive.org/web/20140110080000/http://a.example.com/"
MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def strict_stamp(raw):
    """Oracle of a scanned memento's ISO text: for a raw datetime in the
    strict RFC 1123 form (``Www, DD Mon YYYY HH:MM:SS GMT``, as the form
    regex alone takes it), its fields cut out by position and reordered;
    None for any other value."""
    if raw is None or not archives._RFC1123_DATETIME.fullmatch(raw):
        return None
    return f"{raw[12:16]}-{MONTH_NAMES.index(raw[8:11]) + 1:02d}-{raw[5:7]}T{raw[17:25]}"


def scan_page(text):
    """The page scan's read of a text in the split parser's shape: its
    (raw datetime, target) pairs and next target. Each memento's ISO text,
    which the split parser does not give, is checked against the oracle."""
    mementos, next_uri = archives._page_mementos(text)
    assert [stamp for _, _, stamp in mementos] == [strict_stamp(raw) for raw, _, _ in mementos]
    return [(raw, target) for raw, target, _ in mementos], next_uri


def decode_raw(raw):
    """The (datetime, cache text) that a fetch decodes from one raw TimeMap
    datetime, by its strict-form text if it has one."""
    evidence = archives._evidence_from_pairs("http://x/", [(raw, "https://a/m", strict_stamp(raw))], False)
    return evidence.mementos[0][0], evidence._texts[0]


PAGE_READERS = (scan_page, SPLIT_PARSER)


def read_outcome(read, text):
    """The pairs and next target a page reader makes of a text, or the
    message it raised."""
    try:
        return read(text)
    except ArchiveFetchError as exc:
        return ("ArchiveFetchError", str(exc))


class TestLinkParsing:
    """Both page readers, the scan and the split parser, and the datetime
    decoder their raw datetimes go to."""

    def test_rel_and_datetime(self):
        for read in PAGE_READERS:
            pairs, next_uri = read(SINGLE_PAGE)  # "original" and "self" are no mementos
            assert pairs == [("Fri, 10 Jan 2014 08:00:00 GMT", SINGLE_PAGE_MEMENTO)]
            assert next_uri is None
            assert read(SINGLE_PAGE + ', <https://agg/p2>; REL="prev next"') == (pairs, "https://agg/p2")
        when, text = decode_raw(pairs[0][0])
        assert when == datetime(2014, 1, 10, 8, 0, 0, tzinfo=UTC)
        assert text == "2014-01-10T08:00:00Z"

    def test_commas_inside_angles_and_quotes(self):
        text = (
            '<http://x.example/a,b>; rel="memento"; '
            'datetime="Mon, 10 Jun 2013 11:22:33 GMT"'
        )
        escaped = '<http://x.example/a,b>; title="a,\\"b"; rel="memento"; datetime="Mon, 10 Jun 2013 11:22:33 GMT"'
        for read in PAGE_READERS:
            for page in (text, escaped):  # the escaped quote is off the one-scan form
                assert read(page) == ([("Mon, 10 Jun 2013 11:22:33 GMT", "http://x.example/a,b")], None)
        assert decode_raw("Mon, 10 Jun 2013 11:22:33 GMT")[0] == datetime(2013, 6, 10, 11, 22, 33, tzinfo=UTC)

    def test_malformed_target_raises(self):
        for read in PAGE_READERS:
            with pytest.raises(ArchiveFetchError) as raised:
                read('http://no-angles.example; rel="memento"')
            assert str(raised.value) == "malformed link target 'http://no-angles.example'"

    def test_malformed_parameter_raises(self):
        for read in PAGE_READERS:
            with pytest.raises(ArchiveFetchError) as raised:
                read("<http://x.example>; rel")
            assert str(raised.value) == "malformed link parameter 'rel'"

    def test_bad_datetime_raises(self):
        for read in PAGE_READERS:
            (pair,), _ = read('<http://x.example>; rel="memento"; datetime="not a date"')
            with pytest.raises(ArchiveFetchError) as raised:
                decode_raw(pair[0])
            assert str(raised.value) == "bad datetime 'not a date' in TimeMap"

    def test_year_past_c_int_raises_fetch_error(self):
        for read in PAGE_READERS:
            (pair,), _ = read(
                '<http://a/m>; rel="memento"; datetime="Mon, 01 Jan 99999999999 00:00:00 GMT"'
            )
            with pytest.raises(ArchiveFetchError) as raised:
                decode_raw(pair[0])
            assert isinstance(raised.value.__cause__, OverflowError)


# The link parser that the page readers replaced, kept as their oracle: the
# one scan into links, with the general split parser as its fallback. Its
# link regex is the scan's as it stood before the scan took usual links in
# one match.
SCAN_BLANK_RUN = r"[ \t\r\f\v]*"
SCAN_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
SIMPLE_LINK = re.compile(
    rf'{SCAN_BLANK_RUN}<([^<>"]*)>((?:{SCAN_BLANK_RUN};{SCAN_BLANK_RUN}{SCAN_TOKEN}{SCAN_BLANK_RUN}={SCAN_BLANK_RUN}"[^"\\]*")*)'
    rf"{SCAN_BLANK_RUN}(?:,|\Z)"
)


@dataclass(frozen=True)
class TimemapLink:
    target: str
    rel: tuple[str, ...]
    params: dict[str, str]


def parse_links(text):
    text = text.replace("\n", " ")
    links = []
    pos, end = 0, len(text)
    while pos < end:
        link = SIMPLE_LINK.match(text, pos)
        if link is None:
            return split_links(text)
        target, span = link.groups()
        params = {key.lower(): value for key, value in archives._SIMPLE_PARAM.findall(span)}
        links.append(TimemapLink(target=target, rel=tuple(params.get("rel", "").split()), params=params))
        pos = link.end()
    return links


def split_links(text):
    links = []
    for chunk in archives._split_quoted(text.replace("\n", " "), ","):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in archives._split_quoted(chunk, ";")]
        if not fields[0].startswith("<") or ">" not in fields[0]:
            raise ArchiveFetchError(f"malformed link target {fields[0]!r}")
        target = fields[0][1 : fields[0].index(">")]
        params = {}
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
        links.append(TimemapLink(target=target, rel=tuple(params.get("rel", "").split()), params=params))
    return links


def pairs_by_links(text):
    """What the page readers return, made from the oracle's links."""
    links = parse_links(text)
    pairs = [(link.params.get("datetime"), link.target) for link in links if "memento" in link.rel]
    return pairs, next((link.target for link in links if "next" in link.rel), None)


class CountingSplitParser:
    """Stands in for ``archives.parse_timemap_links`` and counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, text):
        self.calls += 1
        return SPLIT_PARSER(text)


TOKEN_CHARS = "!#$%&'*+-.^_`|~" + string.ascii_letters + string.digits
SCAN_BLANKS = st.text(alphabet=" \t\r\f\v\n", max_size=2)
LINK_TARGETS = st.one_of(
    st.text(alphabet="ab/:?=,; \\\xa0é\t\n", max_size=12),
    st.text(st.characters(blacklist_characters='<>"', blacklist_categories=("Cs",)), max_size=8),
)
PARAM_KEYS = st.one_of(
    st.sampled_from(["rel", "REL", "Rel", "datetime", "DateTime", "type"]),
    st.text(alphabet=TOKEN_CHARS, min_size=1, max_size=6),
)


@st.composite
def strict_datetimes(draw):
    """Datetimes in the strict RFC 1123 form, which the link match reads
    field by field: real dates, and dates no calendar has (31 Feb, 29 Feb
    2001, second 60), at the edges of the four-digit years the form takes.
    Year 0999 and hour 24 fall just outside the form."""
    weekday = draw(st.sampled_from(["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]))
    day = draw(st.sampled_from(["01", "09", "28", "29", "30", "31"]))
    year = draw(st.sampled_from(["0999", "1000", "1001", "2000", "2001", "2004", "9999"]))
    clock = draw(st.sampled_from(["00:00:00", "23:59:59", "09:08:46", "24:00:00", "23:59:60"]))
    return f"{weekday}, {day} {draw(st.sampled_from(MONTH_NAMES))} {year} {clock} GMT"


PARAM_VALUES = st.one_of(
    st.sampled_from(["memento", "first memento", "Fri, 10 Jan 2014 08:00:00 GMT", "next"]),
    st.text(st.characters(blacklist_characters='"\\', blacklist_categories=("Cs",)), max_size=10),
    st.text(alphabet="ab ,;<>=\t\xa0", max_size=10),
    strict_datetimes(),
)


@st.composite
def scannable_timemaps(draw):
    """Link-format text in the form the one-scan parser takes."""
    links = []
    for _ in range(draw(st.integers(1, 4))):
        link = draw(SCAN_BLANKS) + "<" + draw(LINK_TARGETS) + ">"
        for _ in range(draw(st.integers(0, 4))):
            link += (
                draw(SCAN_BLANKS) + ";" + draw(SCAN_BLANKS) + draw(PARAM_KEYS) + draw(SCAN_BLANKS)
                + "=" + draw(SCAN_BLANKS) + '"' + draw(PARAM_VALUES) + '"'
            )
        links.append(link + draw(SCAN_BLANKS))
    return ",".join(links) + draw(st.sampled_from(["", ","]))


NEAR_MISS_INSERTS = [
    "=", "x", "rel=memento", '\\"', "\\", ",,", ",", "\xa0", "\t", "\n", '"', ";", "<", ">", " ; ", ";;",
]


@st.composite
def near_miss_timemaps(draw):
    """Scannable text with one insertion that may push it off the scan."""
    text = draw(scannable_timemaps())
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(NEAR_MISS_INSERTS)) + text[at:]


# One text for each form that the one scan hands to the split parser.
FALLBACK_TRIGGERS = {
    "empty-chunk": '<http://a/1>; rel="memento",, <http://a/2>; rel="memento"',
    "unquoted-value": "<http://a/1>; rel=memento",
    "escaped-quote": '<http://a/1>; title="x\\", <http://a/2>',
    "escaped-backslash": '<http://a/1>; title="x\\\\"',
    "junk-after-target": '<http://a/1>junk; rel="memento"',
    "nbsp-blank": '<http://a/1>;\xa0rel="memento"',
    "blank-only-chunk": '<http://a/1>; rel="memento", ',
    "empty-key": '<http://a/1>; ="memento"',
    "no-target": 'http://a/1; rel="memento"',
    "bare-parameter": "<http://a/1>; rel",
}


# Parts of links in the shape TimeMaps write, each sometimes off the
# one-scan form: a target holding "<" or '"', and a type value holding "\\",
# '"' or "<".
USUAL_TARGETS = st.one_of(
    st.sampled_from(["https://a/web/1/http://x/", "https://a/web/2/http://x/?q=1,2", ""]),
    LINK_TARGETS,
    st.text(alphabet='ab/:<">', max_size=8),
)
TYPE_VALUES = st.one_of(
    st.sampled_from(["application/link-format", "text/html", "", "a\\b", "x\\", 'a"b', "<", "text/<x>"]),
    PARAM_VALUES,
)
LINK_DATETIMES = st.one_of(
    strict_datetimes(),
    st.sampled_from(["Wed, 26 Feb 2014 04:08:46 -0500", "Sat, 1 Mar 2014 09:08:46 GMT", "not a date", ""]),
    PARAM_VALUES,
)
USUAL_RELS = ["memento", "first memento", "last memento", "first last memento", "original", "self", "next", "timegate"]


@st.composite
def usual_links(draw):
    """One link in the shape TimeMaps write: `<target>; rel="..."`, then an
    optional `; datetime="..."` and an optional `; type="..."`."""
    blank = draw(SCAN_BLANKS)
    link = f'<{draw(USUAL_TARGETS)}>{blank}; rel="{draw(st.sampled_from(USUAL_RELS))}"'
    if draw(st.booleans()):
        link += f'; datetime="{draw(LINK_DATETIMES)}"'
    if draw(st.booleans()):
        link += f';{blank}type="{draw(TYPE_VALUES)}"'
    return link


@st.composite
def usual_timemaps(draw):
    """A page of 1-5 links in the shape TimeMaps write, one per line."""
    return ",\n".join(draw(st.lists(usual_links(), min_size=1, max_size=5))) + draw(st.sampled_from(["", "\n"]))


ANY_TIMEMAP_TEXT = st.one_of(
    scannable_timemaps(),
    near_miss_timemaps(),
    usual_timemaps(),
    st.text(alphabet='<>",;\\= a', max_size=40),
)


class TestOneScanParsing:
    @given(text=ANY_TIMEMAP_TEXT)
    @example(text='<http://a/1>; REL="memento"; DateTime="Fri, 10 Jan 2014 08:00:00 GMT"')
    @example(text='<http://a/1>; rel="first"; REL="memento"; rel="last memento"')
    @example(text='<http://a/1> ;\trel = "memento" ,\n<http://a/2>\t; rel="next" ')
    @example(text='<http://a/1>; title="x\\", <http://a/2>')
    @example(text='<http://a/1>; rel="memento",')
    @example(text='<http://a/1>; rel="first\tmemento"; datetime="x", <http://a/2>; rel="memento\xa0next"')
    @example(text="")
    # The edges of the usual-link branch: an upper-case key, a repeated rel,
    # datetime before rel, an empty datetime, blanks around "=", two rels in
    # one value, and a parameter after the datetime.
    @example(text='<http://a/1>; REL="memento"; datetime="Fri, 10 Jan 2014 08:00:00 GMT"')
    @example(text='<http://a/1>; rel="memento"; datetime="x"; rel="next", <http://a/2>; rel="first"; rel="memento"')
    @example(text='<http://a/1>; datetime="Fri, 10 Jan 2014 08:00:00 GMT"; rel="memento"')
    @example(text='<http://a/1>; rel="memento"; datetime=""')
    @example(text='<http://a/1> ; rel = "memento" ;\tdatetime\t=\t"x" , <http://a/2>;rel="next"')
    @example(text='<http://a/1>; rel="memento next"; datetime="x", <http://a/2>; rel="memento"')
    @example(text='<http://a/1>; rel="memento"; datetime="x"; type="text/html"')
    # An escape in a datetime or type value of the usual form, and a target
    # holding "<" or '"': off the form, so the escape may swallow a comma.
    @example(text='<http://a/1>; rel="memento"; datetime="x\\", <http://a/2>; rel="memento"; datetime="y"')
    @example(text='<http://a/1>; rel="self"; type="x\\", <http://a/2>; rel="memento"; datetime="y"')
    @example(text='<http://a/"1>; rel="memento"; datetime="x", <http://a/2>; rel="next"')
    @example(text='<http://a/<1>; rel="memento"; datetime="x", <http://a/2>; rel="next"')
    def test_scan_matches_split_parser(self, text):
        assert read_outcome(scan_page, text) == read_outcome(SPLIT_PARSER, text)

    @given(text=ANY_TIMEMAP_TEXT)
    @example(text='<http://a/1>; rel="memento"; rel="next"; title="x\\"", <http://a/2>; rel=next')
    @example(text='<http://a/1>; rel="first\tmemento"; datetime="x", <http://a/2>; rel="memento\xa0next"')
    @example(text='<http://a/1>; rel="memento",, <http://a/2>; rel="memento"; DATETIME=x')
    def test_split_parser_matches_link_parser(self, text):
        assert read_outcome(SPLIT_PARSER, text) == read_outcome(pairs_by_links, text)

    @given(text=scannable_timemaps())
    @example(text='<http://a/1> ;\trel = "memento" ,\n<http://a/2>\t; rel="next" \r\n')
    @example(text='<http://a/1>; REL="memento"; rel="first memento"')
    def test_scannable_text_takes_one_scan(self, text):
        split = CountingSplitParser()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(archives, "parse_timemap_links", split)
            read = scan_page(text)
        assert split.calls == 0
        assert read == SPLIT_PARSER(text)

    @pytest.mark.parametrize("text", FALLBACK_TRIGGERS.values(), ids=FALLBACK_TRIGGERS.keys())
    def test_fallback_triggers_go_to_split_parser(self, text, monkeypatch):
        split = CountingSplitParser()
        monkeypatch.setattr(archives, "parse_timemap_links", split)
        assert read_outcome(scan_page, text) == read_outcome(SPLIT_PARSER, text)
        assert split.calls == 1

    def test_fixture_timemaps_take_fast_path(self, fixtures_dir, monkeypatch):
        split = CountingSplitParser()
        monkeypatch.setattr(archives, "parse_timemap_links", split)
        paths = sorted((fixtures_dir / "timemaps").glob("*.link"))
        assert paths
        for path in paths:
            text = path.read_text("utf-8")
            assert scan_page(text) == SPLIT_PARSER(text), path.name
        assert split.calls == 0


# The parser that the TimeMap datetime fast path replaces, kept as its oracle.
def parsedate_link_datetime(raw):
    parsed = parsedate_to_datetime(raw)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=UTC)
    return parsed.astimezone(UTC)


def cached_memento_datetime(text):
    return ArchiveEvidence.from_json_dict({"uri": "u", "mementos": [[text, "m"]]}).mementos[0][0]


def link_datetime(raw):
    try:
        return decode_raw(raw)[0]
    except ArchiveFetchError as exc:
        raise exc.__cause__


def outcome(parse, text):
    """What a parser makes of a string: an aware datetime and whether its
    tzinfo is the UTC singleton, or the type of exception it raised."""
    try:
        value = parse(text)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)
    return value, value.tzinfo is UTC


NON_ASCII_DIGITS = st.sampled_from(["０１２３４５６７８９", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९"])


@st.composite
def some_digit_non_ascii(draw, text):
    """The text, with one ASCII digit (if any) swapped for a non-ASCII one."""
    places = [i for i, ch in enumerate(text) if ch.isascii() and ch.isdigit()]
    if not places or not draw(st.booleans()):
        return text
    i = draw(st.sampled_from(places))
    return text[:i] + draw(NON_ASCII_DIGITS)[int(text[i])] + text[i + 1 :]


def number(draw, high, width):
    n = draw(st.integers(0, high))
    return draw(st.sampled_from([f"{n:0{width}d}", str(n)]))


@st.composite
def cache_like_datetimes(draw):
    fields = [number(draw, 9999, 4)] + [number(draw, 99, 2) for _ in range(5)]
    text = "{}-{}-{}T{}:{}:{}".format(*fields) + draw(st.sampled_from(["Z", "z", "", "+00:00", "Z "]))
    return draw(some_digit_non_ascii(text))


@st.composite
def rfc1123_like_datetimes(draw):
    weekday = draw(st.sampled_from(["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun", "sun", "Xyz"]))
    month = draw(st.sampled_from(MONTH_NAMES + ["jan", "DEC", "Foo"]))
    year = number(draw, 9999, 4) if draw(st.booleans()) else str(draw(st.integers(0, 10**12)))
    day, hour, minute, second = (number(draw, 99, 2) for _ in range(4))
    zone = draw(st.sampled_from(["GMT", "UT", "UTC", "+0000", "-0000", "+0130", "-0500", "EST", "gmt", ""]))
    text = f"{weekday}, {day} {month} {year} {hour}:{minute}:{second} {zone}"
    return draw(some_digit_non_ascii(text))


class TestDatetimeFastPaths:
    @given(
        text=st.one_of(
            cache_like_datetimes(),
            st.datetimes().map(lambda d: d.strftime("%Y-%m-%dT%H:%M:%SZ")),
            st.text(max_size=24),
        )
    )
    @example(text="2014-02-26T09:08:46Z")
    @example(text="999-01-01T00:00:00Z")  # strftime writes year 999 unpadded
    @example(text="2014-13-01T00:00:00Z")
    @example(text="2014-02-26T09:08:60Z")
    @example(text="２０１４-02-26T09:08:46Z")
    @example(text="2014-02-2\u0663T09:08:46Z")
    def test_cache_datetime_read_as_an_instant(self, text):
        assert outcome(cached_memento_datetime, text) == outcome(parse_instant, text)

    @given(
        stamps=st.lists(st.datetimes(timezones=st.just(UTC)).map(lambda d: d.replace(microsecond=0)), max_size=4),
        truncated=st.booleans(),
    )
    def test_cache_line_round_trip(self, stamps, truncated):
        mementos = tuple(sorted((stamp, f"https://a/web/{i}/x") for i, stamp in enumerate(stamps)))
        evidence = ArchiveEvidence(uri="http://x/", mementos=mementos, truncated=truncated)
        decoded = ArchiveEvidence.from_json_dict(evidence.to_json_dict())
        assert decoded == evidence
        assert all(stamp.tzinfo is UTC for stamp, _ in decoded.mementos)

    @given(
        raw=st.one_of(
            rfc1123_like_datetimes(),
            st.datetimes(timezones=st.just(UTC)).map(lambda d: format_datetime(d, usegmt=True)),
            st.text(max_size=32),
        )
    )
    @example(raw="Wed, 26 Feb 2014 09:08:46 GMT")
    @example(raw="Mon, 01 Jan 0050 00:00:00 GMT")  # parsedate reads the year as 2050
    @example(raw="Mon, 01 Jan 0999 00:00:00 GMT")
    @example(raw="Wed, 26 Feb 2014 09:08:60 GMT")
    @example(raw="Wed, 26 feb 2014 09:08:46 GMT")
    @example(raw="Sat, 1 Mar 2014 09:08:46 GMT")
    @example(raw="Wed, 26 Feb 2014 09:08:46 +0000")
    @example(raw="Wed, 26 Feb 2014 09:08:46 UT")
    @example(raw="Wed, 26 Feb ２０１４ 09:08:46 GMT")
    @example(raw="Mon, 01 Jan 99999999999 00:00:00 GMT")
    def test_link_datetime_matches_parsedate(self, raw):
        assert outcome(link_datetime, raw) == outcome(parsedate_link_datetime, raw)


class TestEvidence:
    def test_mementos_sorted_by_datetime(self):
        page = (
            '<https://a/web/20140301000000/http://x/>; rel="memento"; '
            'datetime="Sat, 01 Mar 2014 00:00:00 GMT",\n'
            '<https://a/web/20100704000000/http://x/>; rel="memento"; '
            'datetime="Sun, 04 Jul 2010 00:00:00 GMT"'
        )
        evidence = fetch_timemap(MapSource(page), "http://x/")
        assert evidence.archived
        assert evidence.memento_count == 2
        assert [m[0] for m in evidence.mementos] == sorted(m[0] for m in evidence.mementos)

    def test_memento_without_datetime_is_fatal(self):
        with pytest.raises(ArchiveFetchError):
            fetch_timemap(MapSource('<https://a/m>; rel="memento"'), "http://x/")

    def test_no_mementos_means_unarchived(self):
        evidence = fetch_timemap(MapSource('<http://x/>; rel="original"'), "http://x/")
        assert not evidence.archived
        assert evidence.memento_count == 0

    def test_json_roundtrip(self):
        evidence = fetch_timemap(MapSource(SINGLE_PAGE), "http://a.example.com")
        again = ArchiveEvidence.from_json_dict(evidence.to_json_dict())
        assert again == evidence


# Zones that send a TimeMap datetime to the fallback parser, and GMT, which
# the fast path reads (unless the year is below 1000).
LINK_ZONES = ["GMT", "GMT", "UT", "UTC", "+0000", "-0000", "+0130", "-0500", "+1400", "EST", "PDT"]


@st.composite
def link_datetime_texts(draw):
    """A TimeMap ``datetime`` value in RFC 1123 form, in GMT or another zone."""
    moment = draw(st.datetimes(datetime(2, 1, 1), datetime(9998, 12, 31)))
    text = format_datetime(moment.replace(tzinfo=UTC), usegmt=True)
    return text[: -len("GMT")] + draw(st.sampled_from(LINK_ZONES))


def chained_pages(stamps_per_page):
    """TimeMap pages chained by rel="next"; page ``i`` lists one memento per
    (datetime text, memento number) pair in ``stamps_per_page[i]``."""
    pages = []
    for i, stamps in enumerate(stamps_per_page):
        links = [
            f'<https://a/web/{n}/http://x/>; rel="memento"; datetime="{text}"' for text, n in stamps
        ]
        if i + 1 < len(stamps_per_page):
            links.append(f'<https://agg/page{i + 1}>; rel="next"')
        pages.append(",\n".join(links))
    return pages


@st.composite
def timemap_page_chains(draw):
    """1-3 chained pages whose mementos draw their datetimes from a pool of
    1-4, so that equal datetimes with different URIs are common."""
    pool = draw(st.lists(link_datetime_texts(), min_size=1, max_size=4))
    memento = st.tuples(st.sampled_from(pool), st.integers(0, 5))
    return chained_pages(draw(st.lists(st.lists(memento, max_size=4), min_size=1, max_size=3)))


class FixedDamage:
    """A damage provider that answers ``value`` for every memento, with a
    ``source`` attribute only when one is given."""

    def __init__(self, value, source=None):
        self.value = value
        if source is not None:
            self.source = source

    def get_damage(self, memento_uri):
        return self.value


class TestFetchedValueIsItsCacheLine:
    """What the cache may hand out for a fetched value without decoding its
    line: for every value the fetcher builds, decoding the encoded value,
    in memory or through JSON, gives back an equal value."""

    @given(pages=timemap_page_chains())
    @example(pages=chained_pages([[("Wed, 26 Feb 2014 09:08:46 +0130", 1)]]))
    @example(pages=chained_pages([[("Mon, 01 Jan 0999 00:00:00 GMT", 1), ("Mon, 01 Jan 0050 00:00:00 EST", 2)]]))
    @example(
        pages=chained_pages(
            [
                [("Sat, 01 Mar 2014 00:00:00 GMT", 3), ("Fri, 28 Feb 2014 19:00:00 EST", 1)],
                [("Sat, 01 Mar 2014 00:00:00 GMT", 2), ("Sun, 04 Jul 2010 00:00:00 GMT", 0)],
                [],
            ]
        )
    )
    def test_timemap(self, pages):
        source = MapSource(pages[0], pages={f"https://agg/page{i}": page for i, page in enumerate(pages)})
        evidence = fetch_timemap(source, "http://x/")
        line = evidence.to_json_dict()
        for value in (line, json.loads(json.dumps(line))):
            decoded = ArchiveEvidence.from_json_dict(value)
            assert decoded == evidence
            assert decoded.mementos == evidence.mementos  # in the same order
            assert all(when.tzinfo is UTC for when, _ in decoded.mementos + evidence.mementos)

    @given(
        value=st.one_of(st.none(), st.floats(0, 1), st.sampled_from([0, 1])),
        source=st.sampled_from([None, DamageSource.PROVIDER, DamageSource.FIXTURE]),
        provided=st.booleans(),
    )
    def test_damage(self, value, source, provided):
        evidence = fetch_damage(FixedDamage(value, source) if provided else None, "https://a/web/1/http://x/")
        line = evidence.to_json_dict()
        for data in (line, json.loads(json.dumps(line))):
            decoded = DamageEvidence.from_json_dict(data)
            assert decoded == evidence
            assert type(decoded.damage) is type(evidence.damage)
            assert decoded.source is evidence.source


class TestFetchTimemap:
    def test_missing_timemap_is_not_archived(self):
        evidence = fetch_timemap(MapSource(None), "http://gone.example.com/")
        assert not evidence.archived
        assert evidence.memento_count == 0

    def test_follows_next_pages(self):
        page2 = (
            '<https://a/web/20140315000000/http://x/>; rel="memento"; '
            'datetime="Sat, 15 Mar 2014 00:00:00 GMT"'
        )
        first = (
            '<https://a/web/20120105090000/http://x/>; rel="memento"; '
            'datetime="Thu, 05 Jan 2012 09:00:00 GMT",\n'
            '<https://agg/timemap/link/http://x?page=2>; rel="next"; '
            'type="application/link-format"'
        )
        source = MapSource(first, pages={"https://agg/timemap/link/http://x?page=2": page2})
        evidence = fetch_timemap(source, "http://x/")
        assert evidence.memento_count == 2
        assert not evidence.truncated

    def test_page_cap_sets_truncated(self):
        def page(i: int, last: bool) -> str:
            text = (
                f'<https://a/web/2014010{i}000000/http://x/>; rel="memento"; '
                f'datetime="Wed, 0{i} Jan 2014 00:00:00 GMT"'
            )
            if not last:
                text += f',\n<https://agg/page{i + 1}>; rel="next"'
            return text

        pages = {f"https://agg/page{i}": page(i, last=False) for i in range(2, 9)}
        source = MapSource(page(1, last=False), pages=pages)
        evidence = fetch_timemap(source, "http://x/", max_pages=3)
        assert evidence.truncated
        assert evidence.memento_count == 4  # first page + three continuations

    def test_next_loop_detected(self):
        first = (
            '<https://a/web/20140101000000/http://x/>; rel="memento"; '
            'datetime="Wed, 01 Jan 2014 00:00:00 GMT",\n'
            '<https://agg/page1>; rel="next"'
        )
        source = MapSource(first, pages={"https://agg/page1": first})
        evidence = fetch_timemap(source, "http://x/")
        assert evidence.memento_count == 2  # page fetched once, loop stopped

    def test_each_page_parsed_once(self, fixtures_dir, monkeypatch):
        scanned, parsed = [], []
        scan = archives._page_mementos

        def counting_scan(text):
            scanned.append(text)
            return scan(text)

        def counting_parse(text):
            parsed.append(text)
            return parse_timemap_links(text)

        monkeypatch.setattr(archives, "_page_mementos", counting_scan)
        monkeypatch.setattr(archives, "parse_timemap_links", counting_parse)
        evidence = fetch_timemap(FixtureArchiveSource(fixtures_dir / "timemaps"), "http://cs.odu.edu")
        assert evidence.memento_count == 4
        assert len(scanned) == 2 == len(set(scanned))
        assert not parsed  # both pages are in the one-scan form

    def test_only_a_fallback_page_reaches_the_split_parser(self, monkeypatch):
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_timemap_links(text)

        first = (
            '<https://a/web/1/http://x/>; rel="memento"; datetime="Wed, 01 Jan 2014 00:00:00 GMT",\n'
            '<https://agg/page2>; rel="next"'
        )
        fallback = '<https://a/web/2/http://x/>; rel=memento; datetime="Thu, 02 Jan 2014 00:00:00 GMT"'
        monkeypatch.setattr(archives, "parse_timemap_links", counting_parse)
        evidence = fetch_timemap(MapSource(first, pages={"https://agg/page2": fallback}), "http://x/")
        assert [uri for _, uri in evidence.mementos] == ["https://a/web/1/http://x/", "https://a/web/2/http://x/"]
        assert parsed == [fallback]

    def test_malformed_page_stops_paging(self):
        requested = []

        class Recording(MapSource):
            def get_page(self, page_uri):
                requested.append(page_uri)
                return super().get_page(page_uri)

        first = (
            '<https://a/web/20140101000000/http://x/>; rel="memento"; '
            'datetime="Wed, 01 Jan 2014 00:00:00 GMT",\n'
            '<https://agg/page2>; rel="next"'
        )
        broken = 'https://no-angles/; rel="memento",\n<https://agg/page3>; rel="next"'
        source = Recording(first, pages={"https://agg/page2": broken, "https://agg/page3": first})
        with pytest.raises(ArchiveFetchError):
            fetch_timemap(source, "http://x/")
        assert requested == ["https://agg/page2"]


# The fetch that the page scan replaced, kept as its oracle: every page
# parsed into links, one fold over all of them once every page is in, the
# general datetime parser, and cache text formatted by isoformat.
def fetch_timemap_by_links(source, uri, max_pages=5):
    page = source.get_timemap(uri)
    if page is None:
        return ArchiveEvidence(uri=uri, mementos=())
    links = []
    seen = set()
    truncated = False
    followed = 0
    while page is not None:
        page_links = parse_links(page)
        links.extend(page_links)
        next_uri = next((link.target for link in page_links if "next" in link.rel), None)
        if not next_uri:
            break
        if next_uri in seen or followed >= max_pages:
            truncated = followed >= max_pages
            break
        seen.add(next_uri)
        page = source.get_page(next_uri)
        followed += 1
    return evidence_from_links(uri, links, truncated)


def evidence_from_links(uri, links, truncated):
    mementos = []
    for link in links:
        if "memento" not in link.rel:
            continue
        raw = link.params.get("datetime")
        if raw is None:
            raise ArchiveFetchError(f"memento link without datetime: {link.target!r}")
        try:
            when = parsedate_link_datetime(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ArchiveFetchError(f"bad datetime {raw!r} in TimeMap") from exc
        mementos.append((when, link.target))
    mementos.sort()
    return ArchiveEvidence(uri=uri, mementos=tuple(mementos), truncated=truncated)


def isoformat_json_dict(evidence):
    return {
        "uri": evidence.uri,
        "mementos": [[when.isoformat(timespec="seconds")[:19] + "Z", m] for when, m in evidence.mementos],
        "truncated": evidence.truncated,
    }


def fetch_outcome(fetch, source, max_pages):
    """The evidence a fetch makes of a map and its cache dict, or the
    message it raised."""
    try:
        evidence = fetch(source, "http://x/", max_pages)
    except ArchiveFetchError as exc:
        return ("ArchiveFetchError", str(exc))
    cache = evidence.to_json_dict() if fetch is fetch_timemap else isoformat_json_dict(evidence)
    return evidence, cache  # evidence equality compares memento order too


class PagedSource(MapSource):
    """A map's pages by URI; a page that is an exception is raised."""

    def get_page(self, page_uri):
        page = self.pages.get(page_uri)
        if isinstance(page, Exception):
            raise page
        return page


PAGE_URIS = [f"https://agg/p{i}" for i in range(4)]
GOOD_DATETIMES = [
    "Wed, 26 Feb 2014 09:08:46 GMT",
    "Sat, 01 Mar 2014 00:00:00 GMT",
    "Thu, 31 Dec 2009 23:59:59 GMT",
]
ODD_DATETIMES = [
    "Wed, 26 Feb 2014 04:08:46 -0500",  # another zone: the general parser
    "Mon, 01 Jan 0999 00:00:00 GMT",  # a year below 1000
    "Mon, 01 Jan 0050 00:00:00 GMT",
    "Wed, 26 Feb 2014 24:00:00 GMT",
    "Sun, 30 Feb 2014 00:00:00 GMT",
    "Thu, 29 Feb 2001 00:00:00 GMT",
    "Wed, 26 Feb 2014 09:08:60 GMT",
    "Mon, 01 Jan 99999999999 00:00:00 GMT",
    "not a date",
    "",
]
MEMENTO_RELS = ["memento", "first memento", "last memento", "first last memento", "Memento", "memento\xa0next"]
OTHER_RELS = ["original", "self", "timegate", "next", "", "mementos"]


@st.composite
def timemap_links(draw, page_uris):
    """One link: a memento, a next link (to a page of the map, a page that
    is not there, or <>) or another link, with its parameters in any order
    and a key sometimes repeated, so that the last value wins."""
    kind = draw(st.sampled_from(["memento", "memento", "memento", "next", "other"]))
    if kind == "next":
        target = draw(st.sampled_from(page_uris + ["", "https://agg/missing"]))
        params = [("rel", "next"), ("type", "application/link-format")]
    else:
        target = f"https://a/web/{draw(st.integers(0, 5))}/http://x/"
        rel = draw(st.sampled_from(MEMENTO_RELS if kind == "memento" else OTHER_RELS))
        params = [("rel", rel)]
        if draw(st.integers(0, 9)):  # now and then a memento with no datetime
            params.append(("datetime", draw(st.sampled_from(GOOD_DATETIMES * 3 + ODD_DATETIMES))))
    if draw(st.booleans()):  # a repeated key: the first value is overwritten
        key, value = draw(st.sampled_from(params))
        params.insert(0, (key, draw(st.sampled_from(["memento", "next", "original", GOOD_DATETIMES[1]]))))
        params.append((key, value))
    params = draw(st.permutations(params))
    keys = [draw(st.sampled_from([key, key.upper(), key.title()])) for key, _ in params]
    return f"<{target}>" + "".join(f'; {key}="{value}"' for key, (_, value) in zip(keys, params))


@st.composite
def timemap_maps(draw):
    """A map of 1-4 pages; a page may be pushed off the one-scan form, be
    missing, or fail to fetch."""
    count = draw(st.integers(1, 4))
    pages = {}
    for uri in PAGE_URIS[:count]:
        links = draw(st.lists(timemap_links(PAGE_URIS[:count]), max_size=5))
        text = ",\n".join(links)
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(NEAR_MISS_INSERTS)) + text[at:]
        pages[uri] = draw(
            st.sampled_from([text] * 6 + [None, ArchiveFetchError(f"upstream 502 for {uri}")])
        )
    first = pages.pop(PAGE_URIS[0])
    if isinstance(first, Exception):
        first = None
    return PagedSource(first, pages=pages), draw(st.integers(0, 4))


LOOPED_MAP = PagedSource(
    '<https://a/web/1/http://x/>; rel="first memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT", '
    '<https://agg/p1>; rel="next"',
    pages={"https://agg/p1": '<https://a/web/0/http://x/>; rel="memento"; datetime="Thu, 31 Dec 2009 23:59:59 GMT",'
           '<https://agg/p1>; rel="next"'},
)


class TestPageScan:
    @given(case=timemap_maps())
    @example(case=(LOOPED_MAP, 5))
    @example(case=(LOOPED_MAP, 0))  # the page cap, before the loop is seen
    @example(  # a bad datetime, then a page that fails to fetch: the fetch error wins
        case=(
            PagedSource(
                '<https://a/web/1/http://x/>; rel="memento"; datetime="not a date", <https://agg/p1>; rel="next"',
                pages={"https://agg/p1": ArchiveFetchError("upstream 502")},
            ),
            4,
        )
    )
    @example(  # a memento with no datetime, then a page that does not parse
        case=(
            PagedSource(
                '<https://a/web/1/http://x/>; rel="memento", <https://agg/p1>; rel="next"',
                pages={"https://agg/p1": '<https://a/web/2/http://x/>; rel="memento"; x'},
            ),
            4,
        )
    )
    @example(  # the first next link is followed, not a later one
        case=(
            PagedSource(
                '<https://agg/p1>; rel="next", <>; rel="next"',
                pages={"https://agg/p1": '<https://a/web/1/http://x/>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT"'},
            ),
            4,
        )
    )
    @example(  # an empty next target ends the map
        case=(PagedSource('<https://a/web/1/http://x/>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT", <>; rel="next"'), 4)
    )
    def test_same_as_parsing_into_links(self, case):
        source, max_pages = case
        assert fetch_outcome(fetch_timemap, source, max_pages) == fetch_outcome(
            fetch_timemap_by_links, source, max_pages
        )

    def test_fixture_cache_lines_pinned(self, fixtures_dir, tmp_path):
        source = FixtureArchiveSource(fixtures_dir / "timemaps")
        uris = [
            unquote(path.name[: -len(".link")])
            for path in sorted((fixtures_dir / "timemaps").glob("*.link"))
            if "?page=" not in unquote(path.name)
        ]
        with EvidenceCache(tmp_path / "cache.jsonl", clock=lambda: 1402000000.5) as cache:
            EvidenceService(source, cache=cache, parallelism=1).gather(keyed(uris), dt("20140601000000"))
        lines = [
            line for line in (tmp_path / "cache.jsonl").read_text("utf-8").splitlines()
            if json.loads(line)["kind"] == "timemap"
        ]
        expected = [
            json.dumps(
                {
                    "provider": "gateway",
                    "kind": "timemap",
                    "surt": canonicalize_surt(uri),
                    "fetched_at": 1402000000.5,
                    "value": isoformat_json_dict(fetch_timemap_by_links(source, uri)),
                },
                sort_keys=True,
            )
            for uri in uris
        ]
        assert len(uris) == 9
        assert lines == expected


# The decoder that the fused link match replaced, kept as its oracle: a
# datetime in the strict form read by the form regex on its own, any other
# by the general parser.
def old_link_time(raw):
    iso = strict_stamp(raw)
    try:
        if iso is None:
            when = parsedate_link_datetime(raw)
            return when, archives.format_instant(when)
        when = datetime.fromisoformat(iso + "+00:00")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveFetchError(f"bad datetime {raw!r} in TimeMap") from exc
    return when, iso + "Z"


def fetch_timemap_by_split(source, uri, max_pages=5):
    """Oracle of fetch_timemap: every page read by the split parser, then,
    once every page is in, each memento decoded by ``old_link_time`` in
    page order; the cache texts ride along as fetch_timemap keeps them."""
    page = source.get_timemap(uri)
    if page is None:
        return ArchiveEvidence(uri=uri, mementos=())
    pairs = []
    seen = set()
    truncated = False
    followed = 0
    while page is not None:
        page_pairs, next_uri = SPLIT_PARSER(page)
        pairs += page_pairs
        if not next_uri:
            break
        if next_uri in seen or followed >= max_pages:
            truncated = followed >= max_pages
            break
        seen.add(next_uri)
        page = source.get_page(next_uri)
        followed += 1
    mementos, texts = [], []
    for raw, target in pairs:
        if raw is None:
            raise ArchiveFetchError(f"memento link without datetime: {target!r}")
        when, text = old_link_time(raw)
        mementos.append((when, target))
        texts.append(text)
    evidence = ArchiveEvidence(uri=uri, mementos=tuple(sorted(mementos)), truncated=truncated)
    object.__setattr__(evidence, "_texts", tuple(sorted(texts)))
    return evidence


def fetch_with_texts(fetch, source):
    """The evidence a fetch makes of a map with its cache texts, or the
    message it raised."""
    try:
        evidence = fetch(source, "http://x/")
    except ArchiveFetchError as exc:
        return ("ArchiveFetchError", str(exc))
    return evidence, evidence._texts


MAP_PAGE_URIS = [f"https://agg/timemap/link/http://x/?page={n}" for n in range(3)]


@st.composite
def usual_maps(draw):
    """A map of 2-3 pages in the shape TimeMaps write, chained by rel="next"
    links that carry a type, a page now and then pushed off the form."""
    count = draw(st.integers(2, 3))
    pages = []
    for n in range(count):
        links = ['<http://x/>; rel="original"', f'<{MAP_PAGE_URIS[n]}>; rel="self"; type="application/link-format"']
        links += draw(st.lists(usual_links(), max_size=4))
        if n + 1 < count:
            links.append(f'<{MAP_PAGE_URIS[n + 1]}>; rel="next"; type="{draw(TYPE_VALUES)}"')
        text = ",\n".join(links) + "\n"
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(NEAR_MISS_INSERTS)) + text[at:]
        pages.append(text)
    return MapSource(pages[0], pages=dict(zip(MAP_PAGE_URIS[1:], pages[1:])))


# A page in the shape of the benchmark's generated TimeMaps.
GENERATED_SHAPE_PAGE = (
    '<http://x.example/a>; rel="original",\n'
    '<https://agg/timemap/link/http://x.example/a>; rel="self"; type="application/link-format",\n'
    '<https://agg/timegate/http://x.example/a>; rel="timegate",\n'
    '<https://a/web/20010505034552/http://x.example/a>; rel="first memento"; datetime="Sat, 05 May 2001 03:45:52 GMT",\n'
    '<https://a/web/20010601224418/http://x.example/a>; rel="memento"; datetime="Fri, 01 Jun 2001 22:44:18 GMT",\n'
    '<https://a/web/20010612131912/http://x.example/a>; rel="memento"; datetime="Tue, 12 Jun 2001 13:19:12 GMT",\n'
    '<https://agg/timemap/link/http://x.example/a?page=2>; rel="next"; type="application/link-format"\n'
)
# A strict-form date that no calendar has on page 1, then a page 2 that does
# not parse: every page is read before any datetime is decoded.
BAD_DATETIME_THEN_MALFORMED_PAGE = MapSource(
    '<https://a/web/1/http://x/>; rel="memento"; datetime="Sun, 31 Feb 2014 00:00:00 GMT",\n'
    f'<{MAP_PAGE_URIS[1]}>; rel="next"; type="application/link-format"',
    pages={MAP_PAGE_URIS[1]: 'https://no-angles/; rel="memento"'},
)


class CountingLinkPattern:
    """Stands in for ``archives._LINK``: counts its matches, and those made
    by its second branch, whose parameter span is its last group."""

    def __init__(self):
        self.pattern = archives._LINK
        self.matches = self.second_branch = 0

    def match(self, text, pos):
        link = self.pattern.match(text, pos)
        if link is not None:
            self.matches += 1
            self.second_branch += link.group(self.pattern.groups) is not None
        return link


class TestFusedLinkMatch:
    """The link match that hands over a strict-form datetime's fields, and
    the decode that reads them, against the split parser and the decoder
    they replaced."""

    @given(source=usual_maps())
    @example(source=BAD_DATETIME_THEN_MALFORMED_PAGE)
    @example(  # the first of two dates that no calendar has names the error
        source=MapSource(
            '<https://a/web/1/http://x/>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT",\n'
            '<https://a/web/2/http://x/>; rel="memento"; datetime="Sun, 31 Feb 2014 00:00:00 GMT",\n'
            '<https://a/web/3/http://x/>; rel="memento"; datetime="Thu, 29 Feb 2001 00:00:00 GMT"'
        )
    )
    @example(source=MapSource('<https://a/web/1/http://x/>; rel="memento"; datetime="Wed, 01 Jan 1000 00:00:00 GMT"'))
    @example(source=MapSource('<https://a/web/1/http://x/>; rel="memento"; datetime="Tue, 31 Dec 0999 23:59:59 GMT"'))
    @example(
        source=MapSource(
            '<https://a/web/1/http://x/>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT"; type="a\\",\n'
            '<https://a/web/2/http://x/>; rel="memento"; datetime="Sun, 02 Mar 2014 00:00:00 GMT"'
        )
    )
    @example(
        source=MapSource(
            '<https://a/web/1/http://x/>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT\\",\n'
            '<https://a/web/2/http://x/>; rel="memento"; datetime="Sun, 02 Mar 2014 00:00:00 GMT"'
        )
    )
    @example(source=MapSource('<https://a/"1>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT"'))
    @example(source=MapSource('<https://a/<1>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT"'))
    def test_fetch_same_as_split_parser_and_old_decoder(self, source):
        assert fetch_with_texts(fetch_timemap, source) == fetch_with_texts(fetch_timemap_by_split, source)

    def test_bad_datetime_then_malformed_page(self):
        outcome = ("ArchiveFetchError", "malformed link target 'https://no-angles/'")
        assert fetch_with_texts(fetch_timemap, BAD_DATETIME_THEN_MALFORMED_PAGE) == outcome

    def test_usual_pages_take_the_fused_match(self, fixtures_dir, monkeypatch):
        """Every fixture page and a page in the generated shape: one
        first-branch match per link, and no split parser, general datetime
        parser or second match of a datetime."""
        pages = [path.read_text("utf-8") for path in sorted((fixtures_dir / "timemaps").glob("*.link"))]
        pages.append(GENERATED_SHAPE_PAGE)
        link, split, general, restamped = CountingLinkPattern(), CountingSplitParser(), [], []
        link_time, rfc1123_stamp = archives._link_time, archives._rfc1123_stamp
        monkeypatch.setattr(archives, "_LINK", link)
        monkeypatch.setattr(archives, "parse_timemap_links", split)
        monkeypatch.setattr(archives, "_link_time", lambda raw: general.append(raw) or link_time(raw))
        monkeypatch.setattr(archives, "_rfc1123_stamp", lambda raw: restamped.append(raw) or rfc1123_stamp(raw))
        for page in pages:
            assert fetch_timemap(MapSource(page), "http://x/").archived
        assert link.matches == sum(page.count(">;") for page in pages)
        assert (link.second_branch, split.calls, general, restamped) == (0, 0, [], [])


MEMENTO_STAMPS = [datetime(2014, 1, day, hour, tzinfo=UTC) for day in (1, 2, 4) for hour in (0, 6)]


@st.composite
def nearest_memento_cases(draw):
    """1-8 sorted mementos, some sharing a datetime, and a requested time on,
    halfway between, before or after them; naive half of the time."""
    mementos = sorted(
        draw(
            st.lists(
                st.tuples(st.sampled_from(MEMENTO_STAMPS), st.sampled_from(["https://a/1", "https://a/2", "https://a/3"])),
                min_size=1,
                max_size=8,
            )
        )
    )
    left, right = (draw(st.sampled_from(mementos))[0] for _ in range(2))
    requested = draw(
        st.one_of(
            st.just(left),
            st.just(left + (right - left) / 2),
            st.datetimes(datetime(2013, 12, 31), datetime(2014, 1, 5), timezones=st.just(UTC)),
        )
    )
    if draw(st.booleans()):
        requested = requested.replace(tzinfo=None)
    return mementos, requested


class TestNearestMemento:
    def make(self, *stamps: str) -> ArchiveEvidence:
        mementos = tuple((dt(s), f"https://a/web/{s}/http://x/") for s in sorted(stamps))
        return ArchiveEvidence(uri="http://x/", mementos=mementos)

    def test_picks_closest(self):
        evidence = self.make("20131215083000", "20140220103015", "20140405121200")
        when, uri = nearest_memento(evidence, dt("20140301000000"))
        assert when == dt("20140220103015")
        assert "20140220103015" in uri

    def test_equidistant_resolves_earlier(self):
        evidence = self.make("20140101000000", "20140103000000")
        when, _ = nearest_memento(evidence, dt("20140102000000"))
        assert when == dt("20140101000000")

    def test_unarchived_raises(self):
        empty = ArchiveEvidence(uri="http://x/", mementos=())
        with pytest.raises(ValueError):
            nearest_memento(empty, dt("20140101000000"))

    @given(case=nearest_memento_cases())
    @example(  # a duplicate datetime, asked for exactly halfway
        case=(
            [(MEMENTO_STAMPS[0], "https://a/1"), (MEMENTO_STAMPS[0], "https://a/2"), (MEMENTO_STAMPS[1], "https://a/3")],
            datetime(2014, 1, 1, 3, tzinfo=UTC),
        )
    )
    @example(case=([(MEMENTO_STAMPS[0], "https://a/1")], datetime(2014, 1, 1)))
    def test_matches_min_oracle(self, case):
        mementos, requested = case
        evidence = ArchiveEvidence(uri="http://x/", mementos=tuple(mementos))

        def by_min():
            return min(evidence.mementos, key=lambda m: (abs(m[0] - requested), m[0]))

        if requested.tzinfo is None:
            with pytest.raises(TypeError):
                by_min()
            with pytest.raises(TypeError):
                nearest_memento(evidence, requested)
        else:
            assert nearest_memento(evidence, requested) == by_min()


    @given(case=nearest_memento_cases(), data=st.data())
    def test_cached_mementos_in_any_order(self, case, data):
        mementos, requested = case
        requested = requested.replace(tzinfo=UTC)
        shuffled = data.draw(st.permutations(mementos))
        line = ArchiveEvidence(uri="http://x/", mementos=tuple(shuffled)).to_json_dict()
        decoded = ArchiveEvidence.from_json_dict(line)
        assert nearest_memento(decoded, requested) == min(shuffled, key=lambda m: (abs(m[0] - requested), m[0]))


def read_text_outcome(path):
    """Oracle of a fixture read: the file's text as ``Path.read_text`` reads
    it, or the error that ``FixtureArchiveSource`` makes of its failure."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return ("ArchiveFetchError", f"{path}: bytes that are not UTF-8 ({exc.reason})")


def fixture_read_outcome(source, uri):
    """What ``source.get_timemap(uri)`` returns, or the type and message it
    raised, and how many descriptors it opened; each must be closed again."""
    opened = []
    real_open = os.open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "open", recording_open)
        try:
            outcome = source.get_timemap(uri)
        except (ArchiveFetchError, OSError) as exc:
            outcome = (type(exc).__name__, str(exc))
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)  # EBADF: closed
    return outcome, len(opened)


FIXTURE_FILE_PIECES = [
    b"\r", b"\r\n", b"\n", b"\n\r", b"a", b" ", b"\xef\xbb\xbf", b"\xc3\xa9", b"\xe2\x82\xac",
    b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b'<http://a/1>; rel="memento"',
]
FIXTURE_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(FIXTURE_FILE_PIECES), max_size=16).map(b"".join),
)


class TestFixtureSources:
    def test_fixture_timemap_lookup(self, fixtures_dir):
        source = FixtureArchiveSource(fixtures_dir / "timemaps")
        text = source.get_timemap("http://cs.gmu.edu")
        assert text and 'rel="original"' in text
        assert source.get_timemap("http://never-recorded.example/") is None

    def test_paged_fixture_roundtrip(self, fixtures_dir):
        source = FixtureArchiveSource(fixtures_dir / "timemaps")
        evidence = fetch_timemap(source, "http://cs.odu.edu")
        assert evidence.memento_count == 4  # two on each page
        assert not evidence.truncated
        stamps = [m[0] for m in evidence.mementos]
        assert stamps == sorted(stamps)

    def test_missing_file_is_not_archived(self, tmp_path):
        source = FixtureArchiveSource(tmp_path)
        assert source.get_timemap("http://x.example/") is None
        assert source.get_page("https://agg/timemap/link/http://x.example/?page=2") is None

    def test_unreachable_file_is_not_archived(self, tmp_path):
        (tmp_path / "timemaps").write_text("not a directory")
        assert FixtureArchiveSource(tmp_path / "timemaps").get_timemap("http://x.example/") is None
        looped = tmp_path / (quote("http://x.example/", safe="") + ".link")
        looped.symlink_to(looped.name)
        assert FixtureArchiveSource(tmp_path).get_timemap("http://x.example/") is None

    def test_name_too_long_for_a_file_is_not_archived(self, fixtures_dir):
        # quoted, the URI is a file name past the 255 bytes a name may hold
        uri = "http://x.example/" + "a" * 300
        source = FixtureArchiveSource(fixtures_dir / "timemaps")
        assert source.get_timemap(uri) is None
        assert source.get_page(uri + "?page=2") is None

    def test_every_read_sees_the_file_as_it_is(self, tmp_path):
        # the path is worked out once per URI; the file is read on every call
        path = tmp_path / (quote("http://x.example/", safe="") + ".link")
        source = FixtureArchiveSource(tmp_path)
        assert source.get_timemap("http://x.example/") is None
        path.write_bytes(b"first")
        assert source.get_timemap("http://x.example/") == "first"
        path.write_bytes(b"second\r\nthird\r")
        assert source.get_page("http://x.example/") == "second\nthird\n"  # text mode, as Path.read_text reads
        path.unlink()
        assert source.get_timemap("http://x.example/") is None

    def test_directory_in_place_of_file_raises(self, tmp_path):
        path = tmp_path / (quote("http://x.example/", safe="") + ".link")
        path.mkdir()
        with pytest.raises(IsADirectoryError) as expected:
            open(path, encoding="utf-8")
        outcome, opened = fixture_read_outcome(FixtureArchiveSource(tmp_path), "http://x.example/")
        assert outcome == ("IsADirectoryError", str(expected.value))
        assert opened == 1

    @given(data=FIXTURE_FILE_BYTES)
    @example(data=b"")
    @example(data=b"a\rb\r\nc\n\rd")
    @example(data=b"trailing\r")
    @example(data=b"\xef\xbb\xbf<http://a/1>; rel=\"memento\"")  # a BOM stays in the text
    @example(data=b"ok\r\n\xff")
    @example(data=b"\r\xe2\x82")  # a sequence cut off by the end of the file
    @example(data=b"\xed\xa0\x80")  # an encoded surrogate
    @example(data=b"a\r\n" * 40_000)  # 120,000 bytes, still one read
    def test_read_as_read_text(self, tmp_path_factory, data):
        """A fixture file reads as ``Path.read_text(encoding="utf-8")``
        reads it, raises exactly where that raises, with the same reason,
        and leaves no file descriptor open."""
        directory = tmp_path_factory.mktemp("timemaps", numbered=True)
        path = directory / (quote("http://x.example/", safe="") + ".link")
        path.write_bytes(data)
        outcome, opened = fixture_read_outcome(FixtureArchiveSource(directory), "http://x.example/")
        assert outcome == read_text_outcome(path)
        assert opened == 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/cmdline"), reason="needs a file whose size reads as 0")
    def test_file_longer_than_its_size_read_whole(self, tmp_path):
        # A procfs file reports size 0, so the first read fills its one byte
        # and the rest comes from the reads after it.
        path = tmp_path / (quote("http://x.example/", safe="") + ".link")
        path.symlink_to("/proc/self/cmdline")
        assert os.stat(path).st_size == 0
        outcome, opened = fixture_read_outcome(FixtureArchiveSource(tmp_path), "http://x.example/")
        assert outcome == read_text_outcome(path)
        assert len(outcome) > 1 and opened == 1

    def test_undecodable_timemap_is_a_fetch_error(self, tmp_path, fixtures_dir):
        name = quote("http://cs.odu.edu", safe="") + ".link"
        (tmp_path / name).write_bytes((fixtures_dir / "timemaps" / name).read_bytes() + b"\xff\n")
        source = FixtureArchiveSource(tmp_path)
        with pytest.raises(ArchiveFetchError, match=r"\.link: bytes that are not UTF-8"):
            source.get_timemap("http://cs.odu.edu")
        outcome = evidence_for(EvidenceService(source, parallelism=1), "http://cs.odu.edu", dt("20140601000000"))
        assert outcome.error is not None and "not UTF-8" in outcome.error

    def test_popularity_fixture(self, fixtures_dir):
        provider = FixturePopularityProvider(fixtures_dir / "popularity.tsv")
        assert provider.get_rank("odu.edu") == 28455
        assert provider.get_rank("hollins.edu") is None

    def test_damage_fixture(self, fixtures_dir):
        provider = FixtureDamageProvider(fixtures_dir / "damage.tsv")
        value = provider.get_damage(
            "https://web.archive.org/web/20140226090846/http://cs.odu.edu:80/"
        )
        assert value == pytest.approx(0.13)
        assert provider.get_damage("https://web.archive.org/web/0/http://nope/") is None


def timemap_with(count: int) -> str:
    """One TimeMap page listing ``count`` mementos, a day apart."""
    return ",\n".join(
        f'<https://a/web/{i}/http://x/>; rel="memento"; datetime="'
        f'{format_datetime(datetime(2014, 1, 1, tzinfo=UTC) + timedelta(days=i), usegmt=True)}"'
        for i in range(count)
    )


def popularity_of(provider, mementos: int, uri: str = "http://example.com/"):
    """Popularity evidence as the evidence service builds it for ``uri``."""
    service = EvidenceService(MapSource(timemap_with(mementos)), provider)
    return evidence_for(service, uri, dt("20140301000000")).popularity


class TestPopularityAndDamageFetch:
    def test_rank_present(self):
        evidence = popularity_of(FixtureRank(12), mementos=100)
        assert evidence.global_rank == 12
        assert evidence.archive_count == 100

    def test_rank_missing(self):
        evidence = popularity_of(FixtureRank(None), mementos=5)
        assert evidence.global_rank is None

    def test_rank_clamped_to_floor(self):
        evidence = popularity_of(FixtureRank(10**9), mementos=5)
        assert evidence.global_rank == RANK_FLOOR_DEFAULT

    def test_count_clamped_to_ceiling(self, monkeypatch):
        monkeypatch.setattr(archives, "ARCHIVE_COUNT_CEILING_DEFAULT", 3)
        evidence = popularity_of(FixtureRank(1), mementos=5)
        assert evidence.archive_count == 3

    def test_rank_lookup_uses_registered_domain(self):
        class ByDomain:
            def get_rank(self, domain):
                return {"example.co.uk": 7}.get(domain)

        evidence = popularity_of(ByDomain(), mementos=1, uri="http://deep.shop.example.co.uk/page")
        assert evidence.global_rank == 7

    def test_damage_default_when_missing(self):
        evidence = fetch_damage(None, "https://a/web/x")
        assert evidence.damage == 0.5
        assert evidence.source is DamageSource.DEFAULT_MISSING

    def test_damage_validation(self):
        with pytest.raises(ValueError):
            DamageEvidence(damage=1.5, source=DamageSource.PROVIDER)
        with pytest.raises(ValueError):
            PopularityEvidence(global_rank=0)


class FixtureRank:
    def __init__(self, rank):
        self.rank = rank

    def get_rank(self, domain):
        return self.rank


def as_is(value):
    """A cache decoder that keeps a raw value as it stands."""
    return value


class TestOtherProvidersLines:
    """A cache file may hold lines that another provider wrote. The
    service never reads them: for a key that both hold, the gateway's line
    answers, whichever comes first; a key that only the other provider
    holds is fetched; and neither line counts as corrupt."""

    URI, OTHER_URI = "http://a.example.com", "http://b.example.com"

    @pytest.mark.parametrize("other_first", [True, False], ids=["other-first", "other-last"])
    def test_gateway_lines_alone_answer(self, tmp_path, caplog, other_first):
        gateway = ArchiveEvidence(self.URI, ((dt("20140110080000"), "http://m/1"),))
        other = ArchiveEvidence(self.URI, ((dt("20120101000000"), "http://m/0"),))

        def line(provider, uri, evidence):
            record = {"provider": provider, "kind": "timemap", "surt": canonicalize_surt(uri),
                      "fetched_at": 1.0, "value": evidence.to_json_dict()}
            return json.dumps(record) + "\n"

        others = [line("other", self.URI, other), line("other", self.OTHER_URI, other)]
        mine = [line("gateway", self.URI, gateway)]
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(others + mine if other_first else mine + others), "utf-8")
        source = MapSource(SINGLE_PAGE)
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            service = EvidenceService(source, cache=EvidenceCache(path))
            served = evidence_for(service, self.URI, dt("20140301000000"))
            assert served.archive == gateway and source.calls == 0
            fetched = evidence_for(service, self.OTHER_URI, dt("20140301000000"))
        assert fetched.archive.mementos != other.mementos and source.calls == 1
        assert not caplog.records


class TestEvidenceCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        cache.put("timemap", "com,example)/", {"n": 1}, {"n": 1})
        assert cache.get("timemap", "com,example)/", as_is) == {"n": 1}
        assert cache.get("timemap", "com,other)/", as_is) is None

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvidenceCache(path).put("damage", "key", {"damage": 0.1}, {"damage": 0.1})
        again = EvidenceCache(path)
        assert again.get("damage", "key", as_is) == {"damage": 0.1}

    def test_later_records_supersede(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        cache.put("k", "s", {"v": 1}, {"v": 1})
        cache.put("k", "s", {"v": 2}, {"v": 2})
        assert EvidenceCache(path).get("k", "s", as_is) == {"v": 2}

    def test_max_age_expiry(self, tmp_path):
        now = [1000.0]
        cache = EvidenceCache(tmp_path / "cache.jsonl", max_age=60, clock=lambda: now[0])
        cache.put("k", "s", {"v": 1}, {"v": 1})
        assert cache.get("k", "s", as_is) == {"v": 1}
        now[0] += 61
        assert cache.get("k", "s", as_is) is None

    def test_thread_safety_smoke(self, tmp_path):
        cache = EvidenceCache(tmp_path / "cache.jsonl")

        def worker(i):
            for j in range(20):
                cache.put("k", f"s{i}-{j}", {"v": j}, {"v": j})

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = (tmp_path / "cache.jsonl").read_text().splitlines()
        assert len(lines) == 80

    def test_corrupt_lines_skipped_with_one_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        cache.put("timemap", "a", {"v": 1}, {"v": 1})
        cache.put("timemap", "b", {"v": 2}, {"v": 2})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"provider": "gateway", "kind": "timemap"}\n[1, 2]\n')
        path.write_bytes(path.read_bytes() + path.read_bytes()[:40])  # torn copy of line 1
        with caplog.at_level("WARNING", logger="archive_recommender"):
            again = EvidenceCache(path)
        assert again.get("timemap", "a", as_is) == {"v": 1}
        assert again.get("timemap", "b", as_is) == {"v": 2}
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {path}: skipped 3 corrupt line(s)"
        ]

    def test_non_numeric_fetched_at_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"provider":"gateway","kind":"timemap","surt":"x","fetched_at":"soon","value":{}}\n'
            '{"provider":"gateway","kind":"timemap","surt":"y","fetched_at":true,"value":{}}\n'
        )
        with caplog.at_level("WARNING", logger="archive_recommender"):
            cache = EvidenceCache(path, max_age=60)
        assert cache.get("timemap", "x", as_is) is None
        assert cache.get("timemap", "y", as_is) is None
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {path}: skipped 2 corrupt line(s)"
        ]

    def test_non_finite_fetched_at_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        stamps = ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400]
        path.write_text(
            "".join(
                f'{{"provider":"gateway","kind":"timemap","surt":"{i}",'
                f'"fetched_at":{stamp},"value":{{"v":{i}}}}}\n'
                for i, stamp in enumerate(stamps)
            )
            + '{"provider":"gateway","kind":"timemap","surt":"ok","fetched_at":1e12,"value":{}}\n'
        )
        with caplog.at_level("WARNING", logger="archive_recommender"):
            cache = EvidenceCache(path, max_age=60, clock=lambda: 1e12)
        for i in range(len(stamps)):
            assert cache.get("timemap", str(i), as_is) is None
        assert cache.get("timemap", "ok", as_is) == {}
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {path}: skipped {len(stamps)} corrupt line(s)"
        ]

    def test_non_utf8_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        cache.put("timemap", "a", {"v": 1}, {"v": 1})
        cache.close()
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe garbage\n")
            handle.write(b'{"provider":"gateway","kind":"timemap","surt":"\xc3","fetched_at":1,"value":{}}\n')
        with caplog.at_level("WARNING", logger="archive_recommender"):
            again = EvidenceCache(path)
        assert again.get("timemap", "a", as_is) == {"v": 1}
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {path}: skipped 2 corrupt line(s)"
        ]

    def test_line_nested_past_the_decoder_limit_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            "[" * 5000 + "\n"
            '{"provider":"gateway","kind":"timemap","surt":"ok","fetched_at":1,"value":{"v":1}}\n'
        )
        with caplog.at_level("WARNING", logger="archive_recommender"):
            cache = EvidenceCache(path)
        assert cache.get("timemap", "ok", as_is) == {"v": 1}
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {path}: skipped 1 corrupt line(s)"
        ]

    def test_unwritable_path_fails_on_first_put(self, tmp_path):
        cache = EvidenceCache(tmp_path / "absent" / "cache.jsonl")
        with pytest.raises(FileNotFoundError):
            cache.put("k", "s", {"v": 1}, {"v": 1})
        with pytest.raises(FileNotFoundError):
            cache.put("k", "s", {"v": 1}, {"v": 1})

    def test_one_handle_appends_every_line(self, tmp_path, archive_opens):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        for i in range(3):
            cache.put("k", f"s{i}", {"v": i}, {"v": i})
            assert len(path.read_text("utf-8").splitlines()) == i + 1  # flushed per line
        assert len(archive_opens) == 1

    def test_close_is_idempotent(self, tmp_path, archive_opens):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        cache.close()  # nothing open yet
        cache.put("k", "s", {"v": 1}, {"v": 1})
        cache.close()
        cache.close()
        assert [handle.closed for handle in archive_opens] == [True]
        cache.put("k", "t", {"v": 2}, {"v": 2})  # opens the file again
        cache.close()
        assert [handle.closed for handle in archive_opens] == [True, True]
        assert len((tmp_path / "cache.jsonl").read_text("utf-8").splitlines()) == 2

    def test_with_block_closes_the_handle(self, tmp_path, archive_opens):
        with EvidenceCache(tmp_path / "cache.jsonl") as cache:
            cache.put("k", "s", {"v": 1}, {"v": 1})
            assert not archive_opens[0].closed
        assert archive_opens[0].closed

    def test_dropped_cache_releases_its_file(self, tmp_path, archive_opens):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        cache.put("k", "s", {"v": 1}, {"v": 1})
        dropped = weakref.ref(cache)
        del cache
        gc.collect()
        assert dropped() is None  # the finalizer does not keep the cache alive
        assert archive_opens[0].closed


# Text that JSON writes escaped: quotes, backslashes, control characters,
# non-ASCII characters and lone surrogates.
LINE_TEXT = st.one_of(
    st.sampled_from(['http://a/"q"', "http://a/\\b", "http://a/\x00\x1f\x7f", "http://é.example/☃", "\ud800x\udfff"]),
    st.text(st.characters(blacklist_categories=()), max_size=12),
)


@st.composite
def codec_values(draw):
    """A kind and a value of it as a fetch returns it."""
    kind = draw(st.sampled_from(sorted(archives._CODECS)))
    if kind == "timemap":
        stamps = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31), timezones=st.just(UTC))
        mementos = draw(st.lists(st.tuples(stamps.map(lambda when: when.replace(microsecond=0)), LINE_TEXT), max_size=3))
        value = ArchiveEvidence(uri=draw(LINE_TEXT), mementos=tuple(sorted(mementos)), truncated=draw(st.booleans()))
    elif kind == "popularity":
        value = (draw(st.one_of(st.none(), st.integers(1, RANK_FLOOR_DEFAULT), st.integers())),)
    else:
        value = DamageEvidence(damage=draw(st.floats(0, 1)), source=draw(st.sampled_from(list(DamageSource))))
    return kind, value


class TestCacheLineBytes:
    @given(codec_value=codec_values(), surt=LINE_TEXT, fetched_at=st.floats())
    @example(codec_value=("damage", DamageEvidence(damage=5e-324, source=DamageSource.FIXTURE)), surt="s", fetched_at=1.7976931348623157e308)
    @example(codec_value=("popularity", (None,)), surt='a"\\\ud800', fetched_at=-0.0)
    @example(codec_value=("popularity", (7,)), surt="x", fetched_at=float("nan"))
    def test_line_is_json_dumps(self, tmp_path_factory, codec_value, surt, fetched_at):
        """Every codec's cache line is the bytes of ``json.dumps(record,
        sort_keys=True)`` and a newline."""
        kind, value = codec_value
        encoded = archives._CODECS[kind][1](value)
        path = tmp_path_factory.mktemp("cache", numbered=True) / "cache.jsonl"
        with EvidenceCache(path, clock=lambda: fetched_at) as cache:
            cache.put(kind, surt, encoded, value)
        record = {"provider": "gateway", "kind": kind, "surt": surt, "fetched_at": fetched_at, "value": encoded}
        assert path.read_bytes() == (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


    @given(pages=timemap_page_chains())
    @example(pages=chained_pages([[("Mon, 01 Jan 0999 00:00:00 GMT", 1), ("Mon, 01 Jan 0050 00:00:00 EST", 2)]]))
    @example(pages=chained_pages([[("Sun, 31 Dec 9998 23:59:59 -0500", 1), ("Sat, 01 Mar 2014 00:00:00 GMT", 0)]]))
    def test_released_texts_write_the_same_line(self, tmp_path_factory, pages):
        """A fetched TimeMap writes the same line with its texts and after
        an earlier line released them: the bytes of ``json.dumps``."""
        source = MapSource(pages[0], pages={f"https://agg/page{i}": page for i, page in enumerate(pages)})
        evidence = fetch_timemap(source, "http://x/")
        assert evidence._texts is not None
        record = {"provider": "gateway", "kind": "timemap", "surt": "s", "fetched_at": 1.0,
                  "value": evidence.to_json_dict()}
        expected = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        for _ in range(2):  # the first line releases the texts
            path = tmp_path_factory.mktemp("cache", numbered=True) / "cache.jsonl"
            with EvidenceCache(path, clock=lambda: 1.0) as cache:
                cache.put("timemap", "s", archives._CODECS["timemap"][1](evidence), evidence)
            assert evidence._texts is None
            assert path.read_bytes() == expected


class ExplodingSource:
    def get_timemap(self, uri):
        raise AssertionError("should have come from cache")

    def get_page(self, page_uri):
        raise AssertionError("should have come from cache")


def record_executors(monkeypatch):
    """Weak references to every executor the evidence service creates."""
    made = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(archives, "ThreadPoolExecutor", Recording)
    return made


class TestEvidenceService:
    def build(self, fixtures_dir, pooled=False, **kwargs) -> EvidenceService:
        """A service over the fixtures; ``pooled`` wraps the TimeMap source
        in a plain class, so the service pools as ``parallelism`` asks."""
        source = FixtureArchiveSource(fixtures_dir / "timemaps")
        return EvidenceService(
            ForeignSource(source) if pooled else source,
            FixturePopularityProvider(fixtures_dir / "popularity.tsv"),
            FixtureDamageProvider(fixtures_dir / "damage.tsv"),
            **kwargs,
        )

    def test_full_evidence_for_archived_uri(self, fixtures_dir):
        service = self.build(fixtures_dir)
        result = evidence_for(service, "http://cs.odu.edu", dt("20140301000000"))
        assert result.error is None
        assert result.archive.archived
        _, nearest_uri = nearest_memento(result.archive, dt("20140301000000"))
        assert "20140226090846" in nearest_uri
        assert result.popularity.global_rank == 28455
        assert result.damage.damage == pytest.approx(0.13)
        assert result.damage.source is DamageSource.FIXTURE

    def test_unarchived_uri_short_circuits(self, fixtures_dir):
        service = self.build(fixtures_dir)
        result = evidence_for(
            service,
            "http://radford.edu/content/csat/home/itec.html", dt("20140301000000")
        )
        assert not result.archive.archived
        assert result.popularity is None and result.damage is None
        assert result.error is None

    def test_uri_too_long_for_a_file_name_is_not_archived(self, fixtures_dir):
        service = self.build(fixtures_dir)
        uri = "http://x.example/" + "a" * 300
        result = evidence_for(service, uri, dt("20140301000000"))
        assert not result.archive.archived
        assert result.popularity is None and result.damage is None
        assert result.error is None

    def test_gather_preserves_input_order(self, fixtures_dir, monkeypatch):
        made = record_executors(monkeypatch)
        service = self.build(fixtures_dir, pooled=True, parallelism=4)
        uris = ["http://cs.vt.edu", "http://cs.gmu.edu", "http://cs.odu.edu"]
        results = service.gather(keyed(uris), dt("20140301000000"))
        assert [r.uri for r in results] == uris
        assert len(made) == 1

    def fixture_uris(self, fixtures_dir):
        return [unquote(path.name[: -len(".link")]) for path in sorted((fixtures_dir / "timemaps").glob("*.link"))]

    def test_gather_reuses_one_pool(self, fixtures_dir, monkeypatch):
        made = record_executors(monkeypatch)
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        serial = self.build(fixtures_dir, parallelism=1).gather(keyed(uris), requested)
        assert not made
        service = self.build(fixtures_dir, pooled=True, parallelism=4)
        assert service.gather(keyed(uris), requested) == serial
        assert service.gather(keyed(uris), requested) == serial
        assert len(made) == 1
        del service
        gc.collect()
        assert made[0]() is None  # its idle workers are told to exit

    def test_threads_sharing_a_service_get_serial_results(self, fixtures_dir, monkeypatch):
        made = record_executors(monkeypatch)
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        serial = self.build(fixtures_dir, parallelism=1).gather(keyed(uris), requested)
        service = self.build(fixtures_dir, pooled=True, parallelism=4)
        start = threading.Barrier(4)
        results = [None] * 4

        def worker(i):
            start.wait()
            results[i] = [service.gather(keyed(uris), requested) for _ in range(5)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[serial] * 5] * 4
        assert len(made) == 1

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_fixture_sources_are_read_serially(self, fixtures_dir, monkeypatch, parallelism):
        """Over the package's fixture classes, or no provider at all, the
        service reads serially whatever ``parallelism`` asks."""
        made = record_executors(monkeypatch)
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        services = [
            self.build(fixtures_dir, parallelism=parallelism),
            EvidenceService(FixtureArchiveSource(fixtures_dir / "timemaps"), parallelism=parallelism),
        ]
        for service in services:
            assert service.parallelism == 1
            assert [r.uri for r in service.gather(keyed(uris), requested)] == uris
        assert not made

    class SubclassedSource(FixtureArchiveSource):
        """A caller's own class, though it reads as a fixture source does."""

    @pytest.mark.parametrize("foreign", ["archive", "subclass", "popularity", "damage"])
    def test_any_other_source_gets_the_pool(self, fixtures_dir, monkeypatch, foreign):
        made = record_executors(monkeypatch)
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        sources = [
            FixtureArchiveSource(fixtures_dir / "timemaps"),
            FixturePopularityProvider(fixtures_dir / "popularity.tsv"),
            FixtureDamageProvider(fixtures_dir / "damage.tsv"),
        ]
        if foreign == "archive":
            sources[0] = ForeignSource(sources[0])
        elif foreign == "subclass":
            sources[0] = self.SubclassedSource(fixtures_dir / "timemaps")
        elif foreign == "popularity":
            sources[1] = FixtureRank(28455)
        else:
            sources[2] = FixedDamage(0.25)
        serial = EvidenceService(*sources, parallelism=1).gather(keyed(uris), requested)
        service = EvidenceService(*sources, parallelism=3)
        assert service.parallelism == 3
        assert service.gather(keyed(uris), requested) == serial
        assert len(made) == 1

    def test_gather_of_nothing_starts_no_pool(self, fixtures_dir, monkeypatch):
        made = record_executors(monkeypatch)
        service = self.build(fixtures_dir, pooled=True, parallelism=4)
        assert service.gather([], dt("20140301000000")) == []
        assert not made

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_parallelism_below_one_gathers_serially(self, fixtures_dir, monkeypatch, parallelism):
        made = record_executors(monkeypatch)
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        serial = self.build(fixtures_dir, pooled=True, parallelism=1).gather(keyed(uris), requested)
        service = self.build(fixtures_dir, pooled=True, parallelism=parallelism)
        assert service.gather(keyed(uris), requested) == serial
        assert [r.uri for r in serial] == uris
        assert service._executor is None and not made

    @pytest.mark.parametrize("kind", ["popularity", "damage"])
    def test_failed_lookup_drops_only_its_candidate(self, fixtures_dir, tmp_path, kind):
        """A popularity or damage lookup that fails leaves its candidate
        with the error, as a failed TimeMap does, and caches nothing for
        the kind that failed; the other candidates are unaffected."""
        failing = FailingProvider(f"{kind} service returned 503")
        path = tmp_path / "cache.jsonl"
        service = EvidenceService(
            FixtureArchiveSource(fixtures_dir / "timemaps"),
            failing if kind == "popularity" else FixturePopularityProvider(fixtures_dir / "popularity.tsv"),
            failing if kind == "damage" else FixtureDamageProvider(fixtures_dir / "damage.tsv"),
            cache=EvidenceCache(path),
        )
        uris = ["http://cs.odu.edu", "http://radford.edu/content/csat/home/itec.html"]
        archived, unarchived = service.gather(keyed(uris), dt("20140301000000"))
        assert archived.error == f"{kind} service returned 503"
        assert archived.archive == ArchiveEvidence(uri="http://cs.odu.edu", mementos=())
        assert archived.memento is None and archived.popularity is None and archived.damage is None
        assert unarchived.error is None and not unarchived.archive.archived
        kinds = sorted(key[1] for key, _ in cache_lines(path))
        assert kind not in kinds
        assert kinds == (["timemap", "timemap"] if kind == "popularity" else ["popularity", "timemap", "timemap"])

    def test_pool_overlaps_fetches(self):
        class MeetingSource:
            """Each map's fetch waits until a second fetch is under way too,
            so a serial gather would break the barrier."""

            def __init__(self, barrier):
                self.barrier = barrier

            def get_timemap(self, uri):
                if self.barrier is not None:
                    self.barrier.wait()
                n = int(uri.rsplit("/", 1)[1])
                return (
                    f'<https://a/web/{n}/{uri}>; rel="memento"; '
                    f'datetime="{format_datetime(datetime(2014, 1, 1 + n, tzinfo=UTC), usegmt=True)}"'
                )

            def get_page(self, page_uri):
                return None

        requested, uris = dt("20140301000000"), [f"http://x.example/{n}" for n in (3, 0, 2, 1)]
        serial = EvidenceService(MeetingSource(None), parallelism=1).gather(keyed(uris), requested)
        service = EvidenceService(MeetingSource(threading.Barrier(2, timeout=5)), parallelism=4)
        results = service.gather(keyed(uris), requested)
        assert [r.uri for r in results] == uris
        assert all(r.error is None and r.archive.archived for r in results)
        assert results == serial

    def test_retry_then_success(self):
        source = MapSource(SINGLE_PAGE, fail_times=1)
        service = EvidenceService(source, retries=1)
        result = evidence_for(service, "http://a.example.com", dt("20140301000000"))
        assert result.error is None
        assert source.calls == 2

    def test_retries_exhausted_reports_error(self):
        source = MapSource(SINGLE_PAGE, fail_times=3)
        service = EvidenceService(source, retries=1)
        result = evidence_for(service, "http://a.example.com", dt("20140301000000"))
        assert result.error and "502" in result.error
        assert not result.archive.archived

    @pytest.mark.parametrize("retries", [0, -1])
    def test_no_retry_below_one(self, retries):
        source = MapSource(SINGLE_PAGE, fail_times=1)
        result = evidence_for(EvidenceService(source, retries=retries), "http://a.example.com", dt("20140301000000"))
        assert result.error and "502" in result.error
        assert source.calls == 1

    def test_evidence_held_by_the_cache_keeps_no_texts(self, fixtures_dir, tmp_path):
        service = self.build(fixtures_dir)
        fetched = evidence_for(service, "http://cs.gmu.edu", dt("20140301000000")).archive
        assert fetched.archived and fetched._texts is not None  # no cache: no line, no release
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        result = evidence_for(self.build(fixtures_dir, cache=cache), "http://cs.gmu.edu", dt("20140301000000"))
        held = cache._entries[("timemap", canonicalize_surt("http://cs.gmu.edu"))][1]
        assert held is result.archive and held == fetched
        assert held._texts is None
        assert held.to_json_dict() == fetched.to_json_dict()

    def test_cache_avoids_refetch(self, fixtures_dir, tmp_path):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        service = self.build(fixtures_dir, cache=cache)
        first = evidence_for(service, "http://cs.gmu.edu", dt("20140301000000"))
        cached_service = EvidenceService(ExplodingSource(), cache=cache)
        second = evidence_for(cached_service, "http://cs.gmu.edu", dt("20140301000000"))
        assert second.archive.mementos == first.archive.mementos

    @pytest.mark.parametrize(
        "kind, value",
        [
            (
                "timemap",
                {"uri": "http://cs.gmu.edu", "mementos": [["soon", "https://a/m"]], "truncated": False},
            ),
            ("timemap", {"uri": "x"}),
            ("timemap", [[1, "m"]]),
            ("damage", {"damage": "x"}),
            ("damage", {}),
            ("damage", []),
            ("damage", {"damage": 2.0, "source": "fixture"}),
            ("damage", {"damage": 0.1, "source": "bogus"}),
            ("popularity", {"rank": "x"}),
            ("popularity", [1]),
            ("popularity", {"rank": float("inf")}),
            # Values of a type that a fetch never writes, which each decoder
            # once read as something else.
            ("popularity", {"rank": True}),
            ("popularity", {"rank": "5"}),
            ("damage", {"damage": True, "source": "fixture"}),
            (
                "timemap",
                {"uri": "http://cs.gmu.edu", "mementos": [["2014-01-01T00:00:00Z", 12345]], "truncated": False},
            ),
            (
                "timemap",
                {"uri": "http://cs.gmu.edu", "mementos": [["2014-01-01T00:00:00Z", "https://a/m"]], "truncated": "yes"},
            ),
            ("timemap", {"uri": 7, "mementos": [["2014-01-01T00:00:00Z", "https://a/m"]], "truncated": False}),
            ("timemap", {"uri": "http://cs.gmu.edu", "mementos": {}, "truncated": False}),
        ],
        ids=[
            "bad-datetime", "no-mementos", "not-a-dict",
            "damage-not-a-number", "damage-empty", "damage-a-list", "damage-above-one",
            "damage-unknown-source", "rank-not-a-number", "rank-a-list", "rank-infinite",
            "rank-true", "rank-a-string", "damage-true",
            "memento-uri-a-number", "truncated-not-a-boolean", "uri-not-a-string", "mementos-not-a-list",
        ],
    )
    def test_undecodable_cached_timemap_is_refetched(
        self, fixtures_dir, tmp_path, caplog, kind, value
    ):
        """A cached value of any kind that does not decode is refetched, with
        one warning and one superseding line."""
        requested = dt("20140301000000")
        expected = evidence_for(self.build(fixtures_dir), "http://cs.gmu.edu", requested)
        labels = {"timemap": "TimeMap", "popularity": "popularity", "damage": "damage"}
        surt = "edu,gmu,cs)/"
        if kind == "damage":
            surt = canonicalize_surt(nearest_memento(expected.archive, requested)[1])
        path = tmp_path / "cache.jsonl"
        evidence_for(self.build(fixtures_dir, cache=EvidenceCache(path)), "http://cs.gmu.edu", requested)
        fetched = EvidenceCache(path).get(kind, surt, as_is)
        EvidenceCache(path).put(kind, surt, value, value)
        written = len(path.read_text("utf-8").splitlines())
        cache = EvidenceCache(path)
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            result = evidence_for(self.build(fixtures_dir, cache=cache), "http://cs.gmu.edu", requested)
        assert result == expected
        assert len(caplog.records) == 1
        assert caplog.records[0].name == "archive_recommender.archives"
        assert f"refetching undecodable {labels[kind]} for {surt}" in caplog.records[0].getMessage()
        assert len(path.read_text("utf-8").splitlines()) == written + 1
        assert EvidenceCache(path).get(kind, surt, as_is) == fetched

    @pytest.mark.parametrize(
        "value, rank", [({}, None), ({"rank": None}, None), ({"rank": 5}, 5), ({"rank": 2.7}, 2)]
    )
    def test_cached_popularity_decodes_as_before(self, tmp_path, caplog, value, rank):
        uri, requested = "http://a.example.com", dt("20140301000000")
        path = tmp_path / "cache.jsonl"
        evidence_for(EvidenceService(MapSource(SINGLE_PAGE), cache=EvidenceCache(path)), uri, requested)
        EvidenceCache(path).put("popularity", canonicalize_surt(uri), value, value)
        written = path.read_text("utf-8")
        warm_service = EvidenceService(ExplodingSource(), cache=EvidenceCache(path))
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            result = evidence_for(warm_service, uri, requested)
        assert result.popularity.global_rank == rank
        assert not caplog.records
        assert path.read_text("utf-8") == written

    def test_year_999_memento_cached_once(self, tmp_path, caplog):
        page = '<https://a/m>; rel="memento"; datetime="Fri, 01 Jan 0999 00:00:00 GMT"'
        uri, requested = "http://a.example.com", dt("20140301000000")
        path = tmp_path / "cache.jsonl"
        cold = evidence_for(EvidenceService(MapSource(page), cache=EvidenceCache(path)), uri, requested)
        written = path.read_text("utf-8")
        assert '"0999-01-01T00:00:00Z"' in written
        warm_service = EvidenceService(ExplodingSource(), cache=EvidenceCache(path))
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            warm = evidence_for(warm_service, uri, requested)
        assert warm == cold
        assert not caplog.records
        assert path.read_text("utf-8") == written

    def test_year_999_memento_served_without_cache(self):
        page = '<https://a/m>; rel="memento"; datetime="Fri, 01 Jan 0999 00:00:00 GMT"'
        result = evidence_for(EvidenceService(MapSource(page)), "http://a.example.com", dt("20140301000000"))
        assert result.error is None
        assert result.archive.mementos == ((datetime(999, 1, 1, tzinfo=UTC), "https://a/m"),)

    def test_every_fixture_timemap_same_with_and_without_cache(self, fixtures_dir, tmp_path):
        requested = dt("20140301000000")
        paths = sorted((fixtures_dir / "timemaps").glob("*.link"))
        assert paths
        for path in paths:
            uri = unquote(path.name[: -len(".link")])
            plain = evidence_for(self.build(fixtures_dir), uri, requested)
            cache_path = tmp_path / f"{path.stem}.jsonl"
            cold = evidence_for(self.build(fixtures_dir, cache=EvidenceCache(cache_path)), uri, requested)
            warm_service = EvidenceService(ExplodingSource(), cache=EvidenceCache(cache_path))
            warm = evidence_for(warm_service, uri, requested)
            assert plain.archive.archived, uri
            assert cold == plain, uri
            assert warm == plain, uri

    def test_damage_defaults_when_provider_lacks_memento(self, fixtures_dir):
        service = self.build(fixtures_dir)
        result = evidence_for(
            service,
            "http://hollins.edu/academics/computersci", dt("20140301000000")
        )
        assert result.damage.source is DamageSource.DEFAULT_MISSING
        assert result.damage.damage == 0.5

    def test_threads_sharing_a_cache_write_one_line_per_key(self, fixtures_dir, tmp_path):
        """Four threads share one service and one cache file. Each gathers
        its own slice of the fixture URIs, whose cache keys no other slice
        has, so no two threads miss on one key (both would fetch and append,
        as they always have). The second page of cs.odu.edu's TimeMap is
        left out: as a candidate it has cs.odu.edu's nearest memento, and so
        its damage key."""
        requested = dt("20140301000000")
        uris = [uri for uri in self.fixture_uris(fixtures_dir) if "?page=" not in uri]
        slices = [uris[i::4] for i in range(4)]
        serial = [self.build(fixtures_dir, parallelism=1).gather(keyed(part), requested) for part in slices]
        with EvidenceCache(tmp_path / "serial.jsonl") as serial_cache:
            self.build(fixtures_dir, cache=serial_cache, parallelism=1).gather(keyed(uris), requested)
        expected_keys = {key for key, _ in cache_lines(tmp_path / "serial.jsonl")}
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        service = self.build(fixtures_dir, pooled=True, cache=cache, parallelism=4)
        assert service.parallelism == 4
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def worker(i):
            start.wait()
            results[i] = [service.gather(keyed(slices[i]), requested) for _ in range(5)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        cache.close()
        assert results == [[part] * 5 for part in serial]
        keys = [key for key, _ in cache_lines(path)]  # every line parses as JSON
        assert sorted(keys) == sorted(expected_keys)


def cache_lines(path):
    """((provider, kind, SURT), value) for each line of a cache file."""
    records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    return [((r["provider"], r["kind"], r["surt"]), r["value"]) for r in records]


def count_decodes(monkeypatch):
    """Calls of each kind's cache decoder: ``ArchiveEvidence.from_json_dict``
    for TimeMaps, the codec table's decoder for the other kinds."""
    calls = {"timemap": 0, "popularity": 0, "damage": 0}
    from_json_dict = ArchiveEvidence.from_json_dict.__func__

    def counted_from_json_dict(cls, data):
        calls["timemap"] += 1
        return from_json_dict(cls, data)

    monkeypatch.setattr(ArchiveEvidence, "from_json_dict", classmethod(counted_from_json_dict))
    for kind in ("popularity", "damage"):
        label, encode, decode, *rest = archives._CODECS[kind]

        def counted(value, kind=kind, decode=decode):
            calls[kind] += 1
            return decode(value)

        monkeypatch.setitem(archives._CODECS, kind, (label, encode, counted, *rest))
    return calls


class TestDecodeOnce:
    """A cache entry is decoded at most once: a hit on an entry that ``put``
    wrote, or that an earlier hit decoded, reuses the decoded value."""

    URI = "http://a.example.com"
    REQUESTED = dt("20140301000000")

    def service(self, source, cache, rank=5, **kwargs):
        return EvidenceService(source, FixtureRank(rank), FixedDamage(0.25), cache=cache, **kwargs)

    def test_warm_hits_after_put_decode_nothing(self, tmp_path, monkeypatch):
        calls = count_decodes(monkeypatch)
        source = MapSource(SINGLE_PAGE)
        service = self.service(source, EvidenceCache(tmp_path / "cache.jsonl"))
        cold = evidence_for(service, self.URI, self.REQUESTED)
        warm = [evidence_for(service, self.URI, self.REQUESTED) for _ in range(3)]
        assert warm == [cold] * 3
        assert all(w.archive is cold.archive and w.damage is cold.damage for w in warm)
        assert source.calls == 1
        assert calls == {"timemap": 0, "popularity": 0, "damage": 0}

    def test_loaded_entry_decodes_once_over_three_hits(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cold = evidence_for(self.service(MapSource(SINGLE_PAGE), EvidenceCache(path)), self.URI, self.REQUESTED)
        calls = count_decodes(monkeypatch)
        warm_service = self.service(ExplodingSource(), EvidenceCache(path))
        warm = [evidence_for(warm_service, self.URI, self.REQUESTED) for _ in range(3)]
        assert warm == [cold] * 3
        assert warm[2].archive is warm[0].archive and warm[2].damage is warm[0].damage
        assert calls == {"timemap": 1, "popularity": 1, "damage": 1}

    def test_superseding_put_serves_the_new_value(self, tmp_path, monkeypatch):
        calls = count_decodes(monkeypatch)
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        service = self.service(MapSource(SINGLE_PAGE), cache)
        evidence_for(service, self.URI, self.REQUESTED)
        evidence_for(service, self.URI, self.REQUESTED)
        newer = fetch_timemap(MapSource(timemap_with(3)), self.URI)
        cache.put("timemap", canonicalize_surt(self.URI), newer.to_json_dict(), newer)
        assert evidence_for(service, self.URI, self.REQUESTED).archive is newer
        assert calls["timemap"] == 0

    def test_each_hit_is_one_get(self, tmp_path, monkeypatch):
        """A warm candidate takes one ``get`` per kind and nothing else of
        the cache: the lookup hands back the decoded value itself."""
        path = tmp_path / "cache.jsonl"
        cold = evidence_for(self.service(MapSource(SINGLE_PAGE), EvidenceCache(path)), self.URI, self.REQUESTED)
        cache = EvidenceCache(path)
        calls = []
        for name in ("get", "put"):
            method = getattr(EvidenceCache, name)
            monkeypatch.setattr(
                EvidenceCache, name, lambda self, *args, _n=name, _m=method: calls.append(_n) or _m(self, *args)
            )
        warm_service = self.service(ExplodingSource(), cache)
        assert [evidence_for(warm_service, self.URI, self.REQUESTED) for _ in range(2)] == [cold] * 2
        assert calls == ["get"] * 6

    def test_get_decodes_a_loaded_line_once(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvidenceCache(path).put("k", "s", {"v": 1}, (1,))
        cache = EvidenceCache(path)
        decodes = []

        def decode(raw):
            decodes.append(raw)
            return (raw["v"],)

        assert [cache.get("k", "s", decode) for _ in range(3)] == [(1,)] * 3
        assert decodes == [{"v": 1}]
        assert cache.get("k", "s", as_is) == (1,)  # the raw value is gone
        assert cache.get("k", "other", decode) is None
        with pytest.raises(TypeError):
            cache.get("k", "s")  # no lookup answers without a decoder

    def test_put_keeps_the_decoded_value_alone(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        cache.put("k", "s", {"v": 1}, (1,))
        assert cache.get("k", "s", as_is) == (1,)
        assert EvidenceCache(path).get("k", "s", as_is) == {"v": 1}  # the line is the raw value

    def test_get_keeps_nothing_from_a_decode_that_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvidenceCache(path).put("k", "s", {"v": 1}, (1,))
        cache = EvidenceCache(path)

        def fails(raw):
            raise ValueError("undecodable")

        for _ in range(2):
            with pytest.raises(ValueError, match="undecodable"):
                cache.get("k", "s", fails)
        assert cache.get("k", "s", lambda raw: raw["v"] + 1) == 2

    def test_expired_memoized_entry_is_a_miss(self, tmp_path):
        now = [1000.0]
        path = tmp_path / "cache.jsonl"
        source = MapSource(SINGLE_PAGE)
        service = self.service(source, EvidenceCache(path, max_age=60, clock=lambda: now[0]))
        evidence_for(service, self.URI, self.REQUESTED)
        evidence_for(service, self.URI, self.REQUESTED)  # reads the kept values
        assert source.calls == 1
        now[0] += 61
        evidence_for(service, self.URI, self.REQUESTED)
        assert source.calls == 2
        assert len(path.read_text("utf-8").splitlines()) == 6  # each kind written twice

    def test_undecodable_value_warns_per_refetch_and_is_not_kept(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "cache.jsonl"
        surt = canonicalize_surt(self.URI)
        undecodable = {"uri": self.URI, "mementos": [["soon", "https://a/m"]]}
        EvidenceCache(path).put("timemap", surt, undecodable, undecodable)
        calls = count_decodes(monkeypatch)
        source = MapSource(SINGLE_PAGE, fail_times=2)
        service = self.service(source, EvidenceCache(path), retries=0)
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            failed = [evidence_for(service, self.URI, self.REQUESTED) for _ in range(2)]
            fixed = evidence_for(service, self.URI, self.REQUESTED)  # this refetch supersedes the line
            again = evidence_for(service, self.URI, self.REQUESTED)
        assert [f.error for f in failed] == ["upstream 502"] * 2
        assert fixed.error is None and again == fixed
        assert source.calls == 3
        assert calls["timemap"] == 3
        assert len(caplog.records) == 3
        assert all("refetching undecodable TimeMap" in r.getMessage() for r in caplog.records)

    def test_float_rank_reads_the_same_cold_and_warm(self, tmp_path):
        """A provider that breaks the ``int | None`` protocol: its rank is
        read as an integer when fetched, as a cache line's rank is, so a
        cold request, a warm one and one from the reloaded file agree."""
        path = tmp_path / "cache.jsonl"
        service = self.service(MapSource(SINGLE_PAGE), EvidenceCache(path), rank=5.7)
        cold = evidence_for(service, self.URI, self.REQUESTED).popularity.global_rank
        warm = evidence_for(service, self.URI, self.REQUESTED).popularity.global_rank
        reloaded = self.service(ExplodingSource(), EvidenceCache(path), rank=None)
        assert cold == warm == evidence_for(reloaded, self.URI, self.REQUESTED).popularity.global_rank == 5
        assert '"value": {"rank": 5}' in path.read_text("utf-8")


class TestNetworkClients:
    """The live clients, each over a local server with scripted replies."""

    MEMENTO = "https://web.archive.org/web/20140226090846/http://cs.odu.edu:80/?q=a b"

    def aggregator(self, server, status=200, body="", **headers):
        server.answer(status, body, headers)
        return MemGatorClient(server.url + "/")

    def damage(self, server, status=200, body="", **headers):
        server.answer(status, body, headers)
        return MementoDamageClient(server.url + "/")

    def test_a_client_is_built_without_requests(self, http_server):
        assert sys.modules["requests"] is None  # as the autouse blocker leaves it
        assert self.aggregator(http_server, 404).get_timemap("http://a.example.com/") is None
        assert self.damage(http_server, 404).get_damage(self.MEMENTO) is None

    def test_a_client_opens_http_and_https_alone(self, http_server):
        """No file, ftp or data handler: any other scheme goes to the
        handler that refuses it."""
        aggregator, damage = MemGatorClient("http://agg.example/"), MementoDamageClient("http://damage.example")
        assert (aggregator.base_url, aggregator.timeout) == ("http://agg.example", 10.0)
        assert (damage.base_url, damage.timeout) == ("http://damage.example", 30.0)
        for client in (aggregator, damage):
            assert set(client._opener.handle_open) == {"http", "https", "unknown"}

    def test_timemap_url(self, http_server):
        client = self.aggregator(http_server, 200, SINGLE_PAGE)
        assert client.get_timemap("http://a.example.com/x?y=1") == SINGLE_PAGE
        assert http_server.paths == ["/timemap/link/http://a.example.com/x?y=1"]

    def test_page_uri_passed_through(self, http_server):
        http_server.answer(200, "page two")
        client = MemGatorClient("http://agg.invalid")  # never asked: the page is elsewhere
        assert client.get_page(f"{http_server.url}/timemap/link/2/http://a.example.com/") == "page two"
        assert http_server.paths == ["/timemap/link/2/http://a.example.com/"]

    def test_url_is_escaped_where_http_refuses_it(self, http_server):
        client = self.aggregator(http_server, 200, "page")
        assert client.get_timemap("http://a.example.com/a b/\u00e9?q=%41&r=[1]") == "page"
        assert http_server.paths == ["/timemap/link/http://a.example.com/a%20b/%C3%A9?q=%41&r=[1]"]

    def test_aggregator_404_is_not_archived(self, http_server):
        client = self.aggregator(http_server, 404, "not here")
        assert client.get_timemap("http://a.example.com/") is None
        service = EvidenceService(client)
        result = evidence_for(service, "http://a.example.com/", dt("20140301000000"))
        assert result.error is None and not result.archive.archived

    def test_aggregator_status_is_a_fetch_error(self, http_server):
        client = self.aggregator(http_server, 500, "oops")
        url = f"{http_server.url}/page/2"
        with pytest.raises(ArchiveFetchError) as caught:
            client.get_page(url)
        assert str(caught.value) == f"aggregator returned 500 for {url}"

    def test_a_2xx_other_than_200_is_a_fetch_error(self, http_server):
        client = self.aggregator(http_server, 204)
        with pytest.raises(ArchiveFetchError) as caught:
            client.get_timemap("http://a.example.com/")
        assert str(caught.value) == f"aggregator returned 204 for {http_server.url}/timemap/link/http://a.example.com/"

    def test_redirect_is_followed(self, http_server):
        http_server.answer(200, SINGLE_PAGE, path="/moved")
        http_server.answer(302, headers={"Location": "/moved"}, path="/timemap/link/http://a.example.com/")
        client = MemGatorClient(http_server.url)
        assert client.get_timemap("http://a.example.com/") == SINGLE_PAGE
        assert http_server.paths == ["/timemap/link/http://a.example.com/", "/moved"]

    @pytest.mark.parametrize(
        "target, message",
        [
            ("file:///etc/hostname", "aggregator returned 302 for {url}"),  # refused by the redirect handler
            ("data:,x", "aggregator returned 302 for {url}"),
            ("ftp://127.0.0.1/x", "aggregator request failed: unknown url type: ftp"),
        ],
        ids=["file", "data", "ftp"],
    )
    def test_redirect_off_http_is_not_followed(self, http_server, target, message):
        client = self.aggregator(http_server, 302, Location=target)
        with pytest.raises(ArchiveFetchError) as caught:
            client.get_timemap("http://a.example.com/")
        assert str(caught.value) == message.format(url=f"{http_server.url}/timemap/link/http://a.example.com/")
        assert len(http_server.paths) == 1

    def test_aggregator_transport_failure_is_a_fetch_error(self, http_server):
        client = MemGatorClient(f"http://127.0.0.1:{closed_port()}")
        with pytest.raises(ArchiveFetchError) as caught:
            client.get_timemap("http://a.example.com/")
        assert re.fullmatch(r"aggregator request failed: \[Errno \d+\] Connection refused", str(caught.value))

    def test_read_timeout_is_a_fetch_error(self, http_server):
        with socket.socket() as silent:  # takes connections and never answers
            silent.bind(("127.0.0.1", 0))
            silent.listen(1)
            client = MemGatorClient(f"http://127.0.0.1:{silent.getsockname()[1]}", timeout=0.2)
            with pytest.raises(ArchiveFetchError) as caught:
                client.get_timemap("http://a.example.com/")
        assert str(caught.value) == "aggregator request failed: timed out"

    def test_garbage_status_line_is_a_fetch_error(self, http_server):
        http_server.answer_raw(b"garbage\r\n\r\n")
        with pytest.raises(ArchiveFetchError) as caught:
            MemGatorClient(http_server.url).get_timemap("http://a.example.com/")
        assert str(caught.value) == "aggregator request failed: garbage\r\n"

    @pytest.mark.parametrize(
        "url, detail",
        [
            ("agg.example/x", "'agg.example/x'"),
            ("file:///etc/hostname", "file"),
            ("ftp://127.0.0.1/x", "ftp"),
            ("data:,x", "data"),
        ],
        ids=["no-scheme", "file", "ftp", "data"],
    )
    def test_url_off_http_is_a_fetch_error(self, url, detail):
        with pytest.raises(ArchiveFetchError) as caught:
            MemGatorClient("http://agg.invalid").get_page(url)
        assert str(caught.value) == f"aggregator request failed: unknown url type: {detail}"

    def test_next_link_to_a_local_file_is_never_read(self, http_server, tmp_path):
        secret = tmp_path / "secret.link"
        secret.write_text('<http://secret.example/>; rel="memento"; datetime="Fri, 10 Jan 2014 08:00:00 GMT"\n')
        page = SINGLE_PAGE.rstrip("\n") + f',\n<{secret.as_uri()}>; rel="next"\n'
        client = self.aggregator(http_server, 200, page)
        with pytest.raises(ArchiveFetchError) as caught:
            fetch_timemap(client, "http://a.example.com/")
        assert str(caught.value) == "aggregator request failed: unknown url type: file"
        result = evidence_for(EvidenceService(client), "http://a.example.com/", dt("20140301000000"))
        assert result.error == str(caught.value) and not result.archive.archived

    @pytest.mark.parametrize(
        "body, content_type",
        [
            ("caf\u00e9".encode("latin-1"), "application/link-format; charset=iso-8859-1"),
            ("caf\u00e9".encode("utf-8"), "text/plain"),
        ],
        ids=["declared-latin-1", "undeclared-utf8"],
    )
    def test_body_is_decoded_by_its_charset_or_else_utf8(self, http_server, body, content_type):
        client = self.aggregator(http_server, 200, body, **{"Content-Type": content_type})
        assert client.get_timemap("http://a.example.com/") == "caf\u00e9"

    @pytest.mark.parametrize(
        "body, content_type, message",
        [
            (b"caf\xe9", "text/plain", "'utf-8' codec can't decode byte 0xe9 in position 3"),
            (b"page", "text/plain; charset=x-no-such-charset", "unknown encoding: x-no-such-charset"),
        ],
        ids=["undeclared-not-utf8", "unknown-charset"],
    )
    def test_body_that_does_not_decode_is_a_fetch_error(self, http_server, body, content_type, message):
        client = self.aggregator(http_server, 200, body, **{"Content-Type": content_type})
        with pytest.raises(ArchiveFetchError) as caught:
            client.get_timemap("http://a.example.com/")
        assert str(caught.value).startswith(f"aggregator request failed: {message}")

    def test_damage_url_quotes_the_memento(self, http_server):
        client = self.damage(http_server, 200, '{"total_damage": 0.25}')
        assert client.get_damage(self.MEMENTO) == 0.25
        assert http_server.paths == [f"/api/damage/{quote(self.MEMENTO, safe='')}"]
        assert "/" not in http_server.paths[0].rsplit("/api/damage/", 1)[1]

    @pytest.mark.parametrize(
        "status, body, damage",
        [
            (404, "", None),
            (200, '{"total_damage": null}', None),
            (200, '{"score": 0.3}', None),
            (200, '{"total_damage": 0}', 0.0),
            (200, '{"total_damage": 1.7}', 1.0),
            (200, '{"total_damage": -0.2}', 0.0),
        ],
        ids=["404", "null", "absent", "zero", "above-one", "below-zero"],
    )
    def test_damage_reply(self, http_server, status, body, damage):
        client = self.damage(http_server, status, body)
        assert client.get_damage(self.MEMENTO) == damage

    @pytest.mark.parametrize(
        "status, body, message",
        [
            (503, "", "damage service returned 503"),
            (None, "", "damage request failed: [Errno "),
            (200, "<html>", "damage service reply is not JSON: Expecting value: line 1 column 1 (char 0)"),
            (200, "[1]", "damage service reply is not a JSON object"),
            (200, '"0.5"', "damage service reply is not a JSON object"),
            (200, '{"total_damage": "x"}', "damage service sent total_damage 'x', not a finite number"),
            (200, '{"total_damage": [0.5]}', "damage service sent total_damage [0.5], not a finite number"),
            (200, '{"total_damage": NaN}', "damage service sent total_damage nan, not a finite number"),
            (200, '{"total_damage": -Infinity}', "damage service sent total_damage -inf, not a finite number"),
            (200, '{"total_damage": 1e999}', "damage service sent total_damage inf, not a finite number"),
            (200, '{"total_damage": "nan"}', "damage service sent total_damage 'nan', not a finite number"),
            (200, '{"total_damage": 1' + "0" * 400 + "}", "damage service sent total_damage 1"),
            (200, '{"total_damage": true}', "damage service sent total_damage True, not a finite number"),
            (200, '{"total_damage": "0.5"}', "damage service sent total_damage '0.5', not a finite number"),
            (200, '{"total_damage": " 1e-1 "}', "damage service sent total_damage ' 1e-1 ', not a finite number"),
        ],
        ids=[
            "status", "transport", "not-json", "a-list", "a-string",
            "damage-a-string", "damage-a-list", "damage-nan", "damage-infinite", "damage-overflows",
            "damage-nan-string", "damage-past-float-range", "damage-true", "damage-numeric-string",
            "damage-padded-exponent-string",
        ],
    )
    def test_damage_failure_is_a_fetch_error(self, http_server, status, body, message):
        if status is None:  # no server at all
            client = MementoDamageClient(f"http://127.0.0.1:{closed_port()}")
        else:
            client = self.damage(http_server, status, body)
        with pytest.raises(ArchiveFetchError) as caught:
            client.get_damage(self.MEMENTO)
        assert str(caught.value).startswith(message)

    def test_malformed_damage_reply_drops_only_its_candidate(self, http_server):
        """Through the service: the candidate is dropped with the reply's
        error, and the request goes on."""
        client = self.damage(http_server, 200, '{"total_damage": "x"}')
        result = evidence_for(EvidenceService(MapSource(SINGLE_PAGE), None, client), "http://a.example.com", dt("20140301000000"))
        assert result.error == "damage service sent total_damage 'x', not a finite number"


class TestRetryOnlyWhatCanChange:
    """The service, with one retry, asks again only after a transport
    failure or a 5xx reply; every other failure is final on the first try."""

    URI = "http://a.example.com/"
    TIMEMAP_PATH = "/timemap/link/http://a.example.com/"

    def evidence(self, source):
        return evidence_for(EvidenceService(source, retries=1), self.URI, dt("20140301000000"))

    @pytest.mark.parametrize(
        "status, requests", [(400, 1), (403, 1), (404, 1), (500, 2), (503, 2)], ids=str
    )
    def test_status(self, http_server, status, requests):
        http_server.answer(status, "no")
        result = self.evidence(MemGatorClient(http_server.url))
        assert http_server.paths == [self.TIMEMAP_PATH] * requests
        if status == 404:
            assert result.error is None and not result.archive.archived
        else:
            assert result.error == f"aggregator returned {status} for {http_server.url}{self.TIMEMAP_PATH}"

    def test_malformed_timemap_is_asked_for_once(self, http_server):
        http_server.answer(200, '<http://a.example.com/m>; rel="memento"; datetime="not a date"\n')
        result = self.evidence(MemGatorClient(http_server.url))
        assert result.error == "bad datetime 'not a date' in TimeMap"
        assert http_server.paths == [self.TIMEMAP_PATH]

    @pytest.mark.parametrize("raw", [b"", b"garbage\r\n\r\n"], ids=["closed-before-reply", "garbage-status-line"])
    def test_transport_failure_is_asked_for_twice(self, http_server, raw):
        http_server.answer_raw(raw)
        result = self.evidence(MemGatorClient(http_server.url))
        assert result.error.startswith("aggregator request failed: ")
        assert http_server.paths == [self.TIMEMAP_PATH] * 2

    def test_file_next_link_is_asked_for_once(self, http_server, tmp_path):
        page = SINGLE_PAGE.rstrip("\n") + f',\n<{(tmp_path / "next.link").as_uri()}>; rel="next"\n'
        http_server.answer(200, page)
        result = self.evidence(MemGatorClient(http_server.url))
        assert result.error == "aggregator request failed: unknown url type: file"
        assert http_server.paths == [self.TIMEMAP_PATH]

    def test_url_without_a_scheme_is_tried_once(self):
        client = MemGatorClient("agg.example")
        asked = []
        original = client._get
        client._get = lambda url: asked.append(url) or original(url)
        result = self.evidence(client)
        assert result.error == f"aggregator request failed: unknown url type: '{asked[0]}'"
        assert asked == ["agg.example/timemap/link/http://a.example.com/"]

    def test_undecodable_fixture_file_is_read_once(self, tmp_path):
        (tmp_path / (quote(self.URI, safe="") + ".link")).write_bytes(b"caf\xe9")
        reads = []

        class CountingSource(ForeignSource):
            def get_timemap(self, uri):
                reads.append(uri)
                return super().get_timemap(uri)

        result = self.evidence(CountingSource(FixtureArchiveSource(tmp_path)))
        assert "bytes that are not UTF-8" in result.error
        assert reads == [self.URI]
