"""Archive evidence: TimeMap parsing and paging, nearest-memento selection,
popularity/damage providers, the JSONL cache, and the evidence service."""

from __future__ import annotations

import gc
import json
import logging
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
    PopularityEvidence,
    RANK_FLOOR_DEFAULT,
    fetch_damage,
    fetch_timemap,
    nearest_memento,
    parse_timemap_links,
)
from archive_recommender.uri import canonicalize_surt

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
            raise ArchiveFetchError("upstream 502")
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
PAGE_READERS = (archives._page_mementos, SPLIT_PARSER)
SINGLE_PAGE_MEMENTO = "https://web.archive.org/web/20140110080000/http://a.example.com/"


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
        when, text = archives._link_time(pairs[0][0])
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
        assert archives._link_time("Mon, 10 Jun 2013 11:22:33 GMT")[0] == datetime(2013, 6, 10, 11, 22, 33, tzinfo=UTC)

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
                archives._link_time(pair[0])
            assert str(raised.value) == "bad datetime 'not a date' in TimeMap"

    def test_year_past_c_int_raises_fetch_error(self):
        for read in PAGE_READERS:
            (pair,), _ = read(
                '<http://a/m>; rel="memento"; datetime="Mon, 01 Jan 99999999999 00:00:00 GMT"'
            )
            with pytest.raises(ArchiveFetchError) as raised:
                archives._link_time(pair[0])
            assert isinstance(raised.value.__cause__, OverflowError)


# The link parser that the page readers replaced, kept as their oracle: the
# one scan into links, with the general split parser as its fallback.
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
        link = archives._SIMPLE_LINK.match(text, pos)
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
PARAM_VALUES = st.one_of(
    st.sampled_from(["memento", "first memento", "Fri, 10 Jan 2014 08:00:00 GMT", "next"]),
    st.text(st.characters(blacklist_characters='"\\', blacklist_categories=("Cs",)), max_size=10),
    st.text(alphabet="ab ,;<>=\t\xa0", max_size=10),
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


ANY_TIMEMAP_TEXT = st.one_of(
    scannable_timemaps(),
    near_miss_timemaps(),
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
    def test_scan_matches_split_parser(self, text):
        assert read_outcome(archives._page_mementos, text) == read_outcome(SPLIT_PARSER, text)

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
            read = archives._page_mementos(text)
        assert split.calls == 0
        assert read == SPLIT_PARSER(text)

    @pytest.mark.parametrize("text", FALLBACK_TRIGGERS.values(), ids=FALLBACK_TRIGGERS.keys())
    def test_fallback_triggers_go_to_split_parser(self, text, monkeypatch):
        split = CountingSplitParser()
        monkeypatch.setattr(archives, "parse_timemap_links", split)
        assert read_outcome(archives._page_mementos, text) == read_outcome(SPLIT_PARSER, text)
        assert split.calls == 1

    def test_fixture_timemaps_take_fast_path(self, fixtures_dir, monkeypatch):
        split = CountingSplitParser()
        monkeypatch.setattr(archives, "parse_timemap_links", split)
        paths = sorted((fixtures_dir / "timemaps").glob("*.link"))
        assert paths
        for path in paths:
            text = path.read_text("utf-8")
            assert archives._page_mementos(text) == SPLIT_PARSER(text), path.name
        assert split.calls == 0


# The parsers that the datetime fast paths replace, kept as their oracles.
def strptime_cache_datetime(text):
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=UTC)


def parsedate_link_datetime(raw):
    parsed = parsedate_to_datetime(raw)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=UTC)
    return parsed.astimezone(UTC)


def cached_memento_datetime(text):
    return ArchiveEvidence.from_json_dict({"uri": "u", "mementos": [[text, "m"]]}).mementos[0][0]


def link_datetime(raw):
    try:
        return archives._link_time(raw)[0]
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


MONTH_NAMES = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


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
    def test_cache_datetime_matches_strptime(self, text):
        assert outcome(cached_memento_datetime, text) == outcome(strptime_cache_datetime, text)

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
            EvidenceService(source, cache=cache, parallelism=1).gather(uris, dt("20140601000000"))
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

    def test_directory_in_place_of_file_raises(self, tmp_path):
        (tmp_path / (quote("http://x.example/", safe="") + ".link")).mkdir()
        with pytest.raises(IsADirectoryError):
            FixtureArchiveSource(tmp_path).get_timemap("http://x.example/")

    def test_undecodable_timemap_is_a_fetch_error(self, tmp_path, fixtures_dir):
        name = quote("http://cs.odu.edu", safe="") + ".link"
        (tmp_path / name).write_bytes((fixtures_dir / "timemaps" / name).read_bytes() + b"\xff\n")
        source = FixtureArchiveSource(tmp_path)
        with pytest.raises(ArchiveFetchError, match=r"\.link: bytes that are not UTF-8"):
            source.get_timemap("http://cs.odu.edu")
        outcome = EvidenceService(source, parallelism=1).evidence_for("http://cs.odu.edu", dt("20140601000000"))
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
    return service.evidence_for(uri, dt("20140301000000")).popularity


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


class TestEvidenceCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        cache.put("gateway", "timemap", "com,example)/", {"n": 1})
        assert cache.get("gateway", "timemap", "com,example)/") == {"n": 1}
        assert cache.get("gateway", "timemap", "com,other)/") is None
        assert cache.get("other", "timemap", "com,example)/") is None

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvidenceCache(path).put("gateway", "damage", "key", {"damage": 0.1})
        again = EvidenceCache(path)
        assert again.get("gateway", "damage", "key") == {"damage": 0.1}

    def test_later_records_supersede(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        cache.put("gateway", "k", "s", {"v": 1})
        cache.put("gateway", "k", "s", {"v": 2})
        assert EvidenceCache(path).get("gateway", "k", "s") == {"v": 2}

    def test_max_age_expiry(self, tmp_path):
        now = [1000.0]
        cache = EvidenceCache(tmp_path / "cache.jsonl", max_age=60, clock=lambda: now[0])
        cache.put("gateway", "k", "s", {"v": 1})
        assert cache.get("gateway", "k", "s") == {"v": 1}
        now[0] += 61
        assert cache.get("gateway", "k", "s") is None

    def test_thread_safety_smoke(self, tmp_path):
        cache = EvidenceCache(tmp_path / "cache.jsonl")

        def worker(i):
            for j in range(20):
                cache.put("gateway", "k", f"s{i}-{j}", {"v": j})

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
        cache.put("gateway", "timemap", "a", {"v": 1})
        cache.put("gateway", "timemap", "b", {"v": 2})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"provider": "gateway", "kind": "timemap"}\n[1, 2]\n')
        path.write_bytes(path.read_bytes() + path.read_bytes()[:40])  # torn copy of line 1
        with caplog.at_level("WARNING", logger="archive_recommender"):
            again = EvidenceCache(path)
        assert again.get("gateway", "timemap", "a") == {"v": 1}
        assert again.get("gateway", "timemap", "b") == {"v": 2}
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
        assert cache.get("gateway", "timemap", "x") is None
        assert cache.get("gateway", "timemap", "y") is None
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
            assert cache.get("gateway", "timemap", str(i)) is None
        assert cache.get("gateway", "timemap", "ok") == {}
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {path}: skipped {len(stamps)} corrupt line(s)"
        ]

    def test_non_utf8_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        cache.put("gateway", "timemap", "a", {"v": 1})
        cache.close()
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe garbage\n")
            handle.write(b'{"provider":"gateway","kind":"timemap","surt":"\xc3","fetched_at":1,"value":{}}\n')
        with caplog.at_level("WARNING", logger="archive_recommender"):
            again = EvidenceCache(path)
        assert again.get("gateway", "timemap", "a") == {"v": 1}
        assert [r.getMessage() for r in caplog.records] == [
            f"evidence cache {path}: skipped 2 corrupt line(s)"
        ]

    def test_unwritable_path_fails_on_first_put(self, tmp_path):
        cache = EvidenceCache(tmp_path / "absent" / "cache.jsonl")
        with pytest.raises(FileNotFoundError):
            cache.put("gateway", "k", "s", {"v": 1})
        with pytest.raises(FileNotFoundError):
            cache.put("gateway", "k", "s", {"v": 1})

    def test_one_handle_appends_every_line(self, tmp_path, archive_opens):
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        for i in range(3):
            cache.put("gateway", "k", f"s{i}", {"v": i})
            assert len(path.read_text("utf-8").splitlines()) == i + 1  # flushed per line
        assert len(archive_opens) == 1

    def test_close_is_idempotent(self, tmp_path, archive_opens):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        cache.close()  # nothing open yet
        cache.put("gateway", "k", "s", {"v": 1})
        cache.close()
        cache.close()
        assert [handle.closed for handle in archive_opens] == [True]
        cache.put("gateway", "k", "t", {"v": 2})  # opens the file again
        cache.close()
        assert [handle.closed for handle in archive_opens] == [True, True]
        assert len((tmp_path / "cache.jsonl").read_text("utf-8").splitlines()) == 2

    def test_with_block_closes_the_handle(self, tmp_path, archive_opens):
        with EvidenceCache(tmp_path / "cache.jsonl") as cache:
            cache.put("gateway", "k", "s", {"v": 1})
            assert not archive_opens[0].closed
        assert archive_opens[0].closed

    def test_dropped_cache_releases_its_file(self, tmp_path, archive_opens):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        cache.put("gateway", "k", "s", {"v": 1})
        dropped = weakref.ref(cache)
        del cache
        gc.collect()
        assert dropped() is None  # the finalizer does not keep the cache alive
        assert archive_opens[0].closed


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
    def build(self, fixtures_dir, **kwargs) -> EvidenceService:
        return EvidenceService(
            FixtureArchiveSource(fixtures_dir / "timemaps"),
            FixturePopularityProvider(fixtures_dir / "popularity.tsv"),
            FixtureDamageProvider(fixtures_dir / "damage.tsv"),
            **kwargs,
        )

    def test_full_evidence_for_archived_uri(self, fixtures_dir):
        service = self.build(fixtures_dir)
        result = service.evidence_for("http://cs.odu.edu", dt("20140301000000"))
        assert result.error is None
        assert result.archive.archived
        _, nearest_uri = nearest_memento(result.archive, dt("20140301000000"))
        assert "20140226090846" in nearest_uri
        assert result.popularity.global_rank == 28455
        assert result.damage.damage == pytest.approx(0.13)
        assert result.damage.source is DamageSource.FIXTURE

    def test_unarchived_uri_short_circuits(self, fixtures_dir):
        service = self.build(fixtures_dir)
        result = service.evidence_for(
            "http://radford.edu/content/csat/home/itec.html", dt("20140301000000")
        )
        assert not result.archive.archived
        assert result.popularity is None and result.damage is None
        assert result.error is None

    def test_gather_preserves_input_order(self, fixtures_dir):
        service = self.build(fixtures_dir, parallelism=4)
        uris = ["http://cs.vt.edu", "http://cs.gmu.edu", "http://cs.odu.edu"]
        results = service.gather(uris, dt("20140301000000"))
        assert [r.uri for r in results] == uris

    def fixture_uris(self, fixtures_dir):
        return [unquote(path.name[: -len(".link")]) for path in sorted((fixtures_dir / "timemaps").glob("*.link"))]

    def test_gather_reuses_one_pool(self, fixtures_dir, monkeypatch):
        made = record_executors(monkeypatch)
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        serial = self.build(fixtures_dir, parallelism=1).gather(uris, requested)
        assert not made
        service = self.build(fixtures_dir, parallelism=4)
        assert service.gather(uris, requested) == serial
        assert service.gather(uris, requested) == serial
        assert len(made) == 1
        del service
        gc.collect()
        assert made[0]() is None  # its idle workers are told to exit

    def test_threads_sharing_a_service_get_serial_results(self, fixtures_dir, monkeypatch):
        made = record_executors(monkeypatch)
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        serial = self.build(fixtures_dir, parallelism=1).gather(uris, requested)
        service = self.build(fixtures_dir, parallelism=4)
        start = threading.Barrier(4)
        results = [None] * 4

        def worker(i):
            start.wait()
            results[i] = [service.gather(uris, requested) for _ in range(5)]

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
        serial = EvidenceService(MeetingSource(None), parallelism=1).gather(uris, requested)
        service = EvidenceService(MeetingSource(threading.Barrier(2, timeout=5)), parallelism=4)
        results = service.gather(uris, requested)
        assert [r.uri for r in results] == uris
        assert all(r.error is None and r.archive.archived for r in results)
        assert results == serial

    def test_retry_then_success(self):
        source = MapSource(SINGLE_PAGE, fail_times=1)
        service = EvidenceService(source, retries=1)
        result = service.evidence_for("http://a.example.com", dt("20140301000000"))
        assert result.error is None
        assert source.calls == 2

    def test_retries_exhausted_reports_error(self):
        source = MapSource(SINGLE_PAGE, fail_times=3)
        service = EvidenceService(source, retries=1)
        result = service.evidence_for("http://a.example.com", dt("20140301000000"))
        assert result.error and "502" in result.error
        assert not result.archive.archived

    def test_cache_avoids_refetch(self, fixtures_dir, tmp_path):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        service = self.build(fixtures_dir, cache=cache)
        first = service.evidence_for("http://cs.gmu.edu", dt("20140301000000"))
        cached_service = EvidenceService(ExplodingSource(), cache=cache)
        second = cached_service.evidence_for("http://cs.gmu.edu", dt("20140301000000"))
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
        ],
        ids=[
            "bad-datetime", "no-mementos", "not-a-dict",
            "damage-not-a-number", "damage-empty", "damage-a-list", "damage-above-one",
            "damage-unknown-source", "rank-not-a-number", "rank-a-list", "rank-infinite",
        ],
    )
    def test_undecodable_cached_timemap_is_refetched(
        self, fixtures_dir, tmp_path, caplog, kind, value
    ):
        """A cached value of any kind that does not decode is refetched, with
        one warning and one superseding line."""
        requested = dt("20140301000000")
        expected = self.build(fixtures_dir).evidence_for("http://cs.gmu.edu", requested)
        labels = {"timemap": "TimeMap", "popularity": "popularity", "damage": "damage"}
        surt = "edu,gmu,cs)/"
        if kind == "damage":
            surt = canonicalize_surt(nearest_memento(expected.archive, requested)[1])
        path = tmp_path / "cache.jsonl"
        self.build(fixtures_dir, cache=EvidenceCache(path)).evidence_for("http://cs.gmu.edu", requested)
        fetched = EvidenceCache(path).get("gateway", kind, surt)
        EvidenceCache(path).put("gateway", kind, surt, value)
        written = len(path.read_text("utf-8").splitlines())
        cache = EvidenceCache(path)
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            result = self.build(fixtures_dir, cache=cache).evidence_for("http://cs.gmu.edu", requested)
        assert result == expected
        assert len(caplog.records) == 1
        assert caplog.records[0].name == "archive_recommender.archives"
        assert f"refetching undecodable {labels[kind]} for {surt}" in caplog.records[0].getMessage()
        assert len(path.read_text("utf-8").splitlines()) == written + 1
        assert EvidenceCache(path).get("gateway", kind, surt) == fetched

    @pytest.mark.parametrize(
        "value, rank", [({}, None), ({"rank": None}, None), ({"rank": "5"}, 5), ({"rank": 2.7}, 2)]
    )
    def test_cached_popularity_decodes_as_before(self, tmp_path, caplog, value, rank):
        uri, requested = "http://a.example.com", dt("20140301000000")
        path = tmp_path / "cache.jsonl"
        EvidenceService(MapSource(SINGLE_PAGE), cache=EvidenceCache(path)).evidence_for(uri, requested)
        EvidenceCache(path).put("gateway", "popularity", canonicalize_surt(uri), value)
        written = path.read_text("utf-8")
        warm_service = EvidenceService(ExplodingSource(), cache=EvidenceCache(path))
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            result = warm_service.evidence_for(uri, requested)
        assert result.popularity.global_rank == rank
        assert not caplog.records
        assert path.read_text("utf-8") == written

    def test_year_999_memento_cached_once(self, tmp_path, caplog):
        page = '<https://a/m>; rel="memento"; datetime="Fri, 01 Jan 0999 00:00:00 GMT"'
        uri, requested = "http://a.example.com", dt("20140301000000")
        path = tmp_path / "cache.jsonl"
        cold = EvidenceService(MapSource(page), cache=EvidenceCache(path)).evidence_for(uri, requested)
        written = path.read_text("utf-8")
        assert '"0999-01-01T00:00:00Z"' in written
        warm_service = EvidenceService(ExplodingSource(), cache=EvidenceCache(path))
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            warm = warm_service.evidence_for(uri, requested)
        assert warm == cold
        assert not caplog.records
        assert path.read_text("utf-8") == written

    def test_year_999_memento_served_without_cache(self):
        page = '<https://a/m>; rel="memento"; datetime="Fri, 01 Jan 0999 00:00:00 GMT"'
        result = EvidenceService(MapSource(page)).evidence_for("http://a.example.com", dt("20140301000000"))
        assert result.error is None
        assert result.archive.mementos == ((datetime(999, 1, 1, tzinfo=UTC), "https://a/m"),)

    def test_every_fixture_timemap_same_with_and_without_cache(self, fixtures_dir, tmp_path):
        requested = dt("20140301000000")
        paths = sorted((fixtures_dir / "timemaps").glob("*.link"))
        assert paths
        for path in paths:
            uri = unquote(path.name[: -len(".link")])
            plain = self.build(fixtures_dir).evidence_for(uri, requested)
            cache_path = tmp_path / f"{path.stem}.jsonl"
            cold = self.build(fixtures_dir, cache=EvidenceCache(cache_path)).evidence_for(uri, requested)
            warm_service = EvidenceService(ExplodingSource(), cache=EvidenceCache(cache_path))
            warm = warm_service.evidence_for(uri, requested)
            assert plain.archive.archived, uri
            assert cold == plain, uri
            assert warm == plain, uri

    def test_damage_defaults_when_provider_lacks_memento(self, fixtures_dir):
        service = self.build(fixtures_dir)
        result = service.evidence_for(
            "http://hollins.edu/academics/computersci", dt("20140301000000")
        )
        assert result.damage.source is DamageSource.DEFAULT_MISSING
        assert result.damage.damage == 0.5

    def test_threads_sharing_a_cache_write_one_line_per_key(self, fixtures_dir, tmp_path):
        """Four threads share one service and one cache file. Each gathers
        its own slice of the fixture URIs, whose cache keys no other slice
        has, so no two threads miss on one key (both would fetch and append,
        as they always have)."""
        requested, uris = dt("20140301000000"), self.fixture_uris(fixtures_dir)
        slices = [uris[i::4] for i in range(4)]
        serial = [self.build(fixtures_dir, parallelism=1).gather(part, requested) for part in slices]
        with EvidenceCache(tmp_path / "serial.jsonl") as serial_cache:
            self.build(fixtures_dir, cache=serial_cache, parallelism=1).gather(uris, requested)
        expected_keys = {key for key, _ in cache_lines(tmp_path / "serial.jsonl")}
        path = tmp_path / "cache.jsonl"
        cache = EvidenceCache(path)
        service = self.build(fixtures_dir, cache=cache, parallelism=4)
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def worker(i):
            start.wait()
            results[i] = [service.gather(slices[i], requested) for _ in range(5)]

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
        cold = service.evidence_for(self.URI, self.REQUESTED)
        warm = [service.evidence_for(self.URI, self.REQUESTED) for _ in range(3)]
        assert warm == [cold] * 3
        assert all(w.archive is cold.archive and w.damage is cold.damage for w in warm)
        assert source.calls == 1
        # popularity is never taken from the fetch; its first hit decodes it
        assert calls == {"timemap": 0, "popularity": 1, "damage": 0}

    def test_loaded_entry_decodes_once_over_three_hits(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cold = self.service(MapSource(SINGLE_PAGE), EvidenceCache(path)).evidence_for(self.URI, self.REQUESTED)
        calls = count_decodes(monkeypatch)
        warm_service = self.service(ExplodingSource(), EvidenceCache(path))
        warm = [warm_service.evidence_for(self.URI, self.REQUESTED) for _ in range(3)]
        assert warm == [cold] * 3
        assert warm[2].archive is warm[0].archive and warm[2].damage is warm[0].damage
        assert calls == {"timemap": 1, "popularity": 1, "damage": 1}

    def test_superseding_put_serves_the_new_value(self, tmp_path, monkeypatch):
        calls = count_decodes(monkeypatch)
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        service = self.service(MapSource(SINGLE_PAGE), cache)
        service.evidence_for(self.URI, self.REQUESTED)
        service.evidence_for(self.URI, self.REQUESTED)
        newer = fetch_timemap(MapSource(timemap_with(3)), self.URI)
        cache.put("gateway", "timemap", canonicalize_surt(self.URI), newer.to_json_dict())
        assert service.evidence_for(self.URI, self.REQUESTED).archive == newer
        assert calls["timemap"] == 1

    def test_value_superseded_after_get_is_not_kept_for_the_new_one(self, tmp_path):
        cache = EvidenceCache(tmp_path / "cache.jsonl")
        cache.put("gateway", "k", "s", {"v": 1})
        old = cache.get("gateway", "k", "s")
        cache.put("gateway", "k", "s", {"v": 2})
        assert cache.decoded("gateway", "k", "s", old, lambda raw: raw["v"]) == 1
        new = cache.get("gateway", "k", "s")
        assert cache.decoded("gateway", "k", "s", new, lambda raw: raw["v"]) == 2

    def test_expired_memoized_entry_is_a_miss(self, tmp_path):
        now = [1000.0]
        path = tmp_path / "cache.jsonl"
        source = MapSource(SINGLE_PAGE)
        service = self.service(source, EvidenceCache(path, max_age=60, clock=lambda: now[0]))
        service.evidence_for(self.URI, self.REQUESTED)
        service.evidence_for(self.URI, self.REQUESTED)  # reads the kept values
        assert source.calls == 1
        now[0] += 61
        service.evidence_for(self.URI, self.REQUESTED)
        assert source.calls == 2
        assert len(path.read_text("utf-8").splitlines()) == 6  # each kind written twice

    def test_undecodable_value_warns_per_refetch_and_is_not_kept(self, tmp_path, caplog, monkeypatch):
        path = tmp_path / "cache.jsonl"
        surt = canonicalize_surt(self.URI)
        EvidenceCache(path).put("gateway", "timemap", surt, {"uri": self.URI, "mementos": [["soon", "https://a/m"]]})
        calls = count_decodes(monkeypatch)
        source = MapSource(SINGLE_PAGE, fail_times=2)
        service = self.service(source, EvidenceCache(path), retries=0)
        with caplog.at_level(logging.WARNING, logger="archive_recommender.archives"):
            failed = [service.evidence_for(self.URI, self.REQUESTED) for _ in range(2)]
            fixed = service.evidence_for(self.URI, self.REQUESTED)  # this refetch supersedes the line
            again = service.evidence_for(self.URI, self.REQUESTED)
        assert [f.error for f in failed] == ["upstream 502"] * 2
        assert fixed.error is None and again == fixed
        assert source.calls == 3
        assert calls["timemap"] == 3
        assert len(caplog.records) == 3
        assert all("refetching undecodable TimeMap" in r.getMessage() for r in caplog.records)

    def test_popularity_hit_decodes_the_line_not_the_fetch(self, tmp_path):
        """A provider that breaks the ``int | None`` protocol: the fetch
        serves its rank as given, a hit serves the rank the line decodes to."""
        service = self.service(MapSource(SINGLE_PAGE), EvidenceCache(tmp_path / "cache.jsonl"), rank=2.7)
        assert service.evidence_for(self.URI, self.REQUESTED).popularity.global_rank == 2.7
        assert service.evidence_for(self.URI, self.REQUESTED).popularity.global_rank == 2
