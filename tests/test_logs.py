"""Access-log parsing and the candidate filter chain."""

from __future__ import annotations

import gzip
from datetime import datetime, timezone

import pytest

from archive_recommender.logs import (
    ENGLISH_CCTLDS,
    HTML_EXTENSIONS,
    LogParseError,
    analyze_requests,
    filter_access_log,
    filter_log_file,
    parse_access_log,
    parse_log_line,
    read_log_lines,
)
from archive_recommender.uri import _parse_checked

GOOD_LINE = (
    "128.82.5.10 2012-02-02T10:23:41Z GET http://example.com/ HTTP/1.1 200 5120 "
    "- Mozilla/5.0 (Windows NT 6.1; rv:10.0)"
)


class TestParseLine:
    def test_fields(self):
        record = parse_log_line(GOOD_LINE)
        assert record.client_ip == "128.82.5.10"
        assert record.access_time == datetime(2012, 2, 2, 10, 23, 41, tzinfo=timezone.utc)
        assert record.method == "GET"
        assert record.uri == "http://example.com/"
        assert record.protocol == "HTTP/1.1"
        assert record.status == 200
        assert record.bytes_sent == 5120
        assert record.referrer is None

    def test_user_agent_absorbs_trailing_spaces(self):
        record = parse_log_line(GOOD_LINE)
        assert record.user_agent == "Mozilla/5.0 (Windows NT 6.1; rv:10.0)"

    def test_referrer_present(self):
        line = GOOD_LINE.replace(" - Mozilla", " http://ref.example.com/ Mozilla")
        assert parse_log_line(line).referrer == "http://ref.example.com/"

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "too few fields",
            "1.2.3.4 2012-02-02T10:29:02Z GET http://x.com/ HTTP/1.1 200 31",  # 7 fields
            GOOD_LINE.replace("2012-02-02T10:23:41Z", "02/Feb/2012:10:23:41"),
            GOOD_LINE.replace(" 200 ", " OK "),
            GOOD_LINE.replace(" 200 ", " 999 "),
            GOOD_LINE.replace(" 200 ", " 2\u00b20 "),  # isdigit passes "²", int refuses it
            pytest.param(GOOD_LINE.replace(" 200 ", " " + "2" * 5000 + " "), id="5000-digit-status"),
            # No UTC value inside years 1-9999.
            GOOD_LINE.replace("2012-02-02T10:23:41Z", "0001-01-01T00:00:00+01:00"),
            GOOD_LINE.replace("2012-02-02T10:23:41Z", "9999-12-31T23:59:59-01:00"),
        ],
    )
    def test_malformed(self, line):
        with pytest.raises(LogParseError):
            parse_log_line(line)

    @pytest.mark.parametrize("size", ["5\u00b2", "1" * 5000], ids=["superscript", "5000-digits"])
    def test_size_int_refuses_reads_as_none(self, size):
        record = parse_log_line(GOOD_LINE.replace(" 5120 ", f" {size} "))
        assert record.bytes_sent is None
        assert record.status == 200

    def test_other_decimal_digits_still_read(self):
        line = GOOD_LINE.replace(" 200 5120 ", " \u0662\u0660\u0660 \u0665\u0661\u0662 ")
        record = parse_log_line(line)
        assert (record.status, record.bytes_sent) == (200, 512)

    def test_times_at_the_range_edges_in_utc_still_read(self):
        for when, expected in [
            ("0001-01-01T00:00:00Z", datetime(1, 1, 1, tzinfo=timezone.utc)),
            ("9999-12-31T23:59:59+00:00", datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)),
            ("0001-01-01T01:00:00+01:00", datetime(1, 1, 1, tzinfo=timezone.utc)),
        ]:
            assert parse_log_line(GOOD_LINE.replace("2012-02-02T10:23:41Z", when)).access_time == expected

    def test_parse_access_log_counts_malformed(self):
        stats_lines = [GOOD_LINE, "broken", GOOD_LINE]
        from archive_recommender.logs import LogFilterStats

        stats = LogFilterStats()
        records = list(parse_access_log(stats_lines, stats))
        assert len(records) == 2
        assert stats.malformed == 1
        assert stats.total_lines == 3


class TestReadLines:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(GOOD_LINE + "\n\n", "utf-8")
        # blank lines come through so total_lines reflects the physical file
        assert list(read_log_lines(path)) == [GOOD_LINE, ""]

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "access.log.gz"
        path.write_bytes(gzip.compress((GOOD_LINE + "\n").encode()))
        assert list(read_log_lines(path)) == [GOOD_LINE]


def line_with(uri: str, status: int = 200, when: str = "2012-02-02T10:23:41Z") -> str:
    return f"1.2.3.4 {when} GET {uri} HTTP/1.1 {status} 100 - agent/1.0"


class TestFilterRules:
    def run(self, lines):
        from archive_recommender.logs import LogFilterStats

        stats = LogFilterStats()
        records = parse_access_log(lines, stats)
        return list(filter_access_log(records, stats)), stats

    def test_non_200_dropped(self):
        kept, stats = self.run([line_with("http://example.com/", status=404)])
        assert kept == [] and stats.non_200 == 1

    def test_redirects_dropped_too(self):
        kept, stats = self.run([line_with("http://example.com/", status=301)])
        assert kept == [] and stats.non_200 == 1

    def test_relative_uri_dropped(self):
        kept, stats = self.run([line_with("/web/20100101000000/http://example.com/")])
        assert kept == [] and stats.bad_uri == 1

    @pytest.mark.parametrize("uri", ["odu.edu/compsci", "http:foo", "HTTP:foo", "//host/x"])
    def test_uri_without_scheme_separator_dropped(self, uri):
        """A request URI must be absolute: parse_uri would read a bare
        host/path as http, and ``HTTP:foo`` as host ``http``, port ``foo``."""
        kept, stats = self.run([line_with(uri)])
        assert kept == [] and stats.bad_uri == 1

    def test_host_label_past_63_octets_dropped_before_segmenting(self, monkeypatch):
        from archive_recommender import reports
        from archive_recommender.logs import analyze_requests

        segmented = []
        original = reports.dictionary_bucket
        monkeypatch.setattr(reports, "dictionary_bucket", lambda text: segmented.append(text) or original(text))
        kept, stats = self.run([line_with(f"http://{'ab' * 1000}.com/"), line_with("http://example.com/")])
        assert kept == ["http://example.com/"] and stats.bad_uri == 1
        analyze_requests(kept)
        assert segmented == ["example"]

    def test_non_http_scheme_dropped(self):
        kept, stats = self.run([line_with("ftp://example.com/readme")])
        assert kept == [] and stats.bad_uri == 1

    @pytest.mark.parametrize("uri", [
        "http://example.com/logo.png",
        "http://files.example.com/archive.zip",
        "http://example.com/styles.css",
    ])
    def test_non_html_extension_dropped(self, uri):
        kept, stats = self.run([line_with(uri)])
        assert kept == [] and stats.bad_extension == 1

    @pytest.mark.parametrize("uri", [
        "http://example.com/",
        "http://example.com/page",
        "http://example.com/page.html",
        "http://example.com/page.htm",
        "http://example.com/page.php",
        "http://example.com/page.asp",
        "http://example.com/page.aspx",
        "http://example.com/page.jsp",
        "http://example.com/search.cgi",
    ])
    def test_html_like_extensions_kept(self, uri):
        kept, _ = self.run([line_with(uri)])
        assert kept == [uri]

    def test_ip_host_dropped(self):
        kept, stats = self.run([line_with("http://63.135.118.69/page")])
        assert kept == [] and stats.ip_host == 1

    @pytest.mark.parametrize("uri", [
        "http://zeitung.example.de/artikel",
        "http://example.fr/page.html",
        "http://api.example.jp/data",
    ])
    def test_non_english_cctld_dropped(self, uri):
        kept, stats = self.run([line_with(uri)])
        assert kept == [] and stats.non_english_tld == 1

    @pytest.mark.parametrize("uri", [
        "http://example.co.uk/page",   # country code is the suffix's last label
        "http://example.ca/page",
        "http://example.com/page",     # gTLD passes
        "http://example.info/page",
    ])
    def test_english_or_generic_tld_kept(self, uri):
        kept, _ = self.run([line_with(uri)])
        assert kept == [uri]

    def test_multi_label_non_english_suffix_dropped(self):
        kept, stats = self.run([line_with("http://example.co.jp/page")])
        assert kept == [] and stats.non_english_tld == 1

    def test_exact_uri_dedupe(self):
        lines = [
            line_with("http://example.com/"),
            line_with("http://example.com/", when="2012-02-02T11:00:00Z"),
            line_with("http://example.com/other"),
        ]
        kept, stats = self.run(lines)
        assert kept == ["http://example.com/", "http://example.com/other"]
        assert stats.duplicate == 1

    def test_trailing_slash_is_a_different_uri(self):
        kept, _ = self.run([line_with("http://example.com/"), line_with("http://example.com")])
        assert len(kept) == 2

    def test_order_preserved(self):
        lines = [line_with(f"http://example.com/p{i}") for i in range(5)]
        kept, _ = self.run(lines)
        assert kept == [f"http://example.com/p{i}" for i in range(5)]

    def test_constants(self):
        assert ENGLISH_CCTLDS == frozenset({"us", "uk", "au", "ca", "nz", "ie", "za"})
        assert "" in HTML_EXTENSIONS and "php" in HTML_EXTENSIONS


class TestFixtureLog:
    def test_exact_survivors_and_counts(self, fixtures_dir):
        kept, stats = filter_log_file(fixtures_dir / "access_log_sample.log")
        expected = (
            (fixtures_dir / "expected_log_survivors.txt").read_text().split()
        )
        assert kept == expected
        assert stats.total_lines == 20
        assert stats.as_dict() == {
            "total_lines": 20,
            "malformed": 1,
            "non_200": 3,
            "bad_uri": 2,
            "bad_extension": 2,
            "ip_host": 1,
            "non_english_tld": 3,
            "duplicate": 1,
            "kept": 7,
        }
        assert list(stats.as_dict()) == [  # the order analyze-logs prints them in
            "total_lines", "malformed", "non_200", "bad_uri", "bad_extension",
            "ip_host", "non_english_tld", "duplicate", "kept",
        ]

    def test_report_reads_the_filters_parses(self, fixtures_dir):
        """The filter and the report parse each kept URI as logged, so the
        report's parses are memo hits."""
        _parse_checked.cache_clear()
        kept, _ = filter_log_file(fixtures_dir / "access_log_sample.log")
        filtered = _parse_checked.cache_info()
        analyze_requests(kept)
        reported = _parse_checked.cache_info()
        assert len(kept) == 7
        assert reported.misses == filtered.misses
        assert reported.hits - filtered.hits == len(kept)

    def test_stats_are_optional(self, fixtures_dir):
        lines = list(read_log_lines(fixtures_dir / "access_log_sample.log"))
        kept, _ = filter_log_file(fixtures_dir / "access_log_sample.log")
        assert list(filter_access_log(parse_access_log(lines))) == kept

    def test_counts_are_exhaustive(self, fixtures_dir):
        _, stats = filter_log_file(fixtures_dir / "access_log_sample.log")
        accounted = (
            stats.malformed + stats.non_200 + stats.bad_uri + stats.bad_extension
            + stats.ip_host + stats.non_english_tld + stats.duplicate + stats.kept
        )
        assert accounted == stats.total_lines


def test_analyze_requests_smoke():
    from archive_recommender.logs import analyze_requests

    report = analyze_requests(["http://example.com/a", "http://news.example.org/b.html"])
    sections = {r["section"] for r in report.to_records()}
    assert "tld" in sections
