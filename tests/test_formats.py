"""The package's text formats, each read and written in one place: instants,
``#``-commented files, bundled data and gzip-or-plain inputs."""

from __future__ import annotations

import gzip
import json
import re
import shutil
from datetime import datetime, timedelta, timezone
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from archive_recommender.archives import (
    FixtureDamageProvider,
    FixturePopularityProvider,
    format_instant,
    parse_instant,
)
from archive_recommender.cli import EXIT_OK, main
from archive_recommender.config import ConfigError, load_settings, parse_datetime
from archive_recommender.ontology import FixtureOntologyProvider, load_index
from archive_recommender.uri import InputFileError, PublicSuffixList, load_stopwords, open_input
from archive_recommender.words import WordLexicon

# ---------------------------------------------------------------------------
# `#`-commented files

# Lines that every `#`-commented reader skips.
SKIPPED = ["", "   ", "\t", "# a comment", "   # an indented comment", "\t#a tab-indented comment"]


def popularity(path):
    provider = FixturePopularityProvider(path)
    return provider.get_rank("example.com"), provider.get_rank("example.org")


def damage(path):
    provider = FixtureDamageProvider(path)
    return provider.get_damage("http://a.example/m1"), provider.get_damage("http://a.example/m2")


def index(path):
    return [(str(e.category), e.uri, e.surt, e.title, e.description) for e in load_index(path).all_entries()]


def secondary(path):
    provider = FixtureOntologyProvider(path)
    return provider.lookup("http://a.example/"), provider.lookup("http://b.example/")


def config(path):
    return load_settings(path, env={})


# reader, its content lines, a line it rejects, and the error that names the line
READERS = {
    "popularity": (popularity, ["example.com\t5", "example.org\t7"], "example.net\tfirst", InputFileError),
    "damage": (damage, ["http://a.example/m1\t0.25", "http://a.example/m2\t0.5"], "http://x/\tlots", InputFileError),
    "index": (
        index,
        ["Arts/Music\thttp://a.example/\tA\tabout a", "Science/Physics\thttp://b.example/x\tB\tabout b"],
        "\thttp://c.example/\tC\tno category",
        InputFileError,
    ),
    "secondary": (
        secondary,
        [
            json.dumps({"official_uri": "http://a.example/", "categories": ["Arts"], "members": []}),
            json.dumps({"official_uri": "http://b.example/", "categories": ["Science", "Physics"]}),
        ],
        "not json",
        InputFileError,
    ),
    "config": (config, ["top = 5", "output = records"], "top 5", ConfigError),
}


@pytest.mark.parametrize("name", READERS)
def test_commented_readers_skip_the_same_lines(tmp_path, name):
    read, lines, bad, error = READERS[name]
    plain = tmp_path / "plain"
    plain.write_text("".join(line + "\n" for line in lines), "utf-8")
    commented = tmp_path / "commented"
    body = [*SKIPPED, lines[0], *SKIPPED, lines[1], *SKIPPED]
    commented.write_text("".join(line + "\n" for line in body), "utf-8")
    assert read(commented) == read(plain)

    commented.write_text("".join(line + "\n" for line in body + [bad]), "utf-8")
    with pytest.raises(error, match=f"^{re.escape(str(commented))}:{len(body) + 1}: "):
        read(commented)


# ---------------------------------------------------------------------------
# Instants


def test_year_999_memento_reads_back_from_every_text(capsys, fixtures_dir, tmp_path):
    """glibc ``strftime`` writes year 999 as ``999``, which is not an RFC 3339
    year; every text of the memento has four digits and reads back."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir, fixtures)
    memento = "https://web.archive.org/web/09990105090000/http://cs.gmu.edu"
    (fixtures / "timemaps" / "http%3A%2F%2Fcs.gmu.edu.link").write_text(
        '<http://cs.gmu.edu>; rel="original",\n'
        f'<{memento}>; rel="memento"; datetime="Mon, 05 Jan 0999 09:00:00 GMT"\n',
        "utf-8",
    )
    cache = tmp_path / "cache.jsonl"
    code = main([
        "recommend", "http://odu.edu/compsci", "--datetime", "2014-03-01", "--now", "2014-06-01T00:00:00Z",
        "--fixtures", str(fixtures), "--output", "records", "--cache", str(cache),
    ])
    assert code == EXIT_OK
    text = "0999-01-05T09:00:00Z"
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    [record] = [r for r in records if r.get("uri") == "http://cs.gmu.edu" and r["type"] == "recommendation"]
    assert record["memento_datetime"] == text
    assert f"nearest memento {text} vs requested 2014-03-01T00:00:00Z" in record["explanations"][0]
    lines = [json.loads(line) for line in cache.read_text("utf-8").splitlines()]
    [cached] = [line["value"] for line in lines if line["kind"] == "timemap" and line["surt"] == "edu,gmu,cs)/"]
    assert cached["mementos"] == [[text, memento]]
    assert parse_datetime(text) == datetime(999, 1, 5, 9, tzinfo=timezone.utc)


@given(st.datetimes(timezones=st.just(timezone.utc)))
def test_written_instant_reads_back(when):
    assert parse_instant(format_instant(when)) == when.replace(microsecond=0)


@given(st.datetimes(), st.integers(-23 * 60, 23 * 60))
def test_written_instant_is_utc(when, minutes):
    local = when.replace(tzinfo=timezone(timedelta(minutes=minutes)))
    try:
        utc = local.astimezone(timezone.utc)
    except OverflowError:
        return
    assert format_instant(local) == format_instant(utc)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2014-03-01", datetime(2014, 3, 1, tzinfo=timezone.utc)),
        ("2014-03-01T12:30:00", datetime(2014, 3, 1, 12, 30, tzinfo=timezone.utc)),
        ("2014-03-01T12:30:00Z", datetime(2014, 3, 1, 12, 30, tzinfo=timezone.utc)),
        ("2014-03-01T12:30:00+02:00", datetime(2014, 3, 1, 10, 30, tzinfo=timezone.utc)),
        ("0001-01-01T00:00:00-01:00", datetime(1, 1, 1, 1, tzinfo=timezone.utc)),
        ("2014-03-01 12:30", datetime(2014, 3, 1, 12, 30, tzinfo=timezone.utc)),
        ("2014-03-01T12Z", datetime(2014, 3, 1, 12, tzinfo=timezone.utc)),
        ("2014-03-01T12:30:46.500Z", datetime(2014, 3, 1, 12, 30, 46, 500000, tzinfo=timezone.utc)),
        ("2014-03-01T12:30:46.000001-00:00", datetime(2014, 3, 1, 12, 30, 46, 1, tzinfo=timezone.utc)),
    ],
)
def test_instant_reader(text, expected):
    parsed = parse_instant(text)
    assert parsed == expected
    assert parsed.tzinfo is timezone.utc


@pytest.mark.parametrize(
    "text", ["last tuesday", "", "0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]
)
def test_instant_reader_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_instant(text)


# Forms that fromisoformat reads from 3.11 on but not on 3.10: the reader
# takes none of them, so it reads one grammar on every interpreter.
@pytest.mark.parametrize(
    "text",
    [
        "20140301",
        "20140301T123000Z",
        "2014-W09-6",
        "2014-03-01T12:30:46.5Z",
        "2014-03-01T12:30:46.1234Z",
        "2014-03-01T12:30:46.1234567Z",
        "2014-03-01T12:30:00,5Z",
        "2014-03-01T12:30:00+0200",
        "2014-03-01T12:30:00+02",
        "2014-03-01T1230Z",
        "\u0662\u0660\u0661\u0664-03-01",  # Arabic-Indic digits
        "2014-03-01x12:30:00",
        "2014-03-01T12:30:00+02:00:30",
        "2014-03-01t12:30:00z",
    ],
)
def test_instant_reader_takes_one_grammar(text):
    with pytest.raises(ValueError, match="^Invalid isoformat string: "):
        parse_instant(text)


# ---------------------------------------------------------------------------
# Bundled data, checked against the importlib.resources read it replaced


def resource_lines(name):
    return resources.files("archive_recommender.data").joinpath(name).read_text("utf-8").splitlines()


def test_bundled_suffix_list_matches_resources():
    expected = PublicSuffixList(resource_lines("public_suffix.dat"))
    bundled = PublicSuffixList.bundled()
    assert (bundled._rules, bundled._exceptions) == (expected._rules, expected._exceptions)


def test_bundled_stopwords_match_resources():
    lines = resource_lines("stopwords.txt")
    assert load_stopwords() == frozenset(line.strip() for line in lines if line.strip() and not line.startswith("#"))


def test_bundled_lexicon_matches_resources():
    lines = resource_lines("wordfreq.txt")
    expected = WordLexicon(line.strip() for line in lines if line.strip() and not line.startswith("#"))
    bundled = WordLexicon.bundled()
    assert len(bundled) == len(expected)
    assert bundled._prefixes == expected._prefixes


# ---------------------------------------------------------------------------
# Gzip-or-plain inputs


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_input_opens_plain_or_gzip(tmp_path, compress):
    data = b"\x1f first line\nsecond\n"
    path = tmp_path / "input"
    path.write_bytes(gzip.compress(data) if compress else data)
    with open_input(path) as stream:
        assert stream.read() == data


def test_gzip_input_cut_short(tmp_path):
    path = tmp_path / "input.gz"
    path.write_bytes(gzip.compress(b"line\n" * 1000)[:20])
    with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}: gzip data cut short or corrupt"):
        with open_input(path) as stream:
            stream.read()
