"""Directory ingest, category index, persistence, and secondary lookup."""

from __future__ import annotations

import gzip
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from archive_recommender import reports
from archive_recommender.ontology import (
    CategoryIndex,
    CategoryPath,
    FixtureOntologyProvider,
    IngestFormat,
    LookupOutcome,
    OntologyEntry,
    RETAINED_TOP_CATEGORIES,
    SecondaryRecord,
    corpus_stats,
    ingest_dmoz,
    load_index,
    lookup_requested,
    save_index,
)
from archive_recommender.uri import (
    InputFileError, ParsedUri, TokenMethod, canonicalize_surt, content_lines, parse_uri, read_lines, tokenize,
)

TSV_SAMPLE = b"""\
Computers/Internet\thttp://a.example.com/\tTitle A\tAbout A
Computers/Internet\thttp://A.EXAMPLE.COM:80/\tDuplicate\t
World/Deutsch\thttp://b.example.de/\tDropped\t
Regional/Europe\thttp://c.example.fr/\tDropped too\t
Sports/Baseball\thttp://d.example.com/\t\t
\thttp://missing-category.example.com/
Computers/Internet\t
///\thttp://e.example.com/\t\t
Computers/Internet\thttp://bad host/\t\t
"""


def entry(category: str, uri: str, title=None, description=None) -> OntologyEntry:
    return OntologyEntry(
        category=CategoryPath.parse(category),
        uri=uri,
        surt=canonicalize_surt(uri),
        title=title,
        description=description,
    )


class TestCategoryPath:
    def test_parse_and_str(self):
        p = CategoryPath.parse("Computers/Internet/Protocols")
        assert str(p) == "Computers/Internet/Protocols"
        assert len(p) == 3
        assert p.top == "Computers"

    def test_parse_strips_top_prefix(self):
        assert str(CategoryPath.parse("Top/Computers/Internet")) == "Computers/Internet"
        assert str(CategoryPath.parse("/Computers/")) == "Computers"

    def test_prefix_and_ancestors(self):
        p = CategoryPath.parse("A/B/C")
        assert [str(a) for a in p.ancestors()] == ["A", "A/B"]
        assert CategoryPath.parse("A/B").is_prefix_of(p)
        assert not CategoryPath.parse("A/C").is_prefix_of(p)

    def test_ordering_is_lexicographic(self):
        paths = sorted(CategoryPath.parse(t) for t in ["B/A", "A/C", "A/B/D", "A/B"])
        assert [str(p) for p in paths] == ["A/B", "A/B/D", "A/C", "B/A"]

    def test_invalid(self):
        with pytest.raises(ValueError):
            CategoryPath(())
        with pytest.raises(ValueError):
            CategoryPath(("A", ""))


def dump(tmp_path, data: bytes, name: str = "dump.tsv"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


class TestIngestTsv:
    def test_filtering_and_counts(self, tmp_path):
        index, report = ingest_dmoz(dump(tmp_path, TSV_SAMPLE))
        assert len(index) == 2
        kept = {e.uri for e in index.all_entries()}
        assert kept == {"http://a.example.com/", "http://d.example.com/"}
        assert report.records_read == 9
        assert report.kept == 2
        assert report.dropped_category == 2
        assert report.duplicates == 1
        assert report.dropped_missing == 2
        assert report.malformed == 2
        assert report.warnings

    def test_first_record_wins_dedup(self, tmp_path):
        index, _ = ingest_dmoz(dump(tmp_path, TSV_SAMPLE))
        surt = canonicalize_surt("http://a.example.com/")
        assert index.lookup_surt(surt).title == "Title A"

    def test_gzip_transparent(self, tmp_path):
        index, _ = ingest_dmoz(dump(tmp_path, gzip.compress(TSV_SAMPLE), "dump.tsv.gz"))
        assert len(index) == 2

    def test_category_constants(self):
        assert len(RETAINED_TOP_CATEGORIES) == 13


class TestIngestRdf:
    RDF = b"""<?xml version="1.0" encoding="UTF-8"?>
<RDF xmlns:r="http://www.w3.org/TR/RDF/" xmlns:d="http://purl.org/dc/elements/1.0/">
  <ExternalPage about="http://a.example.com/">
    <d:Title>Alpha</d:Title>
    <d:Description>First page</d:Description>
    <topic>Top/Computers/Internet</topic>
  </ExternalPage>
  <ExternalPage about="http://b.example.de/">
    <d:Title>Beta</d:Title>
    <topic>Top/World/Deutsch</topic>
  </ExternalPage>
</RDF>
"""

    def test_rdf_ingest(self, tmp_path):
        index, report = ingest_dmoz(dump(tmp_path, self.RDF, "dump.rdf"), IngestFormat.RDF)
        assert len(index) == 1
        e = index.lookup_surt(canonicalize_surt("http://a.example.com/"))
        assert e.title == "Alpha"
        assert e.description == "First page"
        assert str(e.category) == "Computers/Internet"
        assert report.dropped_category == 1
        assert report.duplicates == 0

    def test_repeated_about_is_one_duplicate(self, tmp_path):
        repeated = self.RDF.replace(b"</RDF>", b"""  <ExternalPage about="HTTP://A.example.com:80/">
    <d:Title>Alpha again</d:Title>
    <topic>Top/Science/Physics</topic>
  </ExternalPage>
</RDF>""")
        index, report = ingest_dmoz(dump(tmp_path, repeated, "dump.rdf"), IngestFormat.RDF)
        assert (report.records_read, report.kept, report.dropped_category) == (3, 1, 1)
        assert report.duplicates == 1
        assert index.lookup_surt(canonicalize_surt("http://a.example.com/")).title == "Alpha"

    def test_truncated_rdf_is_fatal(self, tmp_path):
        path = dump(tmp_path, self.RDF[:120], "dump.rdf")
        with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}: malformed RDF"):
            ingest_dmoz(path, IngestFormat.RDF)

    def test_fixture_rdf_sample(self, fixtures_dir):
        index, report = ingest_dmoz(fixtures_dir / "dmoz_sample.rdf", IngestFormat.RDF)
        assert len(index) == 3
        assert report.dropped_category == 2


class TestCategoryIndex:
    def make(self) -> CategoryIndex:
        return CategoryIndex(
            [
                entry("Computers/Internet", "http://a.com/"),
                entry("Computers/Internet/Protocols", "http://b.com/"),
                entry("Computers/Software", "http://c.com/"),
                entry("Sports/Baseball", "http://d.com/"),
            ]
        )

    def test_entries_for_exact_category(self):
        index = self.make()
        assert [e.uri for e in index.entries_for("Computers/Internet")] == ["http://a.com/"]
        assert index.entries_for("Computers") == []

    def test_entries_under_prefix(self):
        index = self.make()
        under = index.entries_under(CategoryPath.parse("Computers/Internet"))
        assert {e.uri for e in under} == {"http://a.com/", "http://b.com/"}
        everything = index.entries_under(CategoryPath.parse("Computers"))
        assert len(everything) == 3

    def test_entries_under_in_category_order(self):
        index = CategoryIndex(list(reversed(list(self.make().all_entries()))))
        under = index.entries_under(CategoryPath.parse("Computers"))
        assert [str(e.category) for e in under] == [
            "Computers/Internet",
            "Computers/Internet/Protocols",
            "Computers/Software",
        ]

    def test_paths_whose_text_parses_to_another_path(self):
        """A path whose first label is Top, or whose text has outer
        whitespace, prints as text that parses to another path. Each group
        is still listed under its own path, once."""
        labels = [("Arts", "Music"), ("Arts ", "Music"), ("Top", "Arts", "Music"), ("Arts", "Music ")]
        entries = [
            OntologyEntry(category=CategoryPath(path), uri=f"http://{i}.example/", surt=canonicalize_surt(f"http://{i}.example/"))
            for i, path in enumerate(labels)
        ]
        index = CategoryIndex(entries)
        assert index.categories() == sorted(CategoryPath(path) for path in labels)
        assert [e.uri for e in index.entries_under(CategoryPath(("Arts",)))] == ["http://0.example/", "http://3.example/"]
        assert [e.uri for e in index.entries_under(CategoryPath(("Top",)))] == ["http://2.example/"]
        listed = [e.uri for path in index.categories() for e in index.entries_for(path)]
        assert sorted(listed) == sorted(e.uri for e in entries)

    def test_all_entries_by_top_category(self):
        counts = Counter(e.category.top for e in self.make().all_entries())
        assert counts == {"Computers": 3, "Sports": 1}

    def test_entry_tokens_worked_out_once(self, monkeypatch):
        from archive_recommender import ontology

        calls = []

        def counted(*args):
            calls.append(args)
            return tokenize(*args)

        monkeypatch.setattr(ontology, "tokenize", counted)
        e = entry("Computers", "http://News.Example.com/News/World-Cup_2014?q=news")
        # the features themselves, in order and with repeats, not a set of them
        assert e.tokens == ("news", "example", "com", "news", "world", "cup", "news")
        assert e.tokens == tokenize(e.uri, TokenMethod.TOKENS).features
        assert e.tokens is e.tokens
        assert len(calls) == 1
        assert e == entry("Computers", e.uri)  # the kept tuple is no field
        assert "tokens" not in repr(e)

    def test_dedup_by_surt(self):
        index = CategoryIndex(
            [entry("Computers", "http://a.com/"), entry("Sports", "https://A.COM:443/")]
        )
        assert len(index) == 1
        assert str(index.lookup_surt(canonicalize_surt("http://a.com/")).category) == "Computers"


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        original = CategoryIndex(
            [
                entry("Computers/Internet", "http://a.com/", "A", "first"),
                entry("Sports/Baseball", "http://d.com/x", None, None),
            ]
        )
        path = tmp_path / "index.tsv"
        save_index(original, path)
        assert (tmp_path / "index.tsv.surt").exists()
        loaded = load_index(path)
        assert len(loaded) == 2
        a = loaded.lookup_surt(canonicalize_surt("http://a.com/"))
        assert a.title == "A" and a.description == "first"
        assert {e.surt for e in loaded.all_entries()} == {
            e.surt for e in original.all_entries()
        }

    def test_save_is_deterministic(self, tmp_path):
        index = CategoryIndex(
            [entry("B/X", "http://b.com/"), entry("A/Y", "http://a.com/")]
        )
        save_index(index, tmp_path / "one.tsv")
        save_index(index, tmp_path / "two.tsv")
        assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "two.tsv").read_bytes()
        first_line = (tmp_path / "one.tsv").read_text().splitlines()[0]
        assert first_line.startswith("A/Y\t")

    def test_load_without_sidecar_recomputes(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("Computers/Internet\thttp://a.com/\t\t\n", "utf-8")
        loaded = load_index(path)
        assert loaded.lookup_surt(canonicalize_surt("http://a.com/")) is not None

    def test_bundled_sidecar_matches_canonical_surts(self, fixtures_dir):
        # the sidecar SURT keys each candidate's cached evidence, so it must be
        # the key canonicalize_surt gives the URI
        assert (fixtures_dir / "index.tsv.surt").exists()
        entries = list(load_index(fixtures_dir / "index.tsv").all_entries())
        assert len(entries) > 400
        assert [e.uri for e in entries if e.surt != canonicalize_surt(e.uri)] == []

    def test_bundled_fixture_loads(self, corpus_index):
        assert len(corpus_index) > 400
        tops = {e.category.top for e in corpus_index.all_entries()}
        assert tops <= RETAINED_TOP_CATEGORIES
        assert len(corpus_index.entries_for(
            "Computers/Computer_Science/Academic_Departments/North_America/United_States/Virginia"
        )) == 10


def load_index_per_row(path) -> CategoryIndex:
    """``load_index`` as it was, parsing each row's category on its own."""
    rows = []
    for lineno, line in content_lines(read_lines(path)):
        parts = line.split("\t")
        parts += [""] * (4 - len(parts))
        try:
            category = CategoryPath.parse(parts[0])
        except ValueError as exc:
            raise InputFileError(f"{path}:{lineno}: malformed index row {line!r}: {exc}") from None
        rows.append((category, parts[1], parts[2], parts[3]))
    surt_path = Path(str(path) + ".surt")
    surts = read_lines(surt_path) if surt_path.exists() else None
    if surts is not None and len(surts) != len(rows):
        surts = None
    return CategoryIndex(
        OntologyEntry(category=category, uri=uri, surt=surts[i] if surts else canonicalize_surt(uri),
                      title=title or None, description=description or None)
        for i, (category, uri, title, description) in enumerate(rows)
    )


def loaded_or_message(load, path):
    try:
        return list(load(path).all_entries())
    except InputFileError as exc:
        return str(exc)


# Spellings of two paths, and texts that are no path
CATEGORY_TEXTS = st.sampled_from(
    ["Arts/Music", "Top/Arts/Music", "/Arts/Music/", " Arts//Music", "Arts", "Top/Arts", "", "///", "Top", "Top/"]
)


class TestOnePathPerCategoryText:
    """``load_index`` parses each distinct category text once, and its rows
    share the path."""

    def test_fixture_rows_share_one_path_per_category(self, fixtures_dir):
        path = fixtures_dir / "index.tsv"
        entries = list(load_index(path).all_entries())
        assert entries == loaded_or_message(load_index_per_row, path)
        by_text: dict[str, set[int]] = {}
        for e in entries:
            by_text.setdefault(str(e.category), set()).add(id(e.category))
        assert len(by_text) > 1 and all(len(ids) == 1 for ids in by_text.values())

    @given(texts=st.lists(CATEGORY_TEXTS, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_same_index_or_message_as_a_parse_per_row(self, tmp_path_factory, texts):
        path = tmp_path_factory.mktemp("index", numbered=True) / "index.tsv"
        uris = [f"http://h{k}.example.com/" for k in range(len(texts))]
        path.write_text("".join(f"{text}\t{uri}\n" for text, uri in zip(texts, uris)), "utf-8")
        outcome = loaded_or_message(load_index, path)
        assert outcome == loaded_or_message(load_index_per_row, path)
        if isinstance(outcome, str):
            event("malformed")
            return
        text_of = dict(zip(uris, texts))
        ids_by_text: dict[str, set[int]] = {}
        for e in outcome:
            ids_by_text.setdefault(text_of[e.uri], set()).add(id(e.category))
        assert all(len(ids) == 1 for ids in ids_by_text.values())
        assert len(set().union(*ids_by_text.values())) == len(ids_by_text)

    def test_malformed_category_named_at_its_line(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("Arts/Music\thttp://a.com/\n# note\nArts/Music\thttp://b.com/\nTop/\thttp://c.com/\n", "utf-8")
        with pytest.raises(InputFileError) as raised:
            load_index(path)
        assert str(raised.value) == (
            f"{path}:4: malformed index row 'Top/\\thttp://c.com/': category path needs at least one label"
        )
        assert str(raised.value) == loaded_or_message(load_index_per_row, path)


class TestSecondaryLookup:
    def make_index(self) -> CategoryIndex:
        return CategoryIndex([entry("Computers/Internet", "http://known.com/")])

    def test_primary_hit(self):
        uri = "http://known.com/"
        outcome = lookup_requested(self.make_index(), None, uri, canonicalize_surt(uri))
        assert outcome.found and outcome.source == "primary"
        assert str(outcome.category) == "Computers/Internet"
        assert [e.uri for e in outcome.entries] == ["http://known.com/"]

    def test_miss_without_secondary(self):
        uri = "http://unknown.com/"
        outcome = lookup_requested(self.make_index(), None, uri, canonicalize_surt(uri))
        assert not outcome.found and outcome.source == "none"

    def test_secondary_hit(self, tmp_path):
        record = {
            "official_uri": "http://team.example.com/",
            "categories": ["Sports", "Baseball/Teams"],
            "members": ["http://fanclub.example.org/", "not a uri"],
        }
        path = tmp_path / "secondary.jsonl"
        path.write_text(json.dumps(record) + "\n", "utf-8")
        provider = FixtureOntologyProvider(path)
        uri = "HTTP://TEAM.EXAMPLE.COM:80/"
        outcome = lookup_requested(self.make_index(), provider, uri, canonicalize_surt(uri))
        assert outcome.found and outcome.source == "secondary"
        assert str(outcome.category) == "Sports/Baseball_Teams"
        assert [e.uri for e in outcome.entries] == ["http://fanclub.example.org/"]
        assert "unparseable" in outcome.warning

    @pytest.mark.parametrize(
        "category, source, found",
        [(CategoryPath(("Computers",)), "primary", True), (CategoryPath(("Sports", "Teams")), "secondary", True),
         (None, "none", False)],
    )
    def test_found_is_having_a_category(self, category, source, found):
        assert LookupOutcome(category=category, entries=[], source=source).found is found

    def test_failing_provider_degrades(self):
        class Boom:
            def lookup(self, uri):
                raise RuntimeError("socket timeout")

        uri = "http://unknown.com/"
        outcome = lookup_requested(self.make_index(), Boom(), uri, canonicalize_surt(uri))
        assert not outcome.found
        assert "failed" in outcome.warning

    def test_fixture_provider_file(self, fixtures_dir):
        provider = FixtureOntologyProvider(fixtures_dir / "secondary_ontology.jsonl")
        record = provider.lookup("https://MickeyMantle.com")  # SURT-equivalent form
        assert isinstance(record, SecondaryRecord)
        assert record.members
        assert provider.lookup("http://www.mickeymantle.com/") is None  # www is a different SURT


# Any JSON value, with lone surrogates in its text.
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ANY_TEXT, inner, max_size=3),
    max_leaves=8,
)
RECORD_URIS = ANY_TEXT | st.sampled_from(
    ["http://team.example.com/", "HTTP://TEAM.EXAMPLE.COM:80/", "fan.example.org", "http://", "", "not a uri",
     "http://[::1/x", "http://bad host/", "http://128.82.4.1/x"]
)
# A record the provider loads: an official URI that parses, categories that
# are non-empty strings, members that are any array.
LOADABLE_RECORDS = st.fixed_dictionaries(
    {"official_uri": st.from_regex(r"(https?://)?[a-z]{1,6}\.(example|com)(:80)?/?", fullmatch=True)},
    optional={
        "categories": st.lists(st.text(st.characters(exclude_categories=()), min_size=1, max_size=8), max_size=3),
        "members": st.lists(RECORD_URIS | ANY_JSON, max_size=3),
    },
)
# A line with any value in each field, or any JSON value at all.
ANY_LINES = ANY_JSON | st.fixed_dictionaries(
    {},
    optional={
        "official_uri": RECORD_URIS | ANY_JSON,
        "categories": st.lists(RECORD_URIS | ANY_JSON, max_size=3) | ANY_JSON,
        "members": st.lists(RECORD_URIS | ANY_JSON, max_size=3) | ANY_JSON,
    },
)


@pytest.fixture(scope="module")
def secondary_path(tmp_path_factory):
    return tmp_path_factory.mktemp("secondary") / "secondary.jsonl"


@given(
    loadable=st.lists(LOADABLE_RECORDS, min_size=1, max_size=3),
    other=st.none() | ANY_LINES,
    where=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_secondary_file_loads_or_names_its_line(secondary_path, loadable, other, where):
    """A secondary ontology either loads, and then looking up any of its
    official URIs raises nothing, or raises InputFileError naming the path,
    the line and its text. One line of any value may join loadable ones."""
    records = loadable[:where] + ([] if other is None else [other]) + loadable[where:]
    lines = [json.dumps(record) for record in records]
    secondary_path.write_text("".join(line + "\n" for line in lines), "utf-8")
    try:
        provider = FixtureOntologyProvider(secondary_path)
    except InputFileError as exc:
        location, _, rest = str(exc).partition(": malformed ontology record ")
        path, _, lineno = location.rpartition(":")
        assert path == str(secondary_path)
        assert rest.startswith(repr(lines[int(lineno) - 1]) + ": ")
        assert other is not None and lines[int(lineno) - 1] == json.dumps(other)
        event("rejected")
        return
    event("loaded")
    index = CategoryIndex([entry("Computers/Internet", "http://known.com/")])
    for record in records:
        uri = record["official_uri"]
        outcome = lookup_requested(index, provider, uri, canonicalize_surt(uri))
        assert lookup_requested(index, provider, uri, canonicalize_surt(uri)) == outcome


def test_corpus_stats_smoke(corpus_index):
    report = corpus_stats(corpus_index)
    records = report.to_records()
    sections = {r["section"] for r in records}
    assert {"tld", "depth", "category"} <= sections
    table = report.to_table()
    assert "tld" in table


class TestDictionaryBucketMemo:
    """``analyze_uris`` segments each distinct host-letter string once per call."""

    @pytest.fixture
    def bucket_calls(self, monkeypatch):
        calls: list[str] = []
        real = reports.dictionary_bucket

        def counted(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(reports, "dictionary_bucket", counted)
        return calls

    def test_one_segmentation_per_distinct_label(self, corpus_index, bucket_calls):
        corpus_stats(corpus_index)
        assert len(bucket_calls) == len(set(bucket_calls)) == 125
        assert len(corpus_index) == 489

    def test_no_state_outlives_a_call(self, corpus_index, bucket_calls):
        corpus_stats(corpus_index)
        first = list(bucket_calls)
        corpus_stats(corpus_index)
        assert bucket_calls == first + first

    def test_report_equals_one_built_without_the_memo(self, corpus_index):
        report = corpus_stats(corpus_index)
        buckets = Counter(
            reports.host_dictionary_bucket(parse_uri(entry.uri))
            for entry in corpus_index.all_entries()
        )
        assert report.dictionary == buckets
        assert sum(report.dictionary.values()) == report.total == 489


@given(
    st.one_of(st.text(), st.text(alphabet="abzAZ09-.ßİKéı")),
    st.sampled_from(["", "com", "co.uk"]),
)
@example("web-2shop", "")
@example("Straße", "com")
@example("İstanbul", "")  # İ lowers to "i" and a combining dot
@example("\u212aiel", "com")  # the Kelvin sign lowers to an ASCII "k"
def test_host_letters_are_the_ascii_letters_of_the_lowered_label(label, tld):
    registered = f"{label}.{tld}" if tld else label
    parsed = ParsedUri(scheme="http", host=registered.lower(), port=None, path="/", query=None,
                       registered_domain=registered, tld=tld, is_ip_host=False, host_as_written=registered)
    expected = "".join(ch for ch in label.lower() if ch in "abcdefghijklmnopqrstuvwxyz")
    assert reports._host_letters(parsed) == expected
