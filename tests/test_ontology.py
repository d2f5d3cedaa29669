"""Directory ingest, category index, persistence, and secondary lookup."""

from __future__ import annotations

import gzip
import io
import json
from collections import Counter

import pytest

from archive_recommender.ontology import (
    CategoryIndex,
    CategoryPath,
    DROPPED_TOP_CATEGORIES,
    FixtureOntologyProvider,
    IngestFormat,
    OntologyEntry,
    RETAINED_TOP_CATEGORIES,
    SecondaryRecord,
    corpus_stats,
    ingest_dmoz,
    load_index,
    lookup_requested,
    save_index,
)
from archive_recommender.uri import canonicalize_surt

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


class TestIngestTsv:
    def test_filtering_and_counts(self):
        index = ingest_dmoz(io.BytesIO(TSV_SAMPLE))
        assert len(index) == 2
        kept = {e.uri for e in index.all_entries()}
        assert kept == {"http://a.example.com/", "http://d.example.com/"}
        report = index.ingest_report
        assert report.kept == 2
        assert report.dropped_category == 2
        assert report.duplicates == 1
        assert report.dropped_missing == 2
        assert report.malformed == 2
        assert report.warnings

    def test_first_record_wins_dedup(self):
        index = ingest_dmoz(io.BytesIO(TSV_SAMPLE))
        surt = canonicalize_surt("http://a.example.com/")
        assert index.lookup_surt(surt).title == "Title A"

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "dump.tsv.gz"
        path.write_bytes(gzip.compress(TSV_SAMPLE))
        index = ingest_dmoz(path)
        assert len(index) == 2

    def test_category_constants(self):
        assert len(RETAINED_TOP_CATEGORIES) == 13
        assert not RETAINED_TOP_CATEGORIES & DROPPED_TOP_CATEGORIES
        assert "Regional" in DROPPED_TOP_CATEGORIES


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

    def test_rdf_ingest(self):
        index = ingest_dmoz(io.BytesIO(self.RDF), IngestFormat.RDF)
        assert len(index) == 1
        e = index.lookup_surt(canonicalize_surt("http://a.example.com/"))
        assert e.title == "Alpha"
        assert e.description == "First page"
        assert str(e.category) == "Computers/Internet"
        assert index.ingest_report.dropped_category == 1

    def test_truncated_rdf_is_fatal(self):
        with pytest.raises(Exception):
            ingest_dmoz(io.BytesIO(self.RDF[:120]), IngestFormat.RDF)

    def test_fixture_rdf_sample(self, fixtures_dir):
        index = ingest_dmoz(fixtures_dir / "dmoz_sample.rdf", IngestFormat.RDF)
        assert len(index) == 3
        assert index.ingest_report.dropped_category == 2


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

    def test_all_entries_by_top_category(self):
        counts = Counter(e.category.top for e in self.make().all_entries())
        assert counts == {"Computers": 3, "Sports": 1}

    def test_dedup_by_surt(self):
        index = CategoryIndex(
            [entry("Computers", "http://a.com/"), entry("Sports", "https://A.COM:443/")]
        )
        assert len(index) == 1
        assert index.deduplicated == 1


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

    def test_bundled_fixture_loads(self, corpus_index):
        assert len(corpus_index) > 400
        tops = {e.category.top for e in corpus_index.all_entries()}
        assert tops <= RETAINED_TOP_CATEGORIES
        assert len(corpus_index.entries_for(
            "Computers/Computer_Science/Academic_Departments/North_America/United_States/Virginia"
        )) == 10


class TestSecondaryLookup:
    def make_index(self) -> CategoryIndex:
        return CategoryIndex([entry("Computers/Internet", "http://known.com/")])

    def test_primary_hit(self):
        outcome = lookup_requested(self.make_index(), None, "http://known.com/")
        assert outcome.found and outcome.source == "primary"
        assert str(outcome.category) == "Computers/Internet"
        assert [e.uri for e in outcome.entries] == ["http://known.com/"]

    def test_miss_without_secondary(self):
        outcome = lookup_requested(self.make_index(), None, "http://unknown.com/")
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
        outcome = lookup_requested(self.make_index(), provider, "HTTP://TEAM.EXAMPLE.COM:80/")
        assert outcome.found and outcome.source == "secondary"
        assert str(outcome.category) == "Sports/Baseball_Teams"
        assert [e.uri for e in outcome.entries] == ["http://fanclub.example.org/"]
        assert "unparseable" in outcome.warning

    def test_failing_provider_degrades(self):
        class Boom:
            def lookup(self, uri):
                raise RuntimeError("socket timeout")

        outcome = lookup_requested(self.make_index(), Boom(), "http://unknown.com/")
        assert not outcome.found
        assert "failed" in outcome.warning

    def test_fixture_provider_file(self, fixtures_dir):
        provider = FixtureOntologyProvider(fixtures_dir / "secondary_ontology.jsonl")
        record = provider.lookup("https://MickeyMantle.com")  # SURT-equivalent form
        assert isinstance(record, SecondaryRecord)
        assert record.members
        assert provider.lookup("http://www.mickeymantle.com/") is None  # www is a different SURT


def test_corpus_stats_smoke(corpus_index):
    report = corpus_stats(corpus_index)
    records = report.to_records()
    sections = {r["section"] for r in records}
    assert {"tld", "depth", "category"} <= sections
    table = report.to_table()
    assert "tld" in table
