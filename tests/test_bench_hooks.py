"""The benchmark's traced run wraps package functions by module and name;
every name it lists must still resolve, or ``--trace 1`` breaks. The
benchmark's own self-checks must pass against the program as it is."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def import_spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_span_target_resolves_and_unwinds():
    spans = import_spans()
    deep = importlib.import_module("archive_recommender.deep")
    original = deep.entry_features
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert deep.entry_features is not original
    finally:
        tracer.uninstall()
    assert deep.entry_features is original


def test_a_build_records_one_entry_features_span_per_entry():
    """``deep.entry_features.calls`` counts the entries that builds
    featurize, featureless ones too, each under the build that asked."""
    spans = import_spans()
    deep = importlib.import_module("archive_recommender.deep")
    ontology = importlib.import_module("archive_recommender.ontology")
    uri = importlib.import_module("archive_recommender.uri")
    entries = [
        ontology.OntologyEntry(ontology.CategoryPath.parse(path), link, uri.canonicalize_surt(link), title)
        for path, link, title in (
            ("A", "http://boards.example.com/", "boards and chips"),
            ("A/B", "http://chips.example.com/boards", None),
            ("A/B", "http://ab.cd/", None),  # no features
            ("C", "http://chips.example.org/", "chips"),
        )
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for grams in deep.GramScheme:
            deep.build_vector_index(ontology.CategoryIndex(entries), grams)
    finally:
        tracer.uninstall()
    builds = [s for s in tracer.spans if s.name == "deep.build_vector_index"]
    featurized = [s for s in tracer.spans if s.name == "deep.entry_features"]
    assert len(builds) == 2
    assert len(featurized) == 2 * len(entries)
    for build in builds:
        assert sum(s.parent == build.id for s in featurized) == len(entries)


def test_benchmark_self_checks_pass():
    """Runs the benchmark's setup and answer checks; writes only under the
    git-ignored ``perfbench/work/``."""
    completed = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
