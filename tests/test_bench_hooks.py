"""The benchmark's traced run wraps package functions by module and name;
every name it lists must still resolve, or ``--trace 1`` breaks."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_target_resolves_and_unwinds():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))
    deep = importlib.import_module("archive_recommender.deep")
    original = deep.entry_features
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert deep.entry_features is not original
    finally:
        tracer.uninstall()
    assert deep.entry_features is original
