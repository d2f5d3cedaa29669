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


def test_benchmark_self_checks_pass():
    """Runs the benchmark's setup and answer checks; writes only under the
    git-ignored ``perfbench/work/``."""
    completed = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
