"""The fixture builder refuses requests its word pools cannot satisfy."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

BUILDER = Path(__file__).resolve().parent.parent / "tools" / "build_fixtures.py"
POOL = ["alpha", "bravo", "delta", "hotel", "india", "kilo", "lima", "oscar", "tango", "zulu"]


def load_builder():
    spec = importlib.util.spec_from_file_location("build_fixtures", BUILDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synth_entries_guards_against_exhausted_pool():
    builder = load_builder()
    rows = builder.synth_entries(random.Random(1), "Arts/Music", POOL, 450, set())
    assert len(rows) == 450  # all 90 ordered pairs of ten words
    with pytest.raises(ValueError, match="92 compounds"):
        builder.synth_entries(random.Random(1), "Arts/Music", POOL, 460, set())
