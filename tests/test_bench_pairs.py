"""``tools/bench_pairs.py`` summarizes paired benchmark runs; these tests
feed its summary canned result lines and run no benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

BETTER = {"request_p90_ms": "lower", "uris_per_s": "higher", "peak_rss_mb": "lower"}


def result_line(p90, per_s, correct=True, failed=0):
    """A run's last line of output, as perfbench/run.py prints it."""
    metrics = {"request_p90_ms": {"value": p90, "unit": "ms"}, "uris_per_s": {"value": per_s, "unit": "URI/s"}}
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics})


PAIRS = [
    (result_line(3.0, 800.0), result_line(2.5, 900.0)),
    (result_line(2.0, 820.0), result_line(2.4, 880.0)),
    (result_line(2.8, 810.0), result_line(2.6, 790.0, failed=2)),
    (result_line(2.9, 805.0), result_line(2.9, 805.0, correct=False)),
]


def parsed_pairs():
    return [tuple(bench_pairs.result_of("metric lines above\n" + line + "\n") for line in pair) for pair in PAIRS]


def test_summary_rows_hold_quartiles_and_wins():
    rows = {row["metric"]: row for row in bench_pairs.summarize(parsed_pairs(), BETTER)}
    assert set(rows) == {"request_p90_ms", "uris_per_s"}  # peak_rss_mb is in no result
    p90 = rows["request_p90_ms"]
    assert p90["parent"] == pytest.approx((2.6, 2.85, 2.925))
    assert p90["change"] == pytest.approx((2.475, 2.55, 2.675))
    assert (p90["won"], p90["pairs"], p90["unit"]) == (2, 4, "ms")  # lower wins; a tie is no win
    per_s = rows["uris_per_s"]
    assert per_s["parent"] == pytest.approx((803.75, 807.5, 812.5))
    assert (per_s["won"], per_s["better"]) == (2, "higher")


def test_summary_lines_count_correct_runs_and_failures():
    pairs = parsed_pairs()
    lines = bench_pairs.format_summary(bench_pairs.summarize(pairs, BETTER), pairs)
    assert len(lines) == 5
    assert lines[1].split() == ["request_p90_ms", "lower", "2.85", "[2.6,", "2.925]", "ms", "2.55", "[2.475,", "2.675]",
                                "ms", "2/4"]
    assert lines[3] == "parent: 4 of 4 runs correct, 0 of 400 operations failed"
    assert lines[4] == "change: 3 of 4 runs correct, 2 of 400 operations failed"


def test_one_pair_has_its_values_as_quartiles():
    rows = bench_pairs.summarize(parsed_pairs()[:1], BETTER)
    assert rows[0]["parent"] == (3.0, 3.0, 3.0)
    assert rows[0]["won"] == 1


def test_seeds_as_a_range_or_a_list():
    assert bench_pairs.parse_seeds("801-804") == [801, 802, 803, 804]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]


def test_directions_come_from_the_benchmark_file():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    better = bench_pairs.directions(benchmark)
    assert better["request_p90_ms"] == "lower"
    assert better["uris_per_s"] == "higher"
