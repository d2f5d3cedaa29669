"""``tools/bench_pairs.py`` summarizes paired benchmark runs; these tests
feed its summary canned result lines and run no benchmark."""

from __future__ import annotations

import importlib.util
import json
import math
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


def row(metric, better, parent, change):
    return {"metric": metric, "better": better, "parent": (0.0, parent, 0.0), "change": (0.0, change, 0.0)}


def test_bound_checks_flag_a_median_worse_than_its_bound():
    """A lower-is-better median 30% up and a higher-is-better one 10% down
    are worse; each is flagged where the bound is smaller than that. A
    metric with no bound is skipped."""
    rows = [
        row("request_p90_ms", "lower", 2.0, 2.6),
        row("uris_per_s", "higher", 800.0, 720.0),
        row("peak_rss_mb", "lower", 30.0, 29.0),
        row("setup_s", "lower", 1.0, 9.0),
    ]
    bound = {"request_p90_ms": 0.24, "uris_per_s": 0.15, "peak_rss_mb": 0.1}
    checks = {c["metric"]: c for c in bench_pairs.bound_checks(rows, bound)}
    assert list(checks) == ["request_p90_ms", "uris_per_s", "peak_rss_mb"]
    assert [checks[name]["relative"] for name in checks] == pytest.approx([0.3, -0.1, -1 / 30])
    assert [checks[name]["over"] for name in checks] == [True, False, False]
    assert bench_pairs.bound_checks(rows[1:2], {"uris_per_s": 0.05})[0]["over"] is True
    lines = bench_pairs.format_bounds(list(checks.values()))
    assert lines[1].split() == ["request_p90_ms", "+30.00%", "bound", "24%", "WORSE", "THAN", "ITS", "BOUND"]
    assert lines[2].split() == ["uris_per_s", "-10.00%", "bound", "15%", "ok"]


def test_bound_checks_read_the_medians_of_the_summary():
    rows = bench_pairs.summarize(parsed_pairs(), BETTER)
    checks = {c["metric"]: c for c in bench_pairs.bound_checks(rows, {"request_p90_ms": 0.24, "uris_per_s": 0.15})}
    assert checks["request_p90_ms"]["relative"] == pytest.approx(2.55 / 2.85 - 1)
    assert checks["uris_per_s"]["relative"] == pytest.approx(842.5 / 807.5 - 1)
    assert not any(c["over"] for c in checks.values())


def test_bound_checks_against_a_zero_parent_median():
    (same,) = bench_pairs.bound_checks([row("setup_s", "lower", 0.0, 0.0)], {"setup_s": 0.25})
    (worse,) = bench_pairs.bound_checks([row("setup_s", "lower", 0.0, 0.1)], {"setup_s": 0.25})
    assert (same["relative"], same["over"]) == (0.0, False)
    assert (worse["relative"], worse["over"]) == (math.inf, True)


def test_seeds_as_a_range_or_a_list():
    assert bench_pairs.parse_seeds("801-804") == [801, 802, 803, 804]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]


def test_directions_come_from_the_benchmark_file():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    better = bench_pairs.directions(benchmark)
    assert better["request_p90_ms"] == "lower"
    assert better["uris_per_s"] == "higher"
    bound = bench_pairs.bounds(benchmark)
    assert bound.keys() == better.keys()
    assert bound["peak_rss_mb"] == 0.1


NAMES = ["serve-lost", "serve-indexed", "batch"]


def test_workloads_as_one_a_list_or_all():
    assert bench_pairs.parse_workloads("batch", NAMES) == ["batch"]
    assert bench_pairs.parse_workloads("batch,serve-lost", NAMES) == ["batch", "serve-lost"]
    assert bench_pairs.parse_workloads("all", NAMES) == NAMES


@pytest.mark.parametrize("text", ["serve", "batch,", "batch,serve-lots", "ALL"])
def test_an_unknown_workload_is_refused(text):
    with pytest.raises(SystemExit, match="--workload: unknown"):
        bench_pairs.parse_workloads(text, NAMES)


@pytest.fixture
def checkouts(tmp_path):
    """A parent and a change checkout holding only the repository's BENCHMARK.json."""
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text("utf-8"), "utf-8")
    return tmp_path


def canned_runs(monkeypatch, slower: set[str]) -> list[tuple[str, str, int]]:
    """Stand in for ``run_once``: each run returns a canned result, the
    change's p90 twice the parent's on the ``slower`` workloads. Returns the
    runs made, as (side, workload, seed)."""
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed))
        p90 = 2.0 if checkout.name == "change" and workload in slower else 1.0
        return bench_pairs.result_of(result_line(p90, 800.0))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return runs


def main_of(checkouts, workload):
    return bench_pairs.main([str(checkouts / "parent"), str(checkouts / "change"), "--workload", workload,
                             "--seeds", "5,6", "--seconds", "1"])


def test_every_workload_runs_its_pairs_in_turn(monkeypatch, capsys, checkouts):
    runs = canned_runs(monkeypatch, slower=set())
    assert main_of(checkouts, "all") == 0
    assert runs == [(side, workload, seed) for workload in NAMES
                    for seed, order in ((5, bench_pairs.SIDES), (6, bench_pairs.SIDES[::-1])) for side in order]
    out = capsys.readouterr().out
    heads = [line for line in out.splitlines() if ", 2 pairs, seeds 5,6, --seconds 1" in line]
    assert heads == [f"{workload}, 2 pairs, seeds 5,6, --seconds 1" for workload in NAMES]
    assert "WORSE THAN ITS BOUND" not in out


def test_one_flagged_workload_makes_the_exit_status_1(monkeypatch, capsys, checkouts):
    canned_runs(monkeypatch, slower={"serve-indexed"})
    assert main_of(checkouts, "serve-lost,serve-indexed,batch") == 1
    blocks = capsys.readouterr().out.split("\n\n")
    assert [block.split(",", 1)[0] for block in blocks] == NAMES
    assert ["WORSE THAN ITS BOUND" in block for block in blocks] == [False, True, False]
    canned_runs(monkeypatch, slower={"serve-indexed"})
    assert main_of(checkouts, "batch,serve-lost") == 0


def test_an_unknown_workload_stops_before_any_run(monkeypatch, checkouts):
    runs = canned_runs(monkeypatch, slower=set())
    with pytest.raises(SystemExit):
        main_of(checkouts, "batch,serve-lots")
    assert runs == []
