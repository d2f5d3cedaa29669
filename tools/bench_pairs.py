#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, in alternating order:

    python3 tools/bench_pairs.py PARENT CHANGE --workload serve-indexed \\
        --pairs 10 --seeds 801-810 --seconds 8

PARENT and CHANGE are checkout directories, each with its own
``perfbench/run.py`` and ``src/``. ``--workload`` names one workload, a
comma list of them, or ``all``, from the change's ``BENCHMARK.json``; an
unknown name stops the tool before any run. Each workload's pairs run in
turn, and each prints its own block. Pair ``i`` runs both on seed
``seeds[i % len(seeds)]``, one process at a time: the parent first in even
pairs and the change first in odd ones, so that a drift of the machine's
speed falls on both sides alike. Each run is ``perfbench/run.py --workload W
--seed S --seconds X`` in its own checkout, and its last line of output is
the result. Nothing under perfbench/ is changed.

For every end-to-end metric in the change's ``BENCHMARK.json``, it prints
the median and quartiles of each side and the number of pairs in which the
change was better, then how many runs were correct and how many operations
failed on each side. Last, it checks the no-regression rule: for each
metric, the change's median relative to the parent's, flagged where it is
worse than the parent's by more than the metric's ``bound`` (a fraction of
the parent's median). It exits 1 if any metric of any workload is flagged.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``801-806`` or ``801,803,805``."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def parse_workloads(text: str, names: list[str]) -> list[str]:
    """``all`` of ``names``, or the comma list ``text`` of some of them."""
    if text == "all":
        return names
    chosen = text.split(",")
    unknown = [name for name in chosen if name not in names]
    if unknown:
        raise SystemExit(f"--workload: unknown {', '.join(map(repr, unknown))}; "
                         f"BENCHMARK.json names {', '.join(names)}")
    return chosen


def result_of(stdout: str) -> dict:
    """The result a run printed: the JSON object on its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def directions(benchmark: dict) -> dict[str, str]:
    """Each end-to-end metric's better direction, ``lower`` or ``higher``."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def bounds(benchmark: dict) -> dict[str, float]:
    """Each end-to-end metric's bound: the fraction of the parent's median
    by which the change's median may be worse."""
    return {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric of ``better`` that every run reported: each side's
    quartiles, and the pairs in which the change beat the parent."""
    rows = []
    for name, direction in better.items():
        if not all(name in result["metrics"] for pair in pairs for result in pair):
            continue
        values = {side: [pair[i]["metrics"][name]["value"] for pair in pairs] for i, side in enumerate(SIDES)}
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (change - parent) > 0 for parent, change in zip(values["parent"], values["change"]))
        rows.append({
            "metric": name,
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": direction,
            **{side: quartiles(values[side]) for side in SIDES},
            "won": won,
            "pairs": len(pairs),
        })
    return rows


def format_summary(rows: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    lines = [f"{'metric':16} {'better':6}  {'parent median [q1, q3]':38}  {'change median [q1, q3]':38}  won"]
    for row in rows:
        cells = [f"{row[side][1]:.6g} [{row[side][0]:.6g}, {row[side][2]:.6g}] {row['unit']}" for side in SIDES]
        lines.append(f"{row['metric']:16} {row['better']:6}  {cells[0]:38}  {cells[1]:38}  {row['won']}/{row['pairs']}")
    for i, side in enumerate(SIDES):
        results = [pair[i] for pair in pairs]
        correct = sum(result["correct"] is True for result in results)
        failed = sum(result["failed"] for result in results)
        attempted = sum(result["attempted"] for result in results)
        lines.append(f"{side}: {correct} of {len(results)} runs correct, {failed} of {attempted} operations failed")
    return lines


def bound_checks(rows: list[dict], bound: dict[str, float]) -> list[dict]:
    """For each row of a metric with a bound: the change's median relative
    to the parent's (0.05 is 5% above it), and whether that is worse than
    the parent's by more than the bound."""
    checks = []
    for row in rows:
        if row["metric"] not in bound:
            continue
        parent, change = row["parent"][1], row["change"][1]
        if parent:
            relative = change / parent - 1.0
        else:  # no share of nothing: any move is past every bound
            relative = 0.0 if change == parent else math.copysign(math.inf, change - parent)
        worse = relative if row["better"] == "lower" else -relative
        checks.append({"metric": row["metric"], "relative": relative, "bound": bound[row["metric"]],
                       "over": worse > bound[row["metric"]]})
    return checks


def format_bounds(checks: list[dict]) -> list[str]:
    lines = ["change median against the parent's, and the bound on how much worse it may be"]
    for check in checks:
        verdict = "WORSE THAN ITS BOUND" if check["over"] else "ok"
        lines.append(f"{check['metric']:16} {check['relative']:+9.2%}  bound {check['bound']:.0%}  {verdict}")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited {done.returncode}\n{done.stderr[-2000:]}")
    return result_of(done.stdout)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, help="a workload, a comma list of them, or all")
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--pairs", type=int, help="default: one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    return parser.parse_args(argv)


def compare(workload: str, checkouts: dict[str, Path], seeds: list[int], seconds: float,
            benchmark: dict) -> bool:
    """Run one workload's pairs and print its block; whether a metric is flagged."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_once(checkouts[side], workload, seed, seconds) for side in order}
        pairs.append((results["parent"], results["change"]))
        print(f"{workload}: pair {i + 1}/{len(seeds)}, seed {seed}, {order[0]} first", file=sys.stderr, flush=True)
    print(f"{workload}, {len(seeds)} pairs, seeds {','.join(map(str, seeds))}, --seconds {seconds:g}")
    rows = summarize(pairs, directions(benchmark))
    checks = bound_checks(rows, bounds(benchmark))
    print("\n".join(format_summary(rows, pairs) + format_bounds(checks)), flush=True)
    return any(check["over"] for check in checks)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    count = args.pairs or len(args.seeds)
    if count < 1:
        raise SystemExit("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text("utf-8"))
    workloads = parse_workloads(args.workload, [workload["name"] for workload in benchmark["workloads"]])
    seeds = [args.seeds[i % len(args.seeds)] for i in range(count)]
    flagged = False
    for n, workload in enumerate(workloads):
        if n:
            print()
        flagged |= compare(workload, checkouts, seeds, args.seconds, benchmark)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
