#!/usr/bin/env python3
"""Where one benchmark workload's memory goes, run from the root of a checkout:

    python3 tools/mem_breakdown.py --workload serve-lost --seed 77 --top 15

Generates the workload's inputs with perfbench/gen.py, then sets the
program up once and runs one round with perfbench/run.py's runners, as the
benchmark does. It prints two things, each from a fresh interpreter with
the benchmark's PYTHONHASHSEED of 0:

- the process's resident set after generation, after set-up and after the
  round, current and peak (the peak is the benchmark's ``peak_rss_mb``);
- what tracemalloc finds retained after set-up and the round, tracing from
  the start of set-up: the total, the share allocated under src/, and the
  ``--top`` source lines under src/ that hold the most.

Tracing costs memory of its own, so the resident sets come from an
untraced interpreter. Nothing under perfbench/ is changed, and the inputs
live in a temporary directory that is removed at the end.
"""
from __future__ import annotations

import argparse
import linecache
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import gen  # noqa: E402
import run  # noqa: E402
from clock import Clock  # noqa: E402

PARTS = ("rss", "trace")
MIB = 1024 * 1024


class Unprobed(Clock):
    """Times nothing but the operations: the round's times are not wanted
    here, and traced probes would take most of the run."""

    def probe(self) -> None:
        pass


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=15, help="source lines listed (default 15)")
    parser.add_argument("--part", choices=PARTS, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def rss_mib() -> tuple[float | None, float]:
    """The current resident set, where /proc tells it, and the peak."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
        current = pages * os.sysconf("SC_PAGE_SIZE") / MIB
    except (OSError, ValueError, IndexError):
        current = None
    return current, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_rss(stage: str) -> None:
    current, peak = rss_mib()
    shown = "-" if current is None else f"{current:.2f}"
    print(f"rss after {stage:<12} current {shown:>8} MiB   peak {peak:8.2f} MiB", flush=True)


def report_trace(snapshot: tracemalloc.Snapshot, top: int) -> None:
    ours = snapshot.filter_traces([tracemalloc.Filter(True, str(SRC / "*"))])
    total = sum(stat.size for stat in snapshot.statistics("filename"))
    in_src = sum(stat.size for stat in ours.statistics("filename"))
    print(f"tracemalloc retained {total / MIB:.2f} MiB, of which src/ {in_src / MIB:.2f} MiB")
    for stat in ours.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        where = f"{Path(frame.filename).relative_to(ROOT).as_posix()}:{frame.lineno}"
        text = linecache.getline(frame.filename, frame.lineno).strip()
        print(f"{stat.size / 1024:10.1f} KiB {stat.count:8} blocks  {where}  {text}")


def run_part(args: argparse.Namespace) -> int:
    """Generation, set-up and one round in this interpreter, reporting
    ``args.part``."""
    tracing = args.part == "trace"
    with tempfile.TemporaryDirectory() as tmp:
        truth = gen.generate(args.workload, args.seed, Path(tmp) / "work")
        runner = (run.Batch if args.workload == "batch" else run.Serving)(truth)
        if tracing:
            tracemalloc.start()
        else:
            report_rss("generation")
        runner.setup()
        if not tracing:
            report_rss("set-up")
        outcome = run.Outcome()
        runner.round(outcome, Unprobed())
        if tracing:
            snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()
            report_trace(snapshot, args.top)
        else:
            report_rss("round")
    if not outcome.correct or outcome.failed:
        print(f"mem_breakdown: {outcome.failed} of {outcome.attempted} operations failed",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.part:
        return run_part(args)
    print(f"{args.workload}, seed {args.seed}", flush=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    for part in PARTS:
        done = subprocess.run([sys.executable, __file__, *argv, "--part", part], env=env)
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
