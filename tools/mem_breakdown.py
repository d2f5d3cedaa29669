#!/usr/bin/env python3
"""Where one benchmark workload's memory goes, run from the root of a checkout:

    python3 tools/mem_breakdown.py --workload serve-lost --seed 77 --top 15

Generates the workload's inputs with perfbench/gen.py, then sets the
program up once and runs one round with perfbench/run.py's runners, as the
benchmark does. It prints two things, each from a fresh interpreter with
the benchmark's PYTHONHASHSEED of 0:

- the process's resident set after generation, after set-up and after the
  round, current and peak (the peak is the benchmark's ``peak_rss_mb``),
  then, for the serving workloads, a census of the deep stage's subtree
  indexes: their number, their posting entries and the bytes of the
  postings, and the posting-key strings, as objects, as distinct values
  and as values that are also keys of the first-level vocabulary; then
  how many posting and totals keys are the very string objects that the
  first-level model holds;
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


def report_census(recommender) -> None:
    """The subtree indexes a ``Recommender`` holds, by ``sys.getsizeof``.
    The first-level model is read as it stands, never trained here."""
    vindexes = list(recommender._subtrees.values())
    postings = [vindex.postings for vindex in vindexes]
    posting_bytes = sum(sys.getsizeof(posting) for table in postings for posting in table.values())
    print(f"deep census: {len(postings)} subtrees, {sum(map(len, postings))} posting entries, "
          f"postings {posting_bytes / 1024:.1f} KiB")
    keys = {id(key): key for table in postings for key in table}
    values = set(keys.values())
    model = recommender.model
    shared = "-" if model is None else sum(map(model.vocabulary.__contains__, values))
    key_bytes = sum(map(sys.getsizeof, keys.values()))
    print(f"deep census: {len(keys)} posting-key objects, {len(values)} distinct values, "
          f"{shared} of them first-level vocabulary keys, keys {key_bytes / 1024:.1f} KiB")
    # The string objects the first-level model holds: its table's keys and
    # each class's count keys, which are other objects where classes share a
    # gram. A subtree key counts when it is one of them, not only equal.
    totals = [counts for vindex in vindexes for counts in vindex.totals.values()]
    if model is None:
        held = "-", "-"
    else:
        ids = set(map(id, model.vocabulary))
        for counts in model.feature_counts.values():
            ids.update(map(id, counts))
        held = (sum(id(key) in ids for table in postings for key in table),
                sum(id(key) in ids for counts in totals for key in counts))
    print(f"deep census: first-level objects: {held[0]} of {sum(map(len, postings))} posting keys, "
          f"{held[1]} of {sum(map(len, totals))} totals keys")


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
            if isinstance(runner, run.Serving):
                report_census(runner.recommender)
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
