#!/usr/bin/env python3
"""How a serving workload's costs grow with its index, run from the root of
a checkout:

    python3 tools/scale_probe.py --workload serve-lost --seed 77 --copies 1,4,16,64

Generates the workload's inputs with perfbench/gen.py and loads its index.
For each K in ``--copies`` a fresh interpreter, with the benchmark's
PYTHONHASHSEED of 0, replicates the loaded index K times in process: copy k
(k = 1 .. K-1) adds every entry again, one category level deeper (the label
``copy<k>``) and with one more path segment (``/copy<k>``). No TimeMap is
copied, so no copy is archived. The replica replaces the workload's index
file, and perfbench/run.py's runner sets the program up from it as the
benchmark does. One row per K gives:

- entries, categories, and entries per top-level subtree (min-max);
- ``setup_s``: the runner's set-up, which loads the index, trains, and
  answers the warm-up requests, building every subtree;
- ``request_us``: warm µs per request, best of 3 passes over the requests;
- ``l1_us``, ``refine_us``, ``gather_us``, ``rank_us``: µs per request in
  the first-level ``nbayes.classify``, ``deep.refine``,
  ``EvidenceService.gather`` and ``ranking.rank``, timed by wrappers where
  the pipeline looks them up, best of 3 more passes;
- ``entries_under_us``: µs per ``CategoryIndex.entries_under`` call, one
  call per top-level category, best of 3 passes.

It is a diagnostic: answers are not checked, because the copies change
them, and its passes have no probes between requests, so they read warmer
than the benchmark. Nothing under src/ or perfbench/ is changed, and the
inputs live in a temporary directory that is removed at the end.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from urllib.parse import urlsplit, urlunsplit

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import run  # noqa: E402
from clock import Clock  # noqa: E402

from archive_recommender import pipeline  # noqa: E402
from archive_recommender.archives import EvidenceService  # noqa: E402
from archive_recommender.ontology import (  # noqa: E402
    CategoryIndex, CategoryPath, OntologyEntry, load_index, save_index,
)
from archive_recommender.uri import canonicalize_surt  # noqa: E402

SERVING = ("serve-lost", "serve-indexed")
PASSES = 3
# (where the pipeline looks the function up, its name there, column)
STAGES = (
    (pipeline, "nb_classify", "l1_us"),
    (pipeline, "refine", "refine_us"),
    (EvidenceService, "gather", "gather_us"),
    (pipeline, "rank", "rank_us"),
)
COLUMNS = ("copies", "entries", "categories", "per_subtree", "setup_s", "request_us",
           *(column for _, _, column in STAGES), "entries_under_us")


class Unprobed(Clock):
    """Times the requests alone, with no probes between them."""

    def probe(self) -> None:
        pass


class Unchecked(run.Outcome):
    """Counts crashes only: the copies change what a request should get."""

    def op(self, problems: list[str]) -> None:
        self.attempted += 1

    def run_check(self, problems: list[str]) -> None:
        pass


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=SERVING)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--copies", default="1,4,16,64", help="comma-separated K values (default 1,4,16,64)")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        args.copies = [int(k) for k in args.copies.split(",")]
    except ValueError:
        parser.error(f"--copies takes comma-separated integers, not {args.copies!r}")
    if not args.copies or min(args.copies) < 1:
        parser.error("every K in --copies must be at least 1")
    return args


def replicate(index: CategoryIndex, copies: int) -> CategoryIndex:
    """The index with ``copies - 1`` more copies of every entry, each one
    category level deeper and one path segment longer than its original."""
    originals = list(index.all_entries())
    entries = list(originals)
    for k in range(1, copies):
        label = f"copy{k}"
        for entry in originals:
            parts = urlsplit(entry.uri)
            uri = urlunsplit(parts._replace(path=f"{parts.path.rstrip('/')}/{label}"))
            entries.append(OntologyEntry(CategoryPath(entry.category.labels + (label,)), uri,
                                         canonicalize_surt(uri), entry.title, entry.description))
    return CategoryIndex(entries)


def best_of_passes(runner: run.Serving, seconds: dict[str, float]) -> dict[str, float]:
    """The least µs per request over PASSES rounds: of the whole request
    (``request_us``), and of each column whose time ``seconds`` gathers."""
    best: dict[str, float] = {}
    for _ in range(PASSES):
        seconds.update(dict.fromkeys(seconds, 0.0))
        outcome, clock = Unchecked(), Unprobed()
        runner.round(outcome, clock)
        if outcome.failed:
            raise SystemExit(f"scale_probe: {outcome.failed} of {outcome.attempted} requests failed")
        requests = clock.raw()
        totals = {"request_us": sum(s for s, _ in requests), **seconds}
        for column, total in totals.items():
            best[column] = min(best.get(column, float("inf")), total / len(requests) * 1e6)
    return best


def timed_stages(seconds: dict[str, float]) -> None:
    """Wrap each stage where the pipeline looks it up, adding its time to
    ``seconds``."""
    for owner, name, column in STAGES:
        def timed(*args, _original=getattr(owner, name), _column=column, **kwargs):
            start = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                seconds[_column] += time.perf_counter() - start
        setattr(owner, name, timed)


def entries_under_us(index: CategoryIndex) -> float:
    prefixes = [CategoryPath((top,)) for top in sorted({path.top for path in index.categories()})]
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for prefix in prefixes:
            index.entries_under(prefix)
        best = min(best, (time.perf_counter() - start) / len(prefixes) * 1e6)
    return best


def probe_one(workload: str, seed: int, copies: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        truth = gen.generate(workload, seed, Path(tmp) / "work")
        save_index(replicate(load_index(truth.index_path), copies), truth.index_path)
        runner = run.Serving(truth)
        setup_s = runner.setup()
        index = runner.recommender.index
        sizes = [len(index.entries_under(CategoryPath((top,)))) for top in gen.TOPS]
        row = {
            "copies": copies,
            "entries": len(index),
            "categories": len(index.categories()),
            "per_subtree": f"{min(sizes)}" if min(sizes) == max(sizes) else f"{min(sizes)}-{max(sizes)}",
            "setup_s": f"{setup_s:.3f}",
            "request_us": f"{best_of_passes(runner, {})['request_us']:.0f}",
            "entries_under_us": f"{entries_under_us(index):.1f}",
        }
        seconds = dict.fromkeys((column for _, _, column in STAGES), 0.0)
        timed_stages(seconds)
        stages = best_of_passes(runner, seconds)
        row.update((column, f"{stages[column]:.0f}") for _, _, column in STAGES)
    return row


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.one is not None:
        row = probe_one(args.workload, args.seed, args.one)
        print("  ".join(str(row[column]).rjust(len(column)) for column in COLUMNS), flush=True)
        return 0
    print(f"{args.workload}, seed {args.seed}")
    print("  ".join(COLUMNS), flush=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    for copies in args.copies:
        done = subprocess.run([sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                               "--one", str(copies)], env=env)
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
