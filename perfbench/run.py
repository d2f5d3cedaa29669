#!/usr/bin/env python3
"""Benchmark of the archive recommender, run from the root of a checkout:

    python3 perfbench/run.py --workload serve-lost --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from ``--seed``, sets the program up
several times (the median is ``setup_s``), then drives it in-process and
warm, in a closed loop with one client, for whole rounds until
``--seconds`` have been measured. Every answer is checked against the
generator's truth. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
pass with ``--trace 1``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import checks
import gen
from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
WORKLOADS = ("serve-lost", "serve-indexed", "batch")
SERVE_SETUPS = 3
BATCH_SETUPS = 5
# Evidence is gathered serially (parallelism 1: the service then starts no
# pool). With the per-request pool at two threads, the two cores of the
# reference machine made serve-indexed 1.8 times slower and identical runs
# differed by up to 40% in p50, wider than any bound the benchmark could
# hold; see README.md.
PARALLELISM = 1


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hash-seed", type=int, default=0,
                        help="PYTHONHASHSEED of the measured process (default 0); the "
                             "public-suffix scan's work depends on it")
    return parser.parse_args(argv)


class Outcome:
    """Operations attempted and failed, and run-level check results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"wrong answer: {problem}", file=sys.stderr)

    def crash(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def run_check(self, problems: list[str]) -> None:
        for problem in problems:
            self.correct = False
            print(f"check failed: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Serving workloads


class Serving:
    def __init__(self, truth):
        from archive_recommender.archives import EvidenceCache
        from archive_recommender.pipeline import RecommendationRequest

        self.truth = truth
        self.by_category = truth.by_category()
        self.request_type = RecommendationRequest
        self.cache_type = EvidenceCache
        # serve-indexed starts each round from an empty evidence cache; the
        # categories repeat within a round, so first touches fetch and append
        # and repeats read. serve-lost runs without a cache.
        self.cache_path = truth.directory / "cache.jsonl" if truth.workload == "serve-indexed" else None
        self.recommender = None

    def _fresh_cache(self, path: Path | None):
        if path is None:
            return None
        path.unlink(missing_ok=True)
        return self.cache_type(path)

    def setup(self) -> float:
        from archive_recommender.archives import (
            EvidenceService, FixtureArchiveSource, FixtureDamageProvider, FixturePopularityProvider,
        )
        from archive_recommender.ontology import load_index
        from archive_recommender.pipeline import Recommender

        self.recommender = None
        gc.collect()
        cache = self._fresh_cache(self.cache_path)
        d = self.truth.directory
        start = time.perf_counter()
        service = EvidenceService(
            FixtureArchiveSource(d / "timemaps"),
            FixturePopularityProvider(d / "popularity.tsv"),
            FixtureDamageProvider(d / "damage.tsv"),
            cache=cache,
            parallelism=PARALLELISM,
        )
        recommender = Recommender(load_index(self.truth.index_path), service)
        for request in self.truth.warmups:
            recommender.recommend(self.request_type(uri=request.uri, datetime=request.datetime),
                                  now=gen.NOW)
        elapsed = time.perf_counter() - start
        self.recommender = recommender
        return elapsed

    def _ask(self, request, outcome: Outcome, clock: Clock) -> None:
        """One recommend call, timed and checked."""
        query = self.request_type(uri=request.uri, datetime=request.datetime)
        try:
            result = clock.call(lambda: self.recommender.recommend(query, now=gen.NOW))
        except Exception:
            outcome.crash(f"recommend {request.uri}")
            return
        outcome.op(checks.check_recommendation(result, request, self.truth, self.by_category))

    def _audit_cache(self, path: Path | None, outcome: Outcome) -> None:
        if path is None:
            return
        with open(path, encoding="utf-8") as handle:
            lines = sum(1 for _ in handle)
        outcome.run_check(checks.check_cache_lines(
            lines, checks.expected_cache_lines(self.truth.requests, self.by_category)
        ))

    def round(self, outcome: Outcome, clock: Clock) -> None:
        """One pass over the request stream, one URI per request."""
        self.recommender.evidence.cache = self._fresh_cache(self.cache_path)
        for request in self.truth.requests:
            self._ask(request, outcome, clock)
        self._audit_cache(self.cache_path, outcome)

    def traced_round(self, outcome: Outcome, tracer) -> float:
        """Asks every request of a round twice, traced and untraced, in
        alternating order so that drifts in machine speed fall on both
        sides; each side has an evidence cache of its own. Returns the
        untraced seconds."""
        paths = (self.cache_path,
                 None if self.cache_path is None else self.cache_path.with_name("untraced.jsonl"))
        caches = [self._fresh_cache(path) for path in paths]
        clocks = (Clock(), Clock())
        for i, request in enumerate(self.truth.requests):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                self.recommender.evidence.cache = caches[side]
                if side == 0:
                    tracer.install()
                try:
                    self._ask(request, outcome, clocks[side])
                finally:
                    tracer.uninstall()
        for path in paths:
            self._audit_cache(path, outcome)
        return sum(seconds for seconds, _ in clocks[1].raw())


# ---------------------------------------------------------------------------
# Batch workload


class Batch:
    def __init__(self, truth):
        self.truth = truth
        self.index = None
        self.slices = None

    def setup(self) -> float:
        from archive_recommender.ontology import CategoryIndex, CategoryPath, load_index

        self.index = self.slices = None
        gc.collect()
        start = time.perf_counter()
        self.index = load_index(self.truth.index_path)
        self.slices = [CategoryIndex(self.index.entries_under(CategoryPath((top,))))
                       for top in gen.TOPS]
        return time.perf_counter() - start

    def commands(self):
        """(name, URIs, call, check) of one round: evaluate_l1 over the whole
        index, then, interleaved, evaluate_deep and corpus_stats over each
        top-level category's slice of it and the analysis of each log file.
        The slices keep every call short enough for the clock's probes to
        follow the machine's speed; together they do the work of one call
        over the whole index. URIs count the corpus for evaluate_l1 and stats,
        the held-out URIs for evaluate_deep and the lines of a log."""
        from archive_recommender.deep import evaluate_deep
        from archive_recommender.logs import analyze_requests, filter_log_file
        from archive_recommender.ontology import corpus_stats
        from archive_recommender.pipeline import evaluate_l1

        def analyze(path):
            uris, stats = filter_log_file(path)
            return stats.as_dict(), uris, analyze_requests(uris)

        truth = self.truth
        yield ("evaluate_l1", len(truth.members), partial(evaluate_l1, self.index),
               partial(checks.check_evaluate_l1, truth=truth))
        for i in range(max(len(gen.TOPS), len(truth.logs))):
            if i < len(gen.TOPS):
                members = [m for m in truth.members if m.category.split("/", 1)[0] == gen.TOPS[i]]
                yield ("evaluate_deep", checks.holdout_count(len(members)),
                       partial(evaluate_deep, self.slices[i]),
                       partial(checks.check_evaluate_deep, entries=len(members)))
                yield ("stats", len(members), partial(corpus_stats, self.slices[i]),
                       partial(checks.check_stats, members=members))
            if i < len(truth.logs):
                log = truth.logs[i]
                yield ("analyze_logs", log.counters["total_lines"], partial(analyze, log.path),
                       lambda result, log=log: checks.check_logs(*result, log))

    def round(self, outcome: Outcome, clock: Clock, tracer=None) -> None:
        for name, uris, command, check in self.commands():
            if tracer is not None:
                command = tracer.wrap(f"batch.{name}", command)
            try:
                result = clock.call(command, uris)
            except Exception:
                outcome.crash(name)
                continue
            outcome.op(check(result))


# ---------------------------------------------------------------------------


def summarize(setups: list[tuple[float, int]], ops: list[tuple[float, int]]) -> dict:
    latencies = [seconds for seconds, _ in ops]
    return {
        "setup_s": (statistics.median(seconds for seconds, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "request_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "request_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000, "ms"),
        "uris_per_s": (sum(uris for _, uris in ops) / sum(latencies), "URI/s"),
    }


def measure(runner, seconds: float, setups: int) -> tuple[Outcome, dict, dict] | None:
    """End-to-end metrics, scaled by the clock's probes and unscaled; None
    when fewer than two operations completed."""
    setup_clock = Clock()
    for _ in range(setups):
        setup_clock.probe()
        setup_clock.record(runner.setup())
    setup_clock.probe()
    outcome = Outcome()
    clock = Clock()
    start = time.perf_counter()
    while True:
        runner.round(outcome, clock)
        if time.perf_counter() - start >= seconds:
            break
    clock.probe()
    if len(clock.ops) < 2:
        return None
    return (outcome, summarize(setup_clock.scaled(), clock.scaled()),
            summarize(setup_clock.raw(), clock.raw()))


def traced(runner, spans_path: Path) -> tuple[Outcome, dict, None]:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    outcome = Outcome()
    tracer.install()
    try:
        runner.setup()
    finally:
        tracer.uninstall()
    pass_start = len(tracer.spans)
    untraced = 0.0
    if isinstance(runner, Serving):
        untraced = runner.traced_round(outcome, tracer)
    else:
        tracer.install()
        try:
            runner.round(outcome, Clock(), tracer)
        finally:
            tracer.uninstall()
    tracer.write(spans_path)
    return outcome, layer_metrics(tracer, pass_start, untraced), None


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != str(args.hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed))
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    src = ROOT / "src"
    if not (src / "archive_recommender" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        truth = gen.generate(args.workload, args.seed, work)
        runner = (Batch if args.workload == "batch" else Serving)(truth)
        if args.trace:
            measured = traced(runner, WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            setups = BATCH_SETUPS if args.workload == "batch" else SERVE_SETUPS
            measured = measure(runner, args.seconds, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if measured is None:
        print("perfbench: too few operations completed to report latencies", file=sys.stderr)
        return 1
    outcome, metrics, raw = measured
    for name, (value, unit) in metrics.items():
        unscaled = "" if raw is None or raw[name] == metrics[name] else f"   (unscaled {raw[name][0]:.6f})"
        print(f"{name:40} {value:14.6f} {unit:6}{unscaled}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
