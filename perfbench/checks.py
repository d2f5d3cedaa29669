"""Checks of the program's answers against the generator's truth and the
properties the method must have. Each check returns a list of problems;
an empty list means the answer is right. None of them compares with a
saved copy of an earlier answer.
"""
from __future__ import annotations

import re
from collections import Counter
from datetime import datetime

from gen import LogFile, Member, Request, Truth, surt

_MEMENTO_COUNT = re.compile(r", (\d+) mementos$")
SCORE_TOLERANCE = 1e-9


def nearest(mementos, requested: datetime) -> tuple[datetime, str]:
    """The benchmark's own nearest pick: least distance, earlier on a tie."""
    best = None
    for dt, uri in mementos:
        key = (abs(dt - requested), dt)
        if best is None or key < best[0]:
            best = (key, (dt, uri))
    return best[1]


def candidates_of(truth_by_category: dict[str, list[Member]], category: str) -> list[Member]:
    """Members the pipeline gathers for an answered category: the category's
    own entries, or every entry under it when it holds none itself."""
    own = truth_by_category.get(category)
    if own:
        return own
    prefix = category + "/"
    return [m for c, ms in truth_by_category.items() if c.startswith(prefix) for m in ms]


def check_recommendation(result, request: Request, truth: Truth,
                         by_category: dict[str, list[Member]]) -> list[str]:
    """Checks one RecommendationResult of a serving workload."""
    problems: list[str] = []
    if result.category is None:
        return [f"{request.uri}: no category answered (route {result.route})"]
    if result.category.split("/", 1)[0] != request.top:
        problems.append(f"{request.uri}: top-level category {result.category} is not {request.top}")
    if request.category is not None and (
        result.route != "ontology-hit" or result.category != request.category
    ):
        problems.append(
            f"{request.uri}: indexed URI answered by {result.route} under {result.category}"
        )
    requested_surt = surt(request.uri)
    candidates = [m for m in candidates_of(by_category, result.category) if m.surt != requested_surt]
    members = {m.uri: m for m in candidates}
    expected_dropped = {m.uri for m in candidates if not m.mementos}
    dropped = {uri: reason for uri, reason in result.dropped}
    if set(dropped) != expected_dropped or any(r != "not archived" for r in dropped.values()):
        problems.append(f"{request.uri}: dropped {sorted(dropped.items())}, expected "
                        f"{sorted(expected_dropped)} as not archived")
    archived = len(candidates) - len(expected_dropped)
    expected_count = min(result.request.top_n, archived)
    if len(result.recommendations) != expected_count:
        problems.append(f"{request.uri}: {len(result.recommendations)} recommendations, "
                        f"expected {expected_count}")
    weights = result.request.weights
    for rec in result.recommendations:
        member = members.get(rec.uri)
        if member is None:
            problems.append(f"{request.uri}: {rec.uri} is not a candidate of {result.category}"
                            " other than the requested URI")
            continue
        if not member.mementos:
            problems.append(f"{request.uri}: {rec.uri} has no generated TimeMap")
            continue
        dt, memento = nearest(member.mementos, request.datetime)
        if (rec.memento_uri, rec.memento_datetime) != (memento, dt):
            problems.append(f"{request.uri}: {rec.uri} memento {rec.memento_uri}, expected {memento}")
        count = _MEMENTO_COUNT.search(rec.explanations[1])
        if count is None or int(count.group(1)) != len(member.mementos):
            problems.append(f"{request.uri}: {rec.uri} explanation {rec.explanations[1]!r}, "
                            f"expected {len(member.mementos)} mementos")
        damage = truth.damage.get(memento)
        quality = 0.5 if damage is None else 1.0 - damage
        if rec.quality != quality:
            problems.append(f"{request.uri}: {rec.uri} quality {rec.quality}, expected {quality}")
        score = (weights.temporal * rec.temporal + weights.popularity * rec.popularity
                 + weights.similarity * rec.similarity + weights.quality * rec.quality)
        if abs(rec.score - score) > SCORE_TOLERANCE:
            problems.append(f"{request.uri}: {rec.uri} score {rec.score}, components give {score}")
    order = [(-r.score, r.uri) for r in result.recommendations]
    if order != sorted(order):
        problems.append(f"{request.uri}: recommendations not ordered by (-score, URI)")
    return problems


def expected_cache_lines(requests: list[Request], by_category: dict[str, list[Member]]) -> int:
    """Records one round of serve-indexed requests appends to an empty
    cache: one per distinct TimeMap, popularity and damage key fetched."""
    keys: set[tuple[str, str]] = set()
    for request in requests:
        requested = surt(request.uri)
        for m in by_category[request.category]:
            if m.surt == requested:
                continue
            keys.add(("timemap", m.surt))
            if m.mementos:
                keys.add(("popularity", m.surt))
                keys.add(("damage", nearest(m.mementos, request.datetime)[1]))
    return len(keys)


def check_cache_lines(lines: int, expected: int) -> list[str]:
    if lines != expected:
        return [f"cache file holds {lines} records, expected {expected} misses"]
    return []


def majority_baseline(truth: Truth) -> float:
    counts = Counter(m.category.split("/", 1)[0] for m in truth.members)
    return max(counts.values()) / len(truth.members)


def check_evaluate_l1(report, truth: Truth) -> list[str]:
    problems = []
    if report.evaluated + report.filtered_out != len(truth.members):
        problems.append(f"evaluate_l1: scored {report.evaluated} + filtered {report.filtered_out}"
                        f" != corpus {len(truth.members)}")
    baseline = majority_baseline(truth)
    if not report.accuracy >= baseline:
        problems.append(f"evaluate_l1: accuracy {report.accuracy} below majority {baseline}")
    return problems


def holdout_count(entries: int, stride: int = 10) -> int:
    """Entries evaluate_deep holds out: every 10th, from the first."""
    return len(range(0, entries, stride))


def check_evaluate_deep(report, entries: int) -> list[str]:
    problems = []
    if report.holdout != holdout_count(entries):
        problems.append(f"evaluate_deep: holdout {report.holdout}, expected {holdout_count(entries)}")
    levels = [report.levels[k] for k in sorted(report.levels)]
    if not levels or levels[0] != 1.0:
        problems.append(f"evaluate_deep: level 1 is not 1.0 in {report.levels}")
    if any(b > a for a, b in zip(levels, levels[1:])):
        problems.append(f"evaluate_deep: levels rise in {report.levels}")
    return problems


def check_stats(report, members: list[Member]) -> list[str]:
    problems = []
    tlds = Counter(m.tld_label for m in members)
    depths = Counter(m.depth for m in members)
    if report.total != len(members):
        problems.append(f"stats: total {report.total}, expected {len(members)}")
    if dict(report.tld_counts) != dict(tlds):
        problems.append(f"stats: TLD tally {dict(report.tld_counts)}, expected {dict(tlds)}")
    if dict(report.depth_counts) != dict(depths):
        problems.append(f"stats: depth tally {dict(report.depth_counts)}, expected {dict(depths)}")
    return problems


def check_logs(counters: dict[str, int], survivors: list[str], report, log: LogFile) -> list[str]:
    problems = []
    name = log.path.name
    for key in sorted(set(counters) | set(log.counters)):
        if counters.get(key, 0) != log.counters.get(key, 0):
            problems.append(f"{name}: {key} = {counters.get(key, 0)}, "
                            f"expected {log.counters.get(key, 0)}")
    if survivors != log.survivors:
        problems.append(f"{name}: survivor list differs from the generated one")
    if report.total != len(log.survivors):
        problems.append(f"{name}: profiled {report.total} URIs, expected {len(log.survivors)}")
    return problems
