"""Each answer check of the benchmark rejects a corrupted answer.

A real recommendation comes from the program on generated serve-indexed
inputs; the batch reports are built from the generator's truth. Every test
first sees the right answer pass, then corrupts one field and sees the
check that guards it fail. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import json
import shutil
import sys
import unittest
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

WORK = HERE / "work" / "test-checks"


def setUpModule():
    global TRUTH, BY_CATEGORY, REQUEST, RESULT, BATCH
    from archive_recommender.archives import (
        EvidenceService, FixtureArchiveSource, FixtureDamageProvider, FixturePopularityProvider,
    )
    from archive_recommender.ontology import load_index
    from archive_recommender.pipeline import RecommendationRequest, Recommender

    shutil.rmtree(WORK, ignore_errors=True)
    TRUTH = gen.generate("serve-indexed", 7, WORK / "serve")
    BATCH = gen.generate("batch", 7, WORK / "batch")
    BY_CATEGORY = TRUTH.by_category()
    d = TRUTH.directory
    service = EvidenceService(
        FixtureArchiveSource(d / "timemaps"),
        FixturePopularityProvider(d / "popularity.tsv"),
        FixtureDamageProvider(d / "damage.tsv"),
        parallelism=1,
    )
    recommender = Recommender(load_index(TRUTH.index_path), service)
    REQUEST = TRUTH.requests[0]
    RESULT = recommender.recommend(
        RecommendationRequest(uri=REQUEST.uri, datetime=REQUEST.datetime), now=gen.NOW
    )


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class RecommendationChecks(unittest.TestCase):
    def problems(self, result, request=None):
        return checks.check_recommendation(result, request or REQUEST, TRUTH, BY_CATEGORY)

    def assertCaught(self, result, text, request=None):
        problems = self.problems(result, request)
        self.assertTrue(any(text in p for p in problems), f"{text!r} not in {problems}")

    def with_rec(self, i=0, **changes):
        recs = list(RESULT.recommendations)
        recs[i] = replace(recs[i], **changes)
        return replace(RESULT, recommendations=recs)

    def test_real_answer_passes(self):
        self.assertGreaterEqual(len(RESULT.recommendations), 2)
        self.assertEqual(self.problems(RESULT), [])

    def test_top_level_category(self):
        other = next(t for t in gen.TOPS if t != REQUEST.top)
        self.assertCaught(replace(RESULT, category=other), "top-level category")

    def test_indexed_uri_answered_from_the_index(self):
        self.assertCaught(replace(RESULT, route="classified-deep"), "indexed URI answered")

    def test_member_of_answered_category(self):
        stranger = next(m for m in TRUTH.members if m.category != REQUEST.category)
        self.assertCaught(self.with_rec(uri=stranger.uri), "is not a candidate")

    def test_never_the_requested_uri(self):
        self.assertCaught(self.with_rec(uri=REQUEST.uri), "is not a candidate")

    def test_unarchived_member_dropped(self):
        self.assertCaught(replace(RESULT, dropped=()), "as not archived")
        unarchived = RESULT.dropped[0][0]
        self.assertCaught(self.with_rec(uri=unarchived), "has no generated TimeMap")

    def test_nearest_memento(self):
        rec = RESULT.recommendations[0]
        member = next(m for m in TRUTH.members if m.uri == rec.uri)
        other = next(m for m in member.mementos if m[1] != rec.memento_uri)
        changed = self.with_rec(memento_uri=other[1], memento_datetime=other[0])
        self.assertCaught(changed, f"memento {other[1]}, expected")

    def test_memento_count(self):
        rec = RESULT.recommendations[0]
        text = rec.explanations[1].replace(" mementos", "1 mementos")
        explanations = rec.explanations[:1] + (text,) + rec.explanations[2:]
        self.assertCaught(self.with_rec(explanations=explanations), "mementos")

    def test_quality(self):
        rec = RESULT.recommendations[0]
        self.assertCaught(self.with_rec(quality=rec.quality + 0.01), "quality")

    def test_score(self):
        rec = RESULT.recommendations[0]
        self.assertCaught(self.with_rec(score=rec.score + 1e-6), "score")

    def test_order(self):
        reordered = replace(RESULT, recommendations=RESULT.recommendations[::-1])
        self.assertCaught(reordered, "not ordered")

    def test_count_of_recommendations(self):
        shorter = replace(RESULT, recommendations=RESULT.recommendations[:-1])
        self.assertCaught(shorter, "recommendations, expected")


class CacheCheck(unittest.TestCase):
    def test_lines_equal_misses(self):
        expected = checks.expected_cache_lines(TRUTH.requests, BY_CATEGORY)
        self.assertEqual(checks.check_cache_lines(expected, expected), [])
        self.assertNotEqual(checks.check_cache_lines(expected + 1, expected), [])


class BatchChecks(unittest.TestCase):
    def test_evaluate_l1(self):
        n = len(BATCH.members)
        good = SimpleNamespace(evaluated=400, filtered_out=n - 400, accuracy=1.0)
        self.assertEqual(checks.check_evaluate_l1(good, BATCH), [])
        self.assertNotEqual(checks.check_evaluate_l1(replace_ns(good, filtered_out=n), BATCH), [])
        low = checks.majority_baseline(BATCH) / 2
        self.assertNotEqual(checks.check_evaluate_l1(replace_ns(good, accuracy=low), BATCH), [])

    def test_evaluate_deep(self):
        good = SimpleNamespace(holdout=7, levels={1: 1.0, 2: 0.9, 3: 0.5})
        self.assertEqual(checks.check_evaluate_deep(good, 63), [])
        for bad in (replace_ns(good, holdout=6),
                    replace_ns(good, levels={1: 0.99, 2: 0.9}),
                    replace_ns(good, levels={1: 1.0, 2: 0.5, 3: 0.6})):
            self.assertNotEqual(checks.check_evaluate_deep(bad, 63), [])

    def test_stats(self):
        members = BATCH.members[:63]
        good = SimpleNamespace(
            total=len(members),
            tld_counts=Counter(m.tld_label for m in members),
            depth_counts=Counter(m.depth for m in members),
        )
        self.assertEqual(checks.check_stats(good, members), [])
        tlds = good.tld_counts.copy()
        tlds["com"] -= 1
        tlds["org"] += 1
        self.assertNotEqual(checks.check_stats(replace_ns(good, tld_counts=tlds), members), [])
        depths = good.depth_counts.copy()
        depths[0] += 1
        self.assertNotEqual(checks.check_stats(replace_ns(good, depth_counts=depths), members), [])

    def test_logs(self):
        log = BATCH.logs[0]
        counters = dict(log.counters)
        survivors = list(log.survivors)
        report = SimpleNamespace(total=len(survivors))
        self.assertEqual(checks.check_logs(counters, survivors, report, log), [])
        for key in counters:
            bad = dict(counters, **{key: counters[key] + 1})
            self.assertNotEqual(checks.check_logs(bad, survivors, report, log), [], key)
        self.assertNotEqual(checks.check_logs(counters, survivors[1:], report, log), [])
        self.assertNotEqual(
            checks.check_logs(counters, survivors, SimpleNamespace(total=1), log), []
        )


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_metrics_are_the_tracer_s(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
        listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        self.assertEqual(listed, list(LAYER_METRICS))


def replace_ns(ns: SimpleNamespace, **changes) -> SimpleNamespace:
    return SimpleNamespace(**{**vars(ns), **changes})


if __name__ == "__main__":
    unittest.main()
