"""Pipeline orchestration: lookup, classify, refine, filter, rank."""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from archive_recommender import deep, nbayes, pipeline
from archive_recommender import uri as uri_module
from archive_recommender.archives import (
    DamageEvidence,
    DamageSource,
    EvidenceCache,
    EvidenceService,
    FixtureArchiveSource,
    FixtureDamageProvider,
    FixturePopularityProvider,
    nearest_memento,
)
from archive_recommender.ontology import (
    CategoryIndex,
    CategoryPath,
    FixtureOntologyProvider,
    OntologyEntry,
)
from archive_recommender.pipeline import (
    L1_METHOD,
    L1_VARIANTS,
    REASON_NO_ARCHIVED,
    REASON_NO_CANDIDATES,
    REASON_UNCLASSIFIABLE,
    Recommender,
    RecommendationRequest,
    build_l1_corpus,
    evaluate_l1,
    train_l1,
)
from archive_recommender.ranking import rank
from archive_recommender.uri import TokenMethod, canonicalize_surt, tokenize
from conftest import FailingProvider, ForeignSource, count_calls
from test_golden import RECOMMEND_URIS
from test_metrics import model_state

UTC = timezone.utc
REQUESTED = datetime(2014, 3, 1, tzinfo=UTC)
NOW = datetime(2014, 6, 1, tzinfo=UTC)

VIRGINIA = (
    "Computers/Computer_Science/Academic_Departments/North_America/United_States/Virginia"
)


def fixture_recommender(fixtures_dir, index, pooled=False, **service_options) -> Recommender:
    """A recommender over the fixtures; ``pooled`` wraps the TimeMap source
    in a plain class, so the service pools as ``parallelism`` asks."""
    source = FixtureArchiveSource(fixtures_dir / "timemaps")
    service = EvidenceService(
        ForeignSource(source) if pooled else source,
        FixturePopularityProvider(fixtures_dir / "popularity.tsv"),
        FixtureDamageProvider(fixtures_dir / "damage.tsv"),
        **service_options,
    )
    secondary = FixtureOntologyProvider(fixtures_dir / "secondary_ontology.jsonl")
    return Recommender(index, service, secondary=secondary)


@pytest.fixture(scope="module")
def recommender(fixtures_dir, corpus_index):
    return fixture_recommender(fixtures_dir, corpus_index)


class TestRequestValidation:
    def test_bad_uri_rejected(self):
        with pytest.raises(Exception):
            RecommendationRequest(uri="http://")

    def test_top_n_guard(self):
        with pytest.raises(ValueError):
            RecommendationRequest(uri="http://example.com/", top_n=0)

    def test_bare_host_accepted(self):
        request = RecommendationRequest(uri="odu.edu/compsci")
        assert request.top_n == 10


class TestClassifiedDeepRoute:
    def test_worked_example(self, recommender):
        request = RecommendationRequest(uri="http://odu.edu/compsci", datetime=REQUESTED)
        result = recommender.recommend(request, now=NOW)

        assert result.route == "classified-deep"
        assert result.category == VIRGINIA
        assert len(result.recommendations) == 8

        # the two unarchived departments fall out, nothing else does
        assert sorted(result.dropped) == [
            ("http://radford.edu/content/csat/home/itec.html", "not archived"),
            ("https://php.radford.edu/~itec", "not archived"),
        ]

        top = result.recommendations[0]
        assert top.uri == "http://cs.odu.edu"
        assert "20140226090846" in top.memento_uri

        scores = [r.score for r in result.recommendations]
        assert scores == sorted(scores, reverse=True)
        assert all(r.explanations[-1] == "path: classified-deep" for r in result.recommendations)

    def test_requested_uri_never_recommended(self, recommender):
        request = RecommendationRequest(uri="http://odu.edu/compsci", datetime=REQUESTED)
        result = recommender.recommend(request, now=NOW)
        requested_surt = canonicalize_surt(request.uri)
        assert all(canonicalize_surt(r.uri) != requested_surt for r in result.recommendations)

    def test_deterministic_across_runs(self, recommender):
        request = RecommendationRequest(uri="http://odu.edu/compsci", datetime=REQUESTED)
        a = recommender.recommend(request, now=NOW)
        b = recommender.recommend(request, now=NOW)
        assert [(r.uri, r.score) for r in a.recommendations] == [
            (r.uri, r.score) for r in b.recommendations
        ]
        assert a.trace == b.trace

    def test_trace_covers_all_steps(self, recommender):
        request = RecommendationRequest(uri="http://odu.edu/compsci", datetime=REQUESTED)
        result = recommender.recommend(request, now=NOW)
        joined = "\n".join(result.trace)
        for marker in ("step0:", "step1:", "step2:", "step3:", "step4:"):
            assert marker in joined
        assert "step1: first-level category Computers" in joined
        assert "step3: 8 of 10 candidates are archived" in joined

    def test_top_n_truncates(self, recommender):
        request = RecommendationRequest(
            uri="http://odu.edu/compsci", datetime=REQUESTED, top_n=3
        )
        result = recommender.recommend(request, now=NOW)
        assert len(result.recommendations) == 3
        assert result.recommendations[0].uri == "http://cs.odu.edu"

    def test_warm_subtree_featurizes_nothing(self, fixtures_dir, corpus_index, monkeypatch):
        warm = fixture_recommender(fixtures_dir, corpus_index)
        first = RecommendationRequest(uri="http://odu.edu/compsci", datetime=REQUESTED)
        assert warm.recommend(first, now=NOW).route == "classified-deep"
        second = RecommendationRequest(uri="http://vt.edu/computerscience", datetime=REQUESTED)
        fresh = fixture_recommender(fixtures_dir, corpus_index).recommend(second, now=NOW)

        calls: list[str] = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in (
            (deep, "entry_features"),
            (deep, "build_vector_index"),
            (nbayes, "train"),
            (pipeline, "nb_train"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        result = warm.recommend(second, now=NOW)
        assert calls == []
        assert result.route == "classified-deep"
        assert result == fresh


class TestOntologyHitRoutes:
    def test_primary_hit_skips_classification(self, recommender):
        request = RecommendationRequest(uri="http://cs.gmu.edu", datetime=REQUESTED)
        result = recommender.recommend(request, now=NOW)
        assert result.route == "ontology-hit"
        assert result.category == VIRGINIA
        assert "step0: found in primary ontology" in result.trace[0]
        assert all("step1" not in line for line in result.trace)
        # gmu itself excluded; both radford pages unarchived
        assert len(result.recommendations) == 7
        assert all(r.uri != "http://cs.gmu.edu" for r in result.recommendations)

    def test_secondary_hit(self, recommender):
        request = RecommendationRequest(uri="http://mickeymantle.com/", datetime=REQUESTED)
        result = recommender.recommend(request, now=NOW)
        assert result.route == "ontology-hit"
        assert result.category == "Baseball_Memorabilia"
        assert [r.uri for r in result.recommendations] == [
            "http://baseballcards.example.com/"
        ]
        (rec,) = result.recommendations
        assert "20130815000000" in rec.memento_uri
        assert rec.quality == pytest.approx(0.5)  # damage unmeasured for this memento

    def test_secondary_members_all_unarchived(self, recommender):
        request = RecommendationRequest(uri="http://odu.edu/", datetime=REQUESTED)
        result = recommender.recommend(request, now=NOW)
        assert result.route == "ontology-hit"
        assert result.category == "Universities_in_Virginia"
        assert result.recommendations == []
        assert result.reason == REASON_NO_ARCHIVED
        assert len(result.dropped) == 3
        assert all(why == "not archived" for _, why in result.dropped)


class TestDegradedRoutes:
    def test_unclassifiable(self, recommender):
        request = RecommendationRequest(uri="http://qqxxyyzz.dev/", datetime=REQUESTED)
        result = recommender.recommend(request, now=NOW)
        assert result.route == "none"
        assert result.recommendations == []
        assert result.reason == REASON_UNCLASSIFIABLE
        assert result.category is None

    def test_hit_without_other_members_falls_through(self, fixtures_dir):
        # requested URI is indexed, but its category holds nothing else:
        # classification must take over instead of returning the page itself
        index = CategoryIndex(
            [
                entry("Computers/Hardware", "http://boardsupply.zz/"),
                entry("Sports/Rowing", "http://rowingclub.zz/"),
                entry("Sports/Rowing", "http://rowingteam.zz/"),
            ]
        )
        service = EvidenceService(EmptySource())
        r = Recommender(index, service)
        result = r.recommend(
            RecommendationRequest(uri="http://boardsupply.zz/", datetime=REQUESTED), now=NOW
        )
        assert result.route == "classified-deep"
        assert result.reason == REASON_NO_CANDIDATES
        assert "no other members" in result.trace[0]

    @pytest.mark.parametrize("kind", ["popularity", "damage"])
    def test_failed_lookup_drops_candidates_not_the_request(self, fixtures_dir, corpus_index, kind):
        """A popularity or damage service that fails drops each candidate it
        fails for, as a failed TimeMap does; the request still answers."""
        failing = FailingProvider(f"{kind} service returned 503")
        service = EvidenceService(
            FixtureArchiveSource(fixtures_dir / "timemaps"),
            failing if kind == "popularity" else FixturePopularityProvider(fixtures_dir / "popularity.tsv"),
            failing if kind == "damage" else FixtureDamageProvider(fixtures_dir / "damage.tsv"),
        )
        request = RecommendationRequest(uri="http://odu.edu/compsci", datetime=REQUESTED)
        result = Recommender(corpus_index, service).recommend(request, now=NOW)
        expected = fixture_recommender(fixtures_dir, corpus_index).recommend(request, now=NOW)
        assert result.recommendations == []
        assert result.reason == REASON_NO_ARCHIVED
        assert "step3: 0 of " in "\n".join(result.trace)
        unavailable = sorted(uri for uri, why in result.dropped if why == f"evidence unavailable: {kind} service returned 503")
        assert unavailable == sorted(r.uri for r in expected.recommendations)
        assert len(unavailable) == 8
        assert set(result.dropped) - set(expected.dropped) == {(uri, f"evidence unavailable: {kind} service returned 503") for uri in unavailable}

    def test_shallow_fallback_when_deep_has_no_vocabulary(self):
        index = CategoryIndex(
            [
                entry("Computers/Hardware", "http://boardsupply.zz/"),
                entry("Computers/Hardware", "http://boardsmarket.zz/"),
                entry("Sports/Rowing", "http://rowingclub.zz/"),
                entry("Sports/Rowing", "http://rowingteam.zz/"),
            ]
        )
        service = EvidenceService(SingleMementoSource())
        r = Recommender(index, service)
        # letter runs are all single characters: the level-1 grams survive
        # digit-stripping but plain tokenization yields nothing
        result = r.recommend(
            RecommendationRequest(uri="http://b4o4a4r4d4s4.zz/", datetime=REQUESTED), now=NOW
        )
        assert result.route == "classified-shallow"
        assert result.category == "Computers"
        assert {r_.uri for r_ in result.recommendations} == {
            "http://boardsupply.zz/",
            "http://boardsmarket.zz/",
        }


def entry(category: str, uri: str) -> OntologyEntry:
    return OntologyEntry(
        category=CategoryPath.parse(category), uri=uri, surt=canonicalize_surt(uri)
    )


class EmptySource:
    def get_timemap(self, uri):
        return None

    def get_page(self, page_uri):
        return None


class SingleMementoSource:
    def get_timemap(self, uri):
        return (
            f'<https://a/web/20140110080000/{uri}>; rel="first last memento"; '
            'datetime="Fri, 10 Jan 2014 08:00:00 GMT"'
        )

    def get_page(self, page_uri):
        return None


class TestFirstLevelHelpers:
    def test_build_l1_corpus(self, taxonomy):
        corpus = build_l1_corpus(taxonomy)
        assert len(corpus) == 96
        labels = {label for _, label in corpus}
        assert labels == {"Science", "Arts", "Sports", "Society"}

    def test_train_l1_records_configuration(self, taxonomy):
        model = train_l1(taxonomy)
        assert model.method is L1_METHOD
        assert model.variants == L1_VARIANTS
        assert set(model.classes) == {"Science", "Arts", "Sports", "Society"}

    def test_train_l1_tokenizes_each_uri_as_it_counts_it(self, corpus_index, monkeypatch):
        """When a URI is tokenized, no bag but the one before it is alive,
        and the model equals training on every bag at once."""
        bags = []

        def watched(*args):
            gc.collect()
            assert [i for i, ref in enumerate(bags[:-1]) if ref() is not None] == []
            bag = tokenize(*args)
            bags.append(weakref.ref(bag))
            return bag

        monkeypatch.setattr(pipeline, "tokenize", watched)
        model = train_l1(corpus_index)
        corpus = build_l1_corpus(corpus_index)
        assert len(bags) == len(corpus)
        trained = nbayes.train([(tokenize(uri, L1_METHOD, L1_VARIANTS), label) for uri, label in corpus])
        assert model_state(model) == model_state(trained)

    def test_evaluate_l1_beats_majority_on_separable_corpus(self, taxonomy):
        from archive_recommender.metrics import majority_baseline

        report = evaluate_l1(taxonomy, folds=4)
        baseline = majority_baseline(label for _, label in build_l1_corpus(taxonomy))
        assert report.micro_f1 > baseline


# Indexed, lost and unclassifiable URIs whose routes build several subtrees.
SHARED_REQUEST_URIS = [
    "http://odu.edu/compsci",
    "http://cs.gmu.edu",
    "http://mickeymantle.com/",
    "http://odu.edu/",
    "http://qqxxyyzz.dev/",
    "http://refereegoalsclub.example/",
    "http://authorpoetryhaiku.example/",
    "http://arcadegamesreview.example/",
]


class TestSharedAcrossThreads:
    def test_threads_match_serial_and_train_once(self, fixtures_dir, corpus_index, monkeypatch):
        requests = [RecommendationRequest(uri=uri, datetime=REQUESTED) for uri in SHARED_REQUEST_URIS]
        serial_recommender = fixture_recommender(fixtures_dir, corpus_index)
        serial = {r.uri: serial_recommender.recommend(r, now=NOW) for r in requests}

        trained = []

        def counting_train_l1(*args, **kwargs):
            trained.append(1)
            return train_l1(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train_l1", counting_train_l1)
        deep_calls: list[tuple[deep.CategoryVectorIndex, frozenset]] = []
        deep_models: list[nbayes.NaiveBayesModel] = []
        classify_deep, nb_classify = deep.classify_deep, nbayes.classify

        def recording_classify_deep(tree, vindex, query, smoothing):
            deep_calls.append((vindex, tree.candidates))
            return classify_deep(tree, vindex, query, smoothing)

        def recording_nb_classify(model, bag):  # only the deep stage looks it up in nbayes
            deep_models.append(model)
            return nb_classify(model, bag)

        monkeypatch.setattr(deep, "classify_deep", recording_classify_deep)
        monkeypatch.setattr(nbayes, "classify", recording_nb_classify)
        shared = fixture_recommender(fixtures_dir, corpus_index, pooled=True)
        start = threading.Barrier(4, timeout=30)
        results: list[dict] = [{} for _ in range(4)]

        def worker(i):
            start.wait()
            for request in requests[i:] + requests[:i]:
                results[i][request.uri] = shared.recommend(request, now=NOW)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so racing builds overlap
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(result == serial for result in results)
        assert len(trained) == 1
        # One model per distinct candidate set on each subtree, and every
        # deep classification used the one its subtree kept.
        subtrees = list(shared._subtrees.values())
        for vindex in subtrees:
            candidate_sets = {
                (tuple(map(str, sorted(candidates))), pipeline.SMOOTHING)
                for seen, candidates in deep_calls if seen is vindex
            }
            assert set(vindex.models) == candidate_sets
        assert len(deep_calls) > sum(len(v.models) for v in subtrees) > 0
        assert {id(m) for m in deep_models} == {id(m) for v in subtrees for m in v.models.values()}


# Oracles of steps 3-4 as they ran before each index entry kept its SURT and
# token set, and before the evidence record carried its memento: every request
# works both out again from the candidate's URI, ranking picks each
# candidate's nearest memento itself and reads a missing damage as the
# neutral 0.5, and the path note is added to a copy of each ranked
# recommendation.


def gather_canonicalizing(service, candidates, requested):
    return [replace(service.evidence_for(u, canonicalize_surt(u), requested), memento=None) for u, _ in candidates]


def rank_picking(candidates, *args, requested, **kwargs):
    picked = []
    for c in candidates:
        if not c.archive.archived:
            raise ValueError(f"cannot rank unarchived candidate {c.uri}")
        damage = c.damage or DamageEvidence(0.5, DamageSource.DEFAULT_MISSING)
        picked.append(replace(c, memento=nearest_memento(c.archive, requested), damage=damage))
    return rank(picked, *args, requested=requested, **kwargs)


def rank_tokenizing(candidates, weights, top_n, *, candidate_tokens, notes, **kwargs):
    tokens = [frozenset(tokenize(c.uri, TokenMethod.TOKENS)) for c in candidates]
    ranked = rank_picking(candidates, weights, top_n, candidate_tokens=tokens, **kwargs)
    return [replace(r, explanations=r.explanations + notes) for r in ranked]


class TestStepsThreeAndFourOracle:
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("requested_uri", RECOMMEND_URIS)
    def test_matches_per_request_derivation(
        self, fixtures_dir, corpus_index, tmp_path, monkeypatch, requested_uri, cached
    ):
        request = RecommendationRequest(uri=requested_uri, datetime=REQUESTED)

        def run(name):
            cache = EvidenceCache(tmp_path / f"{name}.jsonl", clock=lambda: 1402000000.5) if cached else None
            # fixture sources are read serially, so cache lines keep one order
            recommender = fixture_recommender(fixtures_dir, corpus_index, cache=cache)
            result = recommender.recommend(request, now=NOW)
            if cache is not None:
                cache.close()
            return result

        fast = run("fast")
        monkeypatch.setattr(EvidenceService, "gather", gather_canonicalizing)
        monkeypatch.setattr(pipeline, "rank", rank_tokenizing)
        assert fast == run("oracle")
        if cached:
            fast_lines, oracle_lines = (
                path.read_text("utf-8") if path.exists() else None  # a request that gathers nothing writes nothing
                for path in (tmp_path / "fast.jsonl", tmp_path / "oracle.jsonl")
            )
            assert fast_lines == oracle_lines
            assert (fast_lines is None) == (fast.route == "none")

    @pytest.mark.parametrize("parallelism", [1, 4], ids=["serial", "pool"])
    @pytest.mark.parametrize(
        "requested_uri, archived",
        [
            ("http://odu.edu/compsci", 8),
            ("http://cs.gmu.edu", 7),
            ("http://mickeymantle.com/", 1),
            ("http://odu.edu/", 0),
        ],
    )
    def test_one_memento_pick_per_archived_candidate(
        self, fixtures_dir, corpus_index, monkeypatch, parallelism, requested_uri, archived
    ):
        recommender = fixture_recommender(fixtures_dir, corpus_index, pooled=parallelism > 1, parallelism=parallelism)
        assert recommender.evidence.parallelism == parallelism
        request = RecommendationRequest(uri=requested_uri, datetime=REQUESTED)
        expected = recommender.recommend(request, now=NOW)
        calls = count_calls(monkeypatch, {"nearest_memento": nearest_memento})
        for _ in range(2):  # a cold and a warm request of one recommender
            calls["nearest_memento"].clear()
            result = recommender.recommend(request, now=NOW)
            assert result == expected
            assert f"step3: {archived} of " in "\n".join(result.trace)
            assert sorted(e.uri for e in calls["nearest_memento"]) == sorted(r.uri for r in result.recommendations)
            assert len(calls["nearest_memento"]) == archived

    @pytest.mark.parametrize("parallelism", [1, 4], ids=["serial", "pool"])
    def test_warm_request_derives_nothing_per_candidate(self, fixtures_dir, corpus_index, monkeypatch, parallelism):
        recommender = fixture_recommender(fixtures_dir, corpus_index, pooled=parallelism > 1, parallelism=parallelism)
        assert recommender.evidence.parallelism == parallelism
        request = RecommendationRequest(uri="http://odu.edu/compsci", datetime=REQUESTED)
        expected = recommender.recommend(request, now=NOW)
        calls = count_calls(
            monkeypatch, {"canonicalize_surt": uri_module.canonicalize_surt, "tokenize": uri_module.tokenize}
        )
        result = recommender.recommend(request, now=NOW)
        assert result == expected
        assert len(result.recommendations) == 8
        candidates = {e.uri for e in corpus_index.entries_for(VIRGINIA)}
        assert [u for u in calls["tokenize"] + calls["canonicalize_surt"] if u in candidates] == []
        assert set(calls["tokenize"]) == {request.uri}  # its ranking bag and its first-level features
        # Beside the requested URI, only the damage key of each nearest memento.
        assert set(calls["canonicalize_surt"]) == {request.uri} | {r.memento_uri for r in result.recommendations}

    def test_warm_secondary_hit_derives_nothing_per_member(self, fixtures_dir, corpus_index, monkeypatch):
        recommender = fixture_recommender(fixtures_dir, corpus_index)
        request = RecommendationRequest(uri="http://mickeymantle.com/", datetime=REQUESTED)
        expected = recommender.recommend(request, now=NOW)
        calls = count_calls(
            monkeypatch, {"canonicalize_surt": uri_module.canonicalize_surt, "tokenize": uri_module.tokenize}
        )
        result = recommender.recommend(request, now=NOW)
        assert result == expected
        assert result.route == "ontology-hit"
        (member,) = [r.uri for r in result.recommendations]
        assert member == "http://baseballcards.example.com/"
        assert member not in calls["canonicalize_surt"] + calls["tokenize"]
