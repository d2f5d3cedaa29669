"""Ranking components and the weighted combination.

Temporal hand case: with a 20-year window (2000-01-01 to 2020-01-01 is
7305 days) a memento exactly a quarter-window (1826 days 6 hours) from the
requested datetime scores 1 - 5/20 = 0.75.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from archive_recommender.archives import (
    ArchiveEvidence,
    CandidateEvidence,
    DamageEvidence,
    DamageSource,
    EvidenceService,
    PopularityEvidence,
    fetch_damage,
    nearest_memento,
)
from archive_recommender.ranking import (
    EARLIEST_ARCHIVE_DATE,
    RankWeights,
    TemporalInputs,
    archival_quality,
    popularity_score,
    rank,
    temporal_score,
    uri_similarity,
)
from archive_recommender.uri import TokenMethod, canonicalize_surt, tokenize

UTC = timezone.utc
TOL = 1e-9

EARLIEST = datetime(1996, 1, 1, tzinfo=UTC)  # EARLIEST_ARCHIVE_DATE, which rank reads
UPPER = datetime(2016, 1, 1, tzinfo=UTC)  # 7305 days later
REQUESTED = datetime(2014, 3, 1, tzinfo=UTC)


def evidence_at(*stamps: datetime, uri: str = "http://x.example.com/") -> ArchiveEvidence:
    mementos = tuple(
        sorted((s, f"https://a/web/{s:%Y%m%d%H%M%S}/{uri}") for s in stamps)
    )
    return ArchiveEvidence(uri=uri, mementos=mementos)


class TestRankWeights:
    def test_default_sums_to_one(self):
        w = RankWeights()
        assert w.temporal == w.popularity == w.similarity == w.quality == 0.25

    def test_custom(self):
        w = RankWeights(0.4, 0.3, 0.2, 0.1)
        assert w.temporal == 0.4

    @pytest.mark.parametrize("bad", [(0.5, 0.5, 0.5, 0.5), (1.0, 0.1, 0.0, 0.0),
                                     (-0.25, 0.5, 0.5, 0.25), (0.0, 0.0, 0.0, 0.0)])
    def test_bad_sum_rejected(self, bad):
        with pytest.raises(ValueError):
            RankWeights(*bad)

    @pytest.mark.parametrize("text", ["nan,0,0,1", "0.25,0.25,0.25,nan", "inf,-inf,0.5,0.5",
                                      "1,0,0,-nan", "inf,0,0,0"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            RankWeights.parse(text)

    def test_parse(self):
        w = RankWeights.parse("0.4, 0.2,0.2 ,0.2")
        assert w == RankWeights(0.4, 0.2, 0.2, 0.2)
        with pytest.raises(ValueError):
            RankWeights.parse("0.5,0.5")
        with pytest.raises(ValueError):
            RankWeights.parse("a,b,c,d")


class TestTemporal:
    def test_same_instant_scores_one(self):
        t = temporal_score(TemporalInputs(REQUESTED, REQUESTED, UPPER, EARLIEST))
        assert t == pytest.approx(1.0, abs=TOL)

    def test_full_window_scores_zero(self):
        t = temporal_score(TemporalInputs(UPPER, EARLIEST, UPPER, EARLIEST))
        assert t == pytest.approx(0.0, abs=TOL)

    def test_quarter_window_scores_three_quarters(self):
        memento = REQUESTED - timedelta(days=7305) / 4
        t = temporal_score(TemporalInputs(REQUESTED, memento, UPPER, EARLIEST))
        assert t == pytest.approx(0.75, abs=TOL)

    def test_distance_clamped_beyond_window(self):
        memento = EARLIEST - timedelta(days=40000)
        t = temporal_score(TemporalInputs(REQUESTED, memento, UPPER, EARLIEST))
        assert t == 0.0

    def test_literal_form_is_distance(self):
        memento = REQUESTED - timedelta(days=7305) / 4
        raw = temporal_score(
            TemporalInputs(REQUESTED, memento, UPPER, EARLIEST), as_similarity=False
        )
        assert raw == pytest.approx(0.25, abs=TOL)

    def test_direction_symmetric(self):
        delta = timedelta(days=100)
        before = temporal_score(TemporalInputs(REQUESTED, REQUESTED - delta, UPPER, EARLIEST))
        after = temporal_score(TemporalInputs(REQUESTED, REQUESTED + delta, UPPER, EARLIEST))
        assert before == pytest.approx(after, abs=TOL)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            temporal_score(TemporalInputs(REQUESTED, REQUESTED, EARLIEST, EARLIEST))

    def test_default_earliest_constant(self):
        assert EARLIEST_ARCHIVE_DATE == datetime(1996, 1, 1, tzinfo=UTC)


class TestPopularity:
    def test_best_case_exact(self):
        evidence = PopularityEvidence(
            global_rank=1, rank_floor=30_000_000,
            archive_count=538_300, archive_count_ceiling=538_300,
        )
        assert popularity_score(evidence) == 1.0

    def test_worst_case_exact(self):
        evidence = PopularityEvidence(
            global_rank=30_000_000, rank_floor=30_000_000,
            archive_count=1, archive_count_ceiling=538_300,
        )
        assert popularity_score(evidence) == 0.0

    def test_missing_rank_contributes_zero(self):
        evidence = PopularityEvidence(
            global_rank=None, archive_count=538_300, archive_count_ceiling=538_300
        )
        assert popularity_score(evidence) == pytest.approx(0.5, abs=TOL)

    def test_zero_count_contributes_zero(self):
        evidence = PopularityEvidence(global_rank=1, archive_count=0)
        assert popularity_score(evidence) == pytest.approx(0.5, abs=TOL)

    def test_hand_value(self):
        import math

        evidence = PopularityEvidence(global_rank=28455, archive_count=4)
        expected = (
            abs(math.log(28455) / math.log(30_000_000) - 1.0)
            + math.log(4) / math.log(538_300)
        ) / 2
        assert popularity_score(evidence) == pytest.approx(expected, abs=TOL)

    @given(st.integers(min_value=1, max_value=30_000_000),
           st.integers(min_value=0, max_value=538_300))
    def test_always_in_unit_interval(self, rank_value, count):
        evidence = PopularityEvidence(global_rank=rank_value, archive_count=count)
        assert 0.0 <= popularity_score(evidence) <= 1.0


def _subsets(universe):
    return chain.from_iterable(combinations(universe, k) for k in range(len(universe) + 1))


class TestJaccard:
    def test_exhaustive_up_to_size_eight(self):
        universe = [f"t{i}" for i in range(8)]
        for a in _subsets(universe):
            sa = set(a)
            for b in _subsets(universe):
                sb = set(b)
                expected = len(sa & sb) / len(sa | sb) if sa | sb else 0.0
                assert uri_similarity(sa, sb) == pytest.approx(expected, abs=TOL)

    def test_both_empty_is_zero(self):
        assert uri_similarity(set(), set()) == 0.0

    def test_identity_and_disjoint(self):
        assert uri_similarity({"a", "b"}, {"a", "b"}) == 1.0
        assert uri_similarity({"a"}, {"b"}) == 0.0

    @given(st.sets(st.integers(0, 30), max_size=15), st.sets(st.integers(0, 30), max_size=15))
    def test_symmetric_and_bounded(self, a, b):
        a = {str(x) for x in a}
        b = {str(x) for x in b}
        s = uri_similarity(a, b)
        assert s == uri_similarity(b, a)
        assert 0.0 <= s <= 1.0

    @given(st.sets(st.sampled_from("abcdefg"), max_size=7), st.lists(st.sampled_from("abcdefgh"), max_size=12))
    def test_candidate_tokens_in_any_collection(self, request_tokens, candidate):
        """A tuple of tokens with repeats scores as the set of them does,
        which is how an entry's tokens were kept before they were a tuple."""
        expected = uri_similarity(request_tokens, frozenset(candidate))
        assert uri_similarity(request_tokens, tuple(candidate)) == expected
        assert uri_similarity(frozenset(request_tokens), candidate) == expected


class TestQuality:
    @pytest.mark.parametrize("damage", [0.0, 0.13, 0.5, 1.0])
    def test_complement(self, damage):
        evidence = DamageEvidence(damage=damage, source=DamageSource.PROVIDER)
        assert archival_quality(evidence) == pytest.approx(1.0 - damage, abs=TOL)


def rank_by_uri(candidates, *args, **kwargs):
    """``rank`` with each candidate's token set worked out from its URI."""
    tokens = [tokenize(c.uri, TokenMethod.TOKENS).as_set() for c in candidates]
    return rank(candidates, *args, candidate_tokens=tokens, **kwargs)


def archived(uri, archive, popularity, damage) -> CandidateEvidence:
    """A record as the evidence layer hands it to ranking: the memento
    nearest REQUESTED, and a damage of ``damage``, or the neutral default
    where it is None."""
    memento = nearest_memento(archive, REQUESTED)
    return CandidateEvidence(
        uri=uri,
        archive=archive,
        memento=memento,
        popularity=popularity,
        damage=fetch_damage(None, memento[1]) if damage is None else DamageEvidence(damage, DamageSource.PROVIDER),
    )


class OneMementoSource:
    """A TimeMap source with one memento of every URI, at REQUESTED."""

    def get_timemap(self, uri):
        return f'<https://a/web/20140301000000/{uri}>; rel="memento"; datetime="Sat, 01 Mar 2014 00:00:00 GMT"'

    def get_page(self, page_uri):
        return None


class TestRank:
    def page(self, uri, memento_at, rank_value, count, damage) -> CandidateEvidence:
        popularity = PopularityEvidence(global_rank=rank_value, archive_count=count, archive_count_ceiling=538_300)
        return archived(uri, evidence_at(memento_at, uri=uri), popularity, damage)

    def test_endpoint_scores(self):
        best = self.page("http://best.example.com/", REQUESTED, 1, 538_300, 0.0)
        worst = self.page(
            "http://unrelated.beta.net/",
            REQUESTED - timedelta(days=7305) / 4,
            30_000_000, 1, 1.0,
        )
        results = rank_by_uri(
            [worst, best],
            request_tokens={"best", "example", "com"},
            requested=REQUESTED,
            upper_bound=UPPER,
        )
        assert [r.uri for r in results] == [best.uri, worst.uri]
        assert results[0].score == pytest.approx(1.0, abs=TOL)
        # worst: t=0.75, p=0, s=0 (no shared tokens), q=0
        assert results[1].score == pytest.approx(0.25 * 0.75, abs=TOL)
        assert results[1].similarity == 0.0

    def test_weighted_combination(self):
        candidate = self.page("http://best.example.com/", REQUESTED, 1, 538_300, 0.5)
        (result,) = rank_by_uri(
            [candidate],
            RankWeights(0.5, 0.25, 0.0, 0.25),
            request_tokens={"best", "example", "com"},
            requested=REQUESTED,
            upper_bound=UPPER,
        )
        assert result.score == pytest.approx(0.5 * 1 + 0.25 * 1 + 0.0 * 1 + 0.25 * 0.5, abs=TOL)

    def test_score_ties_break_by_uri(self):
        a = self.page("http://aaa.example.com/", REQUESTED, 100, 10, 0.2)
        b = self.page("http://bbb.example.com/", REQUESTED, 100, 10, 0.2)
        results = rank_by_uri(
            [b, a], request_tokens=set(), requested=REQUESTED,
            upper_bound=UPPER,
        )
        assert [r.uri for r in results] == [a.uri, b.uri]
        assert results[0].score == pytest.approx(results[1].score, abs=TOL)

    def test_top_n_truncation(self):
        pages = [
            self.page(f"http://site{i}.example.com/", REQUESTED, 1000 * (i + 1), 10, 0.1)
            for i in range(5)
        ]
        results = rank_by_uri(
            pages, top_n=2, request_tokens=set(), requested=REQUESTED,
            upper_bound=UPPER,
        )
        assert len(results) == 2
        assert results[0].score >= results[1].score

    def test_missing_damage_defaults_to_half(self):
        uri = "http://x.example.com/"
        candidate = EvidenceService(OneMementoSource()).evidence_for(uri, canonicalize_surt(uri), REQUESTED)
        (result,) = rank_by_uri(
            [candidate], request_tokens=set(), requested=REQUESTED,
            upper_bound=UPPER,
        )
        assert result.quality == pytest.approx(0.5, abs=TOL)
        assert "default_missing" in result.explanations[3]

    def test_unarchived_candidate_rejected(self):
        empty = CandidateEvidence(
            uri="http://gone.example.com/",
            archive=ArchiveEvidence(uri="http://gone.example.com/", mementos=()),
            popularity=PopularityEvidence(global_rank=None),
            damage=None,
        )
        with pytest.raises(ValueError):
            rank_by_uri([empty], request_tokens=set(), requested=REQUESTED,
                 upper_bound=UPPER)

    def test_nearest_memento_feeds_temporal(self):
        far = REQUESTED - timedelta(days=7305) / 4
        near = REQUESTED - timedelta(days=10)
        candidate = archived(
            "http://x.example.com/",
            evidence_at(far, near, uri="http://x.example.com/"),
            PopularityEvidence(global_rank=None),
            None,
        )
        (result,) = rank_by_uri(
            [candidate], request_tokens=set(), requested=REQUESTED,
            upper_bound=UPPER,
        )
        assert result.memento_datetime == near
        assert result.temporal == pytest.approx(1 - (10 / 7305), abs=TOL)

    def test_literal_temporal_flag(self):
        candidate = self.page(
            "http://x.example.com/", REQUESTED - timedelta(days=7305) / 4, None, 0, None
        )
        (result,) = rank_by_uri(
            [candidate], request_tokens=set(), requested=REQUESTED,
            upper_bound=UPPER, temporal_as_similarity=False,
        )
        assert result.temporal == pytest.approx(0.25, abs=TOL)

    def test_explanations_carry_component_values(self):
        candidate = self.page("http://best.example.com/", REQUESTED, 28455, 4, 0.13)
        (result,) = rank_by_uri(
            [candidate], request_tokens={"best", "example", "com"},
            requested=REQUESTED, upper_bound=UPPER,
        )
        texts = "\n".join(result.explanations)
        assert "temporal=1.000000" in texts
        assert "rank 28455" in texts
        assert "similarity=1.000000" in texts
        assert "damage 0.130000" in texts

    def test_notes_end_every_explanation(self):
        pages = [self.page(f"http://site{i}.example.com/", REQUESTED, 1000, 10, 0.1) for i in range(3)]
        results = rank_by_uri(
            pages, request_tokens=set(), requested=REQUESTED,
            upper_bound=UPPER, notes=("path: ontology-hit",),
        )
        assert [r.explanations[4:] for r in results] == [("path: ontology-hit",)] * 3
        plain = rank_by_uri(
            pages, request_tokens=set(), requested=REQUESTED, upper_bound=UPPER,
        )
        assert [r.explanations for r in plain] == [r.explanations[:4] for r in results]

    def test_similarity_reads_the_given_token_sets(self):
        candidate = self.page("http://best.example.com/", REQUESTED, 1, 538_300, 0.0)
        (result,) = rank(
            [candidate], request_tokens={"best", "example", "com"},
            candidate_tokens=[frozenset({"example", "other"})],
            requested=REQUESTED, upper_bound=UPPER,
        )
        assert result.similarity == pytest.approx(1 / 4, abs=TOL)
        assert "1 shared of 4 tokens" in result.explanations[2]

    def test_token_tuples_rank_as_their_sets(self):
        """Candidate tokens given as tuples, in order and with repeats as an
        index entry keeps them, rank exactly as their sets do."""
        pages = [
            self.page("http://news.example.com/news/world", REQUESTED, 50, 100, 0.1),
            self.page("http://sports.example.org/", REQUESTED, 10, 10, 0.3),
        ]
        tuples = [tokenize(page.uri, TokenMethod.TOKENS).features for page in pages]
        assert len(set(tuples[0])) < len(tuples[0])  # a repeated token
        request_tokens = {"news", "example", "net"}
        as_tuples = rank(pages, request_tokens=request_tokens, candidate_tokens=tuples,
                         requested=REQUESTED, upper_bound=UPPER)
        assert as_tuples == rank(pages, request_tokens=request_tokens, candidate_tokens=list(map(frozenset, tuples)),
                                 requested=REQUESTED, upper_bound=UPPER)
        assert "2 shared of 5 tokens" in as_tuples[0].explanations[2]

    def test_token_sets_must_match_candidates(self):
        candidate = self.page("http://best.example.com/", REQUESTED, 1, 538_300, 0.0)
        with pytest.raises(ValueError):
            rank([candidate], request_tokens=set(), candidate_tokens=[], requested=REQUESTED,
                 upper_bound=UPPER)
