"""Evaluation arithmetic: F1 bookkeeping and the cross-validation harness.

The constructed confusion fixture (30 items, 10 per class):

              predicted
    truth     A    B    C
      A       8    1    1
      B       2    6    2
      C       0    2    8

    F1(A) = 4/5      (precision 8/10, recall 8/10)
    F1(B) = 12/19    (precision 6/9,  recall 6/10)
    F1(C) = 16/21    (precision 8/11, recall 8/10)
    micro F1 = accuracy = 22/30
    macro F1 = (4/5 + 12/19 + 16/21) / 3 = 4376/5985
"""

from __future__ import annotations

import gc
import random
import weakref
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from archive_recommender import nbayes
from archive_recommender.metrics import (
    EvalReport,
    FoldResult,
    cross_validate,
    majority_baseline,
    score_predictions,
)
from archive_recommender.pipeline import L1_METHOD, L1_VARIANTS, build_l1_corpus
from archive_recommender.uri import TokenMethod, TokenVariant, tokenize
from conftest import count_calls

TOL = 1e-9

CONFUSION_PAIRS = (
    [("A", "A")] * 8 + [("A", "B")] * 1 + [("A", "C")] * 1
    + [("B", "A")] * 2 + [("B", "B")] * 6 + [("B", "C")] * 2
    + [("C", "B")] * 2 + [("C", "C")] * 8
)


class TestScorePredictions:
    def test_per_class_f1(self):
        report = score_predictions(CONFUSION_PAIRS)
        assert report.per_class["A"].f1 == pytest.approx(4 / 5, abs=TOL)
        assert report.per_class["B"].f1 == pytest.approx(12 / 19, abs=TOL)
        assert report.per_class["C"].f1 == pytest.approx(16 / 21, abs=TOL)

    def test_precision_recall_support(self):
        report = score_predictions(CONFUSION_PAIRS)
        b = report.per_class["B"]
        assert b.precision == pytest.approx(6 / 9, abs=TOL)
        assert b.recall == pytest.approx(6 / 10, abs=TOL)
        assert b.support == 10
        assert (b.tp, b.fp, b.fn) == (6, 3, 4)

    def test_micro_macro_weighted(self):
        report = score_predictions(CONFUSION_PAIRS)
        assert report.micro_f1 == pytest.approx(22 / 30, abs=TOL)
        assert report.accuracy == pytest.approx(22 / 30, abs=TOL)
        assert report.macro_f1 == pytest.approx(4376 / 5985, abs=TOL)
        # equal supports make the weighted mean equal the macro mean
        assert report.weighted_f1 == pytest.approx(report.macro_f1, abs=TOL)

    def test_confusion_counts(self):
        report = score_predictions(CONFUSION_PAIRS)
        # each class's diagonal cell, its column less the diagonal, and its
        # row less the diagonal
        counts = {label: (s.tp, s.fp, s.fn) for label, s in report.per_class.items()}
        assert counts == {"A": (8, 2, 2), "B": (6, 3, 4), "C": (8, 3, 2)}
        assert report.evaluated == 30

    def test_none_prediction_penalizes_truth_only(self):
        report = score_predictions([("A", "A"), ("A", None), ("B", "B")])
        a = report.per_class["A"]
        assert (a.tp, a.fp, a.fn) == (1, 0, 1)
        assert set(report.per_class) == {"A", "B"}  # no class stands for the missing prediction
        # unclassified items drag micro F1 below accuracy-of-attempted
        assert report.micro_f1 == pytest.approx(2 * (2 / 2) * (2 / 3) / (2 / 2 + 2 / 3), abs=TOL)

    def test_empty_input(self):
        report = score_predictions([])
        assert report.evaluated == 0
        assert report.micro_f1 == 0.0
        assert report.macro_f1 == 0.0

    def test_fold_totals_come_from_the_folds(self):
        folds = [FoldResult(0, 6, 3, 1, 2), FoldResult(1, 6, 0, 4, 0), FoldResult(2, 8, 1, 1, 1)]
        report = replace(score_predictions([("A", "A"), ("A", "B"), ("B", "B"), ("B", "B")]), folds=folds)
        assert report.skipped_folds == [1]
        assert report.filtered_out == 6
        assert "folds 3   skipped 1" in report.to_table()
        summary = next(r for r in report.to_records() if r["section"] == "summary")
        assert summary["filtered_out"] == 6
        bare = EvalReport({}, 0.0, 0.0, 0.0, 0.0, 0)
        assert (bare.filtered_out, bare.skipped_folds) == (0, [])

    def test_report_serialization(self):
        report = score_predictions(CONFUSION_PAIRS)
        records = report.to_records()
        assert [r["key"] for r in records if r["section"] == "class"] == ["A", "B", "C"]
        summary = next(r for r in records if r["section"] == "summary")
        assert summary["micro_f1"] == round(22 / 30, 4)
        assert "micro F1" in report.to_table()


@given(
    st.lists(
        st.tuples(st.sampled_from("ABCD"), st.sampled_from("ABCD")),
        min_size=1,
        max_size=60,
    )
)
def test_micro_f1_equals_accuracy_on_single_label_data(pairs):
    """With exactly one prediction per item, pooled FP == pooled FN, so
    micro precision == micro recall == accuracy."""
    report = score_predictions(pairs)
    accuracy = sum(1 for t, p in pairs if t == p) / len(pairs)
    assert report.micro_f1 == pytest.approx(accuracy, abs=TOL)


def test_micro_f1_equals_accuracy_on_100_random_sets():
    rng = random.Random(404)
    for _ in range(100):
        labels = [rng.choice("ABCDE") for _ in range(rng.randint(1, 200))]
        predictions = [rng.choice("ABCDE") for _ in labels]
        report = score_predictions(list(zip(labels, predictions)))
        accuracy = sum(1 for t, p in zip(labels, predictions) if t == p) / len(labels)
        assert report.micro_f1 == pytest.approx(accuracy, abs=TOL)


class TestMajorityBaseline:
    def test_fraction_of_most_common(self):
        assert majority_baseline(["A", "A", "A", "B"]) == pytest.approx(0.75)
        assert majority_baseline(["A", "B"]) == pytest.approx(0.5)

    def test_empty(self):
        assert majority_baseline([]) == 0.0


class TestCrossValidate:
    # Two URI families with disjoint token vocabularies; tokens repeat across
    # items so the unseen-feature filter keeps most of the test slices.
    CORPUS = [
        (f"http://alphasite{i}.com/alpha/page{i}", "Computers") for i in range(12)
    ] + [
        (f"http://betasite{i}.org/beta/story{i}", "Sports") for i in range(12)
    ]

    def test_separable_corpus_scores_perfectly(self):
        report = cross_validate(self.CORPUS, TokenMethod.TOKENS,
                                {TokenVariant.STRIP_NUMBERS}, folds=4)
        assert report.micro_f1 == pytest.approx(1.0)
        assert report.evaluated + report.filtered_out == len(self.CORPUS)
        assert report.filtered_out == 0
        assert len(report.folds) == 4

    def test_fold_assignment_is_round_robin(self):
        report = cross_validate(self.CORPUS, TokenMethod.TOKENS,
                                {TokenVariant.STRIP_NUMBERS}, folds=4)
        for fold in report.folds:
            assert fold.train_size == 18
            assert fold.tested == 6

    def test_deterministic(self):
        kwargs = dict(folds=5, smoothing=0.5)
        a = cross_validate(self.CORPUS, TokenMethod.ALL_GRAMS_URI,
                           {TokenVariant.STRIP_NUMBERS}, **kwargs)
        b = cross_validate(self.CORPUS, TokenMethod.ALL_GRAMS_URI,
                           {TokenVariant.STRIP_NUMBERS}, **kwargs)
        assert a == b

    def test_unseen_feature_filter(self):
        # one URI holds a token that appears nowhere else: whichever fold
        # tests it must filter it out rather than guess
        corpus = self.CORPUS + [("http://zzyzxuniq.net/qwwqz", "Computers")]
        report = cross_validate(corpus, TokenMethod.TOKENS,
                                {TokenVariant.STRIP_NUMBERS}, folds=5)
        assert report.filtered_out >= 1
        assert report.evaluated + report.filtered_out == len(corpus)

    def test_guards(self):
        with pytest.raises(ValueError):
            cross_validate(self.CORPUS, TokenMethod.TOKENS, folds=1)
        with pytest.raises(ValueError):
            cross_validate(self.CORPUS[:3], TokenMethod.TOKENS, folds=10)


def cross_validate_retraining(corpus, method, variants=(), folds=10, smoothing=1.0):
    """The earlier ``cross_validate``, kept as the oracle: it trains a new
    model on each fold's training items."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if len(corpus) < folds:
        raise ValueError(f"corpus of {len(corpus)} items cannot fill {folds} folds")
    variant_set = frozenset(variants)
    bags = [tokenize(u, method, variant_set) for u, _ in corpus]
    labels = [label for _, label in corpus]
    n = len(corpus)

    all_pairs = []
    fold_results = []
    skipped = []
    total_filtered = 0
    for k in range(folds):
        train_idx = [i for i in range(n) if i % folds != k]
        test_idx = [i for i in range(n) if i % folds == k]
        model = nbayes.train(((bags[i], labels[i]) for i in train_idx), smoothing)
        fold_pairs = []
        filtered = 0
        for i in test_idx:
            features = bags[i].features
            if not features or any(f not in model.vocabulary for f in features):
                filtered += 1
                continue
            outcome = nbayes.classify(model, bags[i])
            fold_pairs.append((labels[i], outcome.label))
        total_filtered += filtered
        correct = sum(1 for truth, predicted in fold_pairs if truth == predicted)
        fold_results.append(FoldResult(k, len(train_idx), len(fold_pairs), filtered, correct))
        if not fold_pairs:
            skipped.append(k)
            continue
        all_pairs.extend(fold_pairs)

    report = replace(score_predictions(all_pairs), folds=fold_results)
    assert (report.filtered_out, report.skipped_folds) == (total_filtered, skipped)
    return report


def model_state(model):
    """A model as plain values: a Counter equals one that also holds zero
    counts, a dict does not."""
    return (
        model.classes,
        dict(model.doc_counts),
        {c: dict(counts) for c, counts in model.feature_counts.items()},
        frozenset(model.vocabulary),
        len(model.vocabulary),
        dict(model.class_log_prior),
        dict(model._denominator),
        dict(model.unseen_log_likelihood),
    )


# A few words and suffixes, so grams repeat across URIs and some held-out
# items still carry a gram their fold never trained on.
_WORDS = ["news", "shop", "blog", "sport", "games", "music", "art", "data", "web", "kids"]
_HOSTS = st.builds(
    lambda words, digit, tld: "-".join(words) + digit + "." + tld,
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2),
    st.sampled_from(["", "4", "2014"]),
    st.sampled_from(["com", "org", "co.uk", "edu", "de"]),
)
_URIS = st.one_of(
    st.builds(
        lambda host, path: f"http://{host}/" + "/".join(path),
        _HOSTS,
        st.lists(st.sampled_from(_WORDS + ["index.html", "p1"]), max_size=2),
    ),
    # these tokenize to nothing under every method
    st.builds("http://10.0.0.{}/".format, st.integers(0, 9)),
    st.just("http://x.yz/"),
)


@st.composite
def corpora_and_folds(draw):
    labels = "ABCD"[: draw(st.integers(1, 4))]
    corpus = draw(st.lists(st.tuples(_URIS, st.sampled_from(labels)), min_size=2, max_size=40))
    return corpus, draw(st.integers(2, len(corpus)))


@settings(max_examples=200, deadline=None)
@given(
    corpora_and_folds(),
    st.sampled_from(TokenMethod),
    st.sampled_from([frozenset(), L1_VARIANTS]),
    st.sampled_from([0.5, 1.0]),
)
def test_counted_once_equals_retraining(case, method, variants, smoothing):
    """The report equals the retraining oracle's. Each fold's model, derived
    from the corpus model, equals ``nbayes.train`` on that fold's training
    items: in its state, in the membership and the rows of every test
    item's features, and in how it classifies every test item. The corpus
    model's counts equal training on every item whenever a fold is derived."""
    corpus, folds = case
    bags = [(tokenize(u, method, variants), label) for u, label in corpus]
    whole_state = model_state(nbayes.train(bags, smoothing))
    derived = []
    original = nbayes.NaiveBayesModel.less

    def recording(whole, *args):
        assert model_state(whole) == whole_state
        derived.append(original(whole, *args))
        return derived[-1]

    with mock.patch.object(nbayes.NaiveBayesModel, "less", recording):
        report = cross_validate(corpus, method, variants, folds, smoothing)
    assert report == cross_validate_retraining(corpus, method, variants, folds, smoothing)
    assert len(derived) == folds
    for k, model in enumerate(derived):
        trained = nbayes.train((bag for i, bag in enumerate(bags) if i % folds != k), smoothing)
        assert model_state(model) == model_state(trained)
        for bag, _ in bags[k::folds]:
            features = bag.features
            assert [f in model.vocabulary for f in features] == [f in trained.vocabulary for f in features]
            assert nbayes.classify(model, bag) == nbayes.classify(trained, bag)
            assert model._rows_for(features) == trained._rows_for(features)


class TestCountedOnce:
    def test_tokenizes_each_item_once_and_trains_nothing(self, corpus_index, monkeypatch):
        corpus = build_l1_corpus(corpus_index)
        calls = count_calls(monkeypatch, {"tokenize": tokenize, "train": nbayes.train})
        cross_validate(corpus, L1_METHOD, L1_VARIANTS, folds=10)
        assert calls["tokenize"] == [uri for uri, _ in corpus]
        assert calls["train"] == []

    def test_holds_one_fold_model_and_its_counts_at_a_time(self, corpus_index, monkeypatch):
        """When a fold's model is derived, every earlier fold's model and
        held-out counts are gone."""
        corpus = build_l1_corpus(corpus_index)
        models, counts = [], []  # weak references to each fold's model and counts
        derive = nbayes.NaiveBayesModel.less

        def watched(whole, doc_counts, feature_counts):
            gc.collect()
            assert [ref for ref in models + counts if ref() is not None] == []
            model = derive(whole, doc_counts, feature_counts)
            models.append(weakref.ref(model))
            counts.extend(map(weakref.ref, feature_counts.values()))
            return model

        monkeypatch.setattr(nbayes.NaiveBayesModel, "less", watched)
        cross_validate(corpus, L1_METHOD, L1_VARIANTS, folds=10)
        assert len(models) == 10 and counts

    def test_scored_bags_share_one_string_per_gram(self, corpus_index, monkeypatch):
        corpus = build_l1_corpus(corpus_index)
        scored = []  # keeps every scored feature alive, so no id is reused
        classify = nbayes.classify

        def keeping(model, bag):
            scored.extend(bag)
            return classify(model, bag)

        monkeypatch.setattr(nbayes, "classify", keeping)
        cross_validate(corpus, L1_METHOD, L1_VARIANTS, folds=10)
        assert len(scored) > len(set(scored))
        assert len(set(map(id, scored))) == len(set(scored))

    def test_fixtures_at_100_folds_equal_the_oracle(self, corpus_index):
        corpus = build_l1_corpus(corpus_index)
        report = cross_validate(corpus, L1_METHOD, L1_VARIANTS, folds=100)
        assert report == cross_validate_retraining(corpus, L1_METHOD, L1_VARIANTS, folds=100)
        assert len(report.folds) == 100 and report.filtered_out > 0

    def test_folds_build_no_whole_vocabulary_set(self, corpus_index, monkeypatch):
        """One model is built on the corpus, and so one union of its
        classes' grams. Each fold's model is derived from it and never
        lists its vocabulary or its counts."""
        corpus = build_l1_corpus(corpus_index)
        built = []
        build = nbayes.NaiveBayesModel.__init__

        def counted(model, *args):
            built.append(model)
            build(model, *args)

        def whole_vocabulary(_):
            raise AssertionError("a fold listed its whole vocabulary or counts")

        monkeypatch.setattr(nbayes.NaiveBayesModel, "__init__", counted)
        monkeypatch.setattr(nbayes.NaiveBayesModel, "feature_counts", property(whole_vocabulary))
        monkeypatch.setattr(nbayes._Vocabulary, "__iter__", whole_vocabulary)
        report = cross_validate(corpus, L1_METHOD, L1_VARIANTS, folds=10)
        assert len(built) == 1
        assert len(report.folds) == 10

    def test_leave_one_out_on_fixtures_equals_the_oracle(self, corpus_index):
        corpus = build_l1_corpus(corpus_index)
        assert len(corpus) == 489
        report = cross_validate(corpus, L1_METHOD, L1_VARIANTS, folds=489)
        assert report == cross_validate_retraining(corpus, L1_METHOD, L1_VARIANTS, folds=489)
        assert report.evaluated > 0 and report.filtered_out > 0
