"""Add-one multinomial naive Bayes: hand-checked posteriors, log-space
robustness, and byte-stable persistence.

The toy corpus is ([x, y] -> A), ([x] -> A), ([y, z] -> B), so with add-1
smoothing over vocabulary {x, y, z}:

    priors        P(A) = 2/3            P(B) = 1/3
    likelihoods   P(x|A) = 3/6  P(y|A) = 2/6  P(z|A) = 1/6
                  P(x|B) = 1/5  P(y|B) = 2/5  P(z|B) = 2/5

    P(A | x y) = (2/3 * 1/2 * 1/3) / (2/3 * 1/2 * 1/3 + 1/3 * 1/5 * 2/5) = 25/31
    P(A | z)   = (2/3 * 1/6) / (2/3 * 1/6 + 1/3 * 2/5)                   = 5/11
    P(A | x)   = (2/3 * 1/2) / (2/3 * 1/2 + 1/3 * 1/5)                   = 5/6
"""

from __future__ import annotations

import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from archive_recommender.nbayes import (
    Classification,
    NaiveBayesModel,
    SmoothingError,
    classify,
    load_model,
    save_model,
    train,
)
from archive_recommender.pipeline import L1_METHOD, L1_VARIANTS, build_l1_corpus
from archive_recommender.uri import TokenMethod, TokenVariant, tokenize

TOY = [(["x", "y"], "A"), (["x"], "A"), (["y", "z"], "B")]
TOL = 1e-9


@pytest.fixture()
def toy_model():
    return train(TOY)


class TestHandChecked:
    def test_priors_and_likelihoods(self, toy_model):
        assert toy_model.classes == ("A", "B")
        assert toy_model.class_log_prior["A"] == pytest.approx(math.log(2 / 3), abs=TOL)
        # a one-feature query's posteriors are each class's prior times its
        # likelihood, normalized
        for feature, likelihood_a, likelihood_b in (("x", 1 / 2, 1 / 5), ("y", 1 / 3, 2 / 5), ("z", 1 / 6, 2 / 5)):
            a, b = 2 / 3 * likelihood_a, 1 / 3 * likelihood_b
            posteriors = dict(classify(toy_model, [feature]).posteriors)
            assert posteriors["A"] == pytest.approx(a / (a + b), abs=TOL)
            assert posteriors["B"] == pytest.approx(b / (a + b), abs=TOL)

    def test_posterior_xy(self, toy_model):
        outcome = classify(toy_model, ["x", "y"])
        assert outcome.label == "A"
        posteriors = dict(outcome.posteriors)
        assert posteriors["A"] == pytest.approx(25 / 31, abs=TOL)
        assert posteriors["B"] == pytest.approx(6 / 31, abs=TOL)

    def test_posterior_z(self, toy_model):
        outcome = classify(toy_model, ["z"])
        assert outcome.label == "B"
        assert dict(outcome.posteriors)["A"] == pytest.approx(5 / 11, abs=TOL)

    def test_posterior_after_oov_drop(self, toy_model):
        outcome = classify(toy_model, ["x", "never-seen"])
        assert dict(outcome.posteriors)["A"] == pytest.approx(5 / 6, abs=TOL)

    def test_repeated_features_multiply(self, toy_model):
        outcome = classify(toy_model, ["z", "z"])
        # (2/3)(1/6)^2 vs (1/3)(2/5)^2
        a = (2 / 3) * (1 / 6) ** 2
        b = (1 / 3) * (2 / 5) ** 2
        assert dict(outcome.posteriors)["B"] == pytest.approx(b / (a + b), abs=TOL)


class TestEdgeCases:
    def test_unclassifiable(self, toy_model):
        outcome = classify(toy_model, ["never-seen"])
        assert outcome.unclassifiable
        assert outcome.label is None
        assert outcome.posteriors == ()

    def test_empty_bag_unclassifiable(self, toy_model):
        assert classify(toy_model, []).unclassifiable

    def test_lexicographic_tie_break(self):
        model = train([(["x"], "B"), (["x"], "A")])
        outcome = classify(model, ["x"])
        assert outcome.label == "A"
        posteriors = dict(outcome.posteriors)
        assert posteriors["A"] == pytest.approx(posteriors["B"], abs=TOL)

    def test_posteriors_sorted_best_first(self, toy_model):
        outcome = classify(toy_model, ["z"])
        probs = [p for _, p in outcome.posteriors]
        assert probs == sorted(probs, reverse=True)

    def test_invalid_training(self):
        with pytest.raises(ValueError):
            train([])
        with pytest.raises(ValueError):
            train(TOY, smoothing=0.0)

    @pytest.mark.parametrize(
        "smoothing, problem",
        [
            (math.nan, "smoothing nan is not a finite number above 0"),
            (math.inf, "smoothing inf is not a finite number above 0"),
            (-math.inf, "smoothing -inf is not a finite number above 0"),
            (-1.0, "smoothing -1.0 is not a finite number above 0"),
            # 1e308 times a vocabulary of 3 is past the largest float
            (1e308, "smoothing 1e+308 overflows the denominator of class 'A'"),
            # 5e-324 over a denominator of 3 rounds to 0
            (5e-324, "smoothing 5e-324 underflows the unseen likelihood of class 'A'"),
        ],
    )
    def test_smoothing_a_model_cannot_take(self, smoothing, problem):
        with pytest.raises(SmoothingError) as raised:
            train(TOY, smoothing)
        assert str(raised.value) == problem

    @pytest.mark.parametrize("smoothing", [1e-300, 1e300, sys.float_info.max / 4])
    def test_extreme_smoothing_the_model_can_take(self, smoothing):
        outcome = classify(train(TOY, smoothing), ["x", "z", "z"])
        assert all(math.isfinite(p) for _, p in outcome.posteriors)
        assert math.fsum(p for _, p in outcome.posteriors) == pytest.approx(1.0)

    def test_mixed_tokenization_rejected(self):
        a = tokenize("http://example.com/x", TokenMethod.TOKENS)
        b = tokenize("http://example.com/y", TokenMethod.ALL_GRAMS_URI)
        with pytest.raises(ValueError):
            train([(a, "A"), (b, "B")])

    def test_bag_config_mismatch_rejected(self):
        bags = [
            (tokenize("http://alpha.com/page", TokenMethod.TOKENS), "A"),
            (tokenize("http://beta.org/story", TokenMethod.TOKENS), "B"),
        ]
        model = train(bags)
        wrong = tokenize("http://alpha.com/page", TokenMethod.TOKENS, {TokenVariant.STRIP_TLD})
        with pytest.raises(ValueError):
            classify(model, wrong)


class TestLogSpace:
    def test_uniform_shift_leaves_posteriors_unchanged(self, toy_model):
        # Scaling every class's document count by 100 shifts every class
        # log-score by ln(100) and must not move posteriors or the argmax.
        shifted = NaiveBayesModel(
            {c: n * 100 for c, n in toy_model.doc_counts.items()},
            toy_model.feature_counts,
            toy_model.smoothing,
        )
        for bag in (["x", "y"], ["z"], ["x", "z", "z"]):
            a = classify(toy_model, bag)
            b = classify(shifted, bag)
            assert a.label == b.label
            for (_, pa), (_, pb) in zip(a.posteriors, b.posteriors):
                assert pa == pytest.approx(pb, abs=TOL)

    def test_long_bags_do_not_underflow(self, toy_model):
        outcome = classify(toy_model, ["x"] * 500 + ["y"] * 300)
        assert outcome.label == "A"
        total = sum(p for _, p in outcome.posteriors)
        assert total == pytest.approx(1.0, abs=TOL)
        assert dict(outcome.posteriors)["A"] > 0.999


class TestLess:
    """``less`` gives the model of the corpus less some of its documents:
    what ``train`` gives on the documents left, with the corpus model as
    it was."""

    @staticmethod
    def saved(model, path):
        save_model(model, path)
        return path.read_bytes()

    def test_equals_training_on_what_is_left(self, tmp_path, toy_model):
        derived = toy_model.less({"A": 1}, {"A": Counter(["x", "y"])})
        rest = train(TOY[1:])
        assert derived.classes == rest.classes and derived.doc_counts == rest.doc_counts
        assert set(derived.vocabulary) == rest.vocabulary == {"x", "y", "z"}
        for bag in (["x", "y"], ["z"], ["x", "x", "w"]):
            assert classify(derived, bag) == classify(rest, bag)
        assert self.saved(derived, tmp_path / "derived.nb") == self.saved(rest, tmp_path / "rest.nb")
        assert self.saved(toy_model, tmp_path / "toy.nb") == self.saved(train(TOY), tmp_path / "fresh.nb")

    def test_features_and_classes_held_out_entirely_leave(self, toy_model):
        derived = toy_model.less({"B": 1}, {"B": Counter(["y", "z"])})
        rest = train(TOY[:2])
        assert derived.classes == rest.classes == ("A",)
        assert "z" not in derived.vocabulary and len(derived.vocabulary) == 2
        assert derived.vocabulary.issuperset(["x", "y"])
        assert not derived.vocabulary.issuperset(["x", "z"]) and not derived.vocabulary.issuperset(["x", "w"])
        for bag in (["x", "y"], ["z"], ["y", "z"]):
            assert classify(derived, bag) == classify(rest, bag)

    def test_a_derived_model_derives_no_other(self, toy_model):
        derived = toy_model.less({"A": 1}, {"A": Counter(["x"])})
        with pytest.raises(ValueError, match="derives no other"):
            derived.less({"A": 1}, {"A": Counter(["x", "y"])})


def test_filled_rows_are_keyed_by_the_vocabularys_own_strings():
    """A trained model's row table is its vocabulary: a query fills the
    slots of the features it holds, and each slot keeps the corpus's own
    ``str`` object, not the query's copy, nor a slot for a feature the
    corpus never held."""
    model = train([(["news", "sport", "news"], "A"), (["sport", "music"], "B"), (["art"], "B")])
    query = ["".join(list(feature)) for feature in ("news", "music", "sport", "music", "never-seen")]
    assert not any(copy is feature for copy in query for feature in ("news", "sport", "music"))
    classify(model, query)
    model._rows_for(query)
    corpus_keys = {id(feature) for counts in model.feature_counts.values() for feature in counts}
    assert {id(feature) for feature in model._rows} == corpus_keys
    assert len(model._rows) == len(model.vocabulary) == 4
    assert sorted(f for f, row in model._rows.items() if row is not None) == ["music", "news", "sport"]


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path, toy_model):
        path = tmp_path / "model.nb"
        save_model(toy_model, path)
        loaded = load_model(path)
        assert loaded.doc_counts == toy_model.doc_counts
        assert loaded.feature_counts == toy_model.feature_counts
        assert loaded.smoothing == toy_model.smoothing
        for bag in (["x", "y"], ["z"]):
            a, b = classify(toy_model, bag), classify(loaded, bag)
            assert a.posteriors == b.posteriors

    def test_byte_stable(self, tmp_path, toy_model):
        one, two = tmp_path / "one.nb", tmp_path / "two.nb"
        save_model(toy_model, one)
        save_model(load_model(one), two)
        assert one.read_bytes() == two.read_bytes()

    def test_tokenization_config_persisted(self, tmp_path):
        bags = [
            (tokenize("http://alpha.com/page", TokenMethod.ALL_GRAMS_URI,
                      {TokenVariant.STRIP_TLD}), "A"),
            (tokenize("http://beta.org/story", TokenMethod.ALL_GRAMS_URI,
                      {TokenVariant.STRIP_TLD}), "B"),
        ]
        model = train(bags)
        path = tmp_path / "model.nb"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.method is TokenMethod.ALL_GRAMS_URI
        assert loaded.variants == frozenset({TokenVariant.STRIP_TLD})

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "nope.nb"
        path.write_text("something else\n", "utf-8")
        with pytest.raises(ValueError):
            load_model(path)


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from("pqrs"), min_size=1, max_size=6),
            st.sampled_from(["A", "B", "C"]),
        ),
        min_size=1,
        max_size=20,
    ).filter(lambda corpus: len({label for _, label in corpus}) >= 2)
)
def test_posteriors_always_normalized(corpus):
    model = train(corpus)
    outcome = classify(model, ["p", "q"])
    if not outcome.unclassifiable:
        assert sum(p for _, p in outcome.posteriors) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 for _, p in outcome.posteriors)
        assert outcome.label == outcome.posteriors[0][0]


@given(st.integers(min_value=1, max_value=50))
def test_duplicating_corpus_preserves_argmax(k):
    base = train(TOY)
    scaled = train(TOY * k)
    for bag in (["x"], ["y"], ["z"], ["x", "z"]):
        assert classify(base, bag).label == classify(scaled, bag).label


# ---------------------------------------------------------------------------
# Oracle: the model as it was before log-likelihoods were computed on
# demand. Its constructor copies every Counter and takes the log of every
# (class, feature) pair; its classify looks each pair up and sums the
# products class by class.


class EagerModel:
    def __init__(self, doc_counts, feature_counts, smoothing):
        self.classes = tuple(sorted(doc_counts))
        self.doc_counts = dict(doc_counts)
        self.feature_counts = {c: Counter(feature_counts.get(c, ())) for c in self.classes}
        self.smoothing = smoothing
        self.method = None
        self.variants = frozenset()
        self.vocabulary = frozenset(
            feature for counts in self.feature_counts.values() for feature in counts
        )
        total_docs = sum(self.doc_counts.values())
        self.class_log_prior = {
            c: math.log(self.doc_counts[c] / total_docs) for c in self.classes
        }
        v = len(self.vocabulary)
        self.feature_log_likelihood = {}
        self.unseen_log_likelihood = {}
        for c in self.classes:
            counts = self.feature_counts[c]
            denominator = sum(counts.values()) + smoothing * v
            self.feature_log_likelihood[c] = {
                feature: math.log((count + smoothing) / denominator)
                for feature, count in counts.items()
            }
            self.unseen_log_likelihood[c] = math.log(smoothing / denominator) if v else 0.0

    def log_likelihood(self, label, feature):
        return self.feature_log_likelihood[label].get(feature, self.unseen_log_likelihood[label])


def eager_classify(model, features):
    known = [f for f in features if f in model.vocabulary]
    if not known:
        return Classification(None, ())
    counts = Counter(known)
    raw = {
        c: model.class_log_prior[c]
        + sum(model.log_likelihood(c, f) * k for f, k in counts.items())
        for c in model.classes
    }
    peak = max(raw.values())
    unnormalized = {c: math.exp(s - peak) for c, s in raw.items()}
    norm = sum(unnormalized.values())
    posteriors = sorted(
        ((c, unnormalized[c] / norm) for c in model.classes), key=lambda kv: (-kv[1], kv[0])
    )
    return Classification(posteriors[0][0], tuple(posteriors))


_FEATURES = "abcdef"
_OOV = ["zz", "never-seen"]


@st.composite
def corpus_and_queries(draw):
    """2-5 classes of 1-3 documents over a few repeated features (a
    document may be empty), a smoothing, and queries that mix known and
    out-of-vocabulary features."""
    labels = draw(st.lists(st.sampled_from("ABCDE"), min_size=2, max_size=5, unique=True))
    document = st.lists(st.sampled_from(_FEATURES), max_size=8)
    corpus = [(draw(document), label) for label in labels
              for _ in range(draw(st.integers(1, 3)))]
    smoothing = draw(st.sampled_from([0.5, 1.0, 2.0]))
    queries = draw(st.lists(st.lists(st.sampled_from(list(_FEATURES) + _OOV), max_size=10),
                            min_size=1, max_size=4))
    return corpus, smoothing, queries


def _counts(corpus):
    doc_counts, feature_counts = Counter(), {}
    for features, label in corpus:
        doc_counts[label] += 1
        feature_counts.setdefault(label, Counter()).update(features)
    return dict(doc_counts), feature_counts


@settings(max_examples=60, deadline=None)
@given(corpus_and_queries(), st.randoms(use_true_random=False))
def test_lazy_model_matches_eager_oracle(tmp_path_factory, case, rng):
    corpus, smoothing, queries = case
    doc_counts, feature_counts = _counts(corpus)
    oracle = EagerModel(doc_counts, feature_counts, smoothing)
    expected = [eager_classify(oracle, q) for q in queries]

    model = NaiveBayesModel(doc_counts, feature_counts, smoothing)
    assert [classify(model, q) for q in queries] == expected
    assert [classify(model, q) for q in queries] == expected  # memoized second pass
    singles = [[f] for f in list(_FEATURES) + _OOV]
    fresh = NaiveBayesModel(doc_counts, feature_counts, smoothing)
    for m in (fresh, model):
        assert [classify(m, q) for q in singles] == [eager_classify(oracle, q) for q in singles]
    # cold and warm queries interleaved on one model: each query finds some
    # of its features filled by earlier queries and fills the rest
    mixed = [*queries, *singles, *queries]
    rng.shuffle(mixed)
    interleaved = NaiveBayesModel(doc_counts, feature_counts, smoothing)
    assert [classify(interleaved, q) for q in mixed] == [eager_classify(oracle, q) for q in mixed]
    assert train(corpus, smoothing).vocabulary == oracle.vocabulary

    directory = tmp_path_factory.mktemp("models")
    save_model(model, directory / "lazy.nb")
    save_model(oracle, directory / "eager.nb")
    assert (directory / "lazy.nb").read_bytes() == (directory / "eager.nb").read_bytes()

    shared = NaiveBayesModel(doc_counts, feature_counts, smoothing)
    start = threading.Barrier(4)
    results: list[list[Classification] | None] = [None] * 4

    def work(slot: int) -> None:
        start.wait()
        results[slot] = [classify(shared, q) for q in queries * 3]

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-fill
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected * 3] * 4
    assert len(shared.vocabulary) == len(oracle.vocabulary)
    # threads that filled features of one count vector at once kept one row
    filled = {feature: row for feature, row in shared._rows.items() if row is not None}
    one_row: dict[tuple, tuple] = {}
    for row, vector in zip(filled.values(), _count_vectors(shared, filled)):
        assert one_row.setdefault(vector, row) is row


def _count_vectors(model, features):
    counts = model.feature_counts
    return [tuple(counts[c].get(f) for c in model.classes) for f in features]


@pytest.mark.parametrize("held_out", [0, 7], ids=["trained", "derived"])
def test_features_with_one_count_vector_share_one_row(corpus_index, held_out):
    """Every vocabulary slot of the first-level model of ``fixtures/``,
    trained or derived with ``less``, filled at once: features with equal
    count vectors hold the same row object, there are as many row objects
    as vectors, and the posteriors equal both oracles'."""
    corpus = [
        (tokenize(uri, L1_METHOD, L1_VARIANTS).features, label) for uri, label in build_l1_corpus(corpus_index)
    ]
    kept = [item for i, item in enumerate(corpus) if not held_out or i % held_out]
    model = train(corpus)
    if held_out:
        model = model.less(*_counts([item for i, item in enumerate(corpus) if not i % held_out]))
    features = list(model.vocabulary)
    rows = model._rows_for(features)
    by_vector: dict[tuple, tuple] = {}
    for row, vector in zip(rows, _count_vectors(model, features)):
        assert by_vector.setdefault(vector, row) is row
    assert len({id(row) for row in rows}) == len(by_vector) < len(features) / 10
    oracle, retrained = EagerModel(*_counts(kept), 1.0), train(kept)
    for query, _ in corpus[::3]:
        assert classify(model, query) == eager_classify(oracle, query) == classify(retrained, query)
