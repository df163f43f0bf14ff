import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satira import DataError, VectorizerConfig, make_document
from satira.models import nb_fit, nb_predict
from satira.models.naive_bayes import load_nb, nb_from_text, nb_to_text, save_nb
from satira.vectorize import fit as fit_vectorizer, transform

CFG = VectorizerConfig(max_df=1.0)


def matrix_for(token_lists, vocab=None):
    docs = [make_document(f"d{i}", " ".join(t)) for i, t in enumerate(token_lists)]
    if vocab is None:
        vocab = fit_vectorizer(docs, CFG)
    return transform(docs, vocab, CFG), vocab


def fixture_model():
    """FAKE docs [a,a,b], [a,c]; REAL docs [b,b,c], [c,c]; alpha 1."""
    X, vocab = matrix_for([["a", "a", "b"], ["a", "c"], ["b", "b", "c"], ["c", "c"]])
    y = np.array([1, 1, 0, 0])
    return nb_fit(X, y, alpha=1.0), vocab


class TestFit:
    def test_hand_computed_likelihoods(self):
        model, vocab = fixture_model()
        a, b, c = vocab.index["a"], vocab.index["b"], vocab.index["c"]
        fake, real = model.feature_log_prob[0], model.feature_log_prob[1]
        assert math.exp(fake[a]) == pytest.approx(4 / 8, abs=1e-12)
        assert math.exp(fake[b]) == pytest.approx(2 / 8, abs=1e-12)
        assert math.exp(fake[c]) == pytest.approx(2 / 8, abs=1e-12)
        assert math.exp(real[a]) == pytest.approx(1 / 8, abs=1e-12)
        assert math.exp(real[b]) == pytest.approx(3 / 8, abs=1e-12)
        assert math.exp(real[c]) == pytest.approx(4 / 8, abs=1e-12)

    def test_single_doc_per_class_balanced_priors(self):
        X, _ = matrix_for([["a"], ["b"]])
        model = nb_fit(X, np.array([1, 0]))
        assert model.class_log_prior[0] == pytest.approx(math.log(0.5), abs=1e-12)
        assert model.class_log_prior[1] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_large_alpha_approaches_uniform(self):
        X, _ = matrix_for([["a", "a", "b"], ["c"]])
        model = nb_fit(X, np.array([1, 0]), alpha=1e9)
        uniform = math.log(1 / 3)
        assert np.allclose(model.feature_log_prob, uniform, atol=1e-6)

    def test_likelihood_rows_normalize(self):
        model, _ = fixture_model()
        sums = np.exp(model.feature_log_prob).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_class_absent_rejected(self):
        X, _ = matrix_for([["a"], ["b"]])
        with pytest.raises(DataError, match="absent"):
            nb_fit(X, np.array([1, 1]))

    def test_negative_values_rejected(self):
        X, _ = matrix_for([["a"], ["b"]])
        X.values[0] = -1.0
        with pytest.raises(DataError, match="non-negative"):
            nb_fit(X, np.array([1, 0]))

    def test_bad_alpha(self):
        X, _ = matrix_for([["a"], ["b"]])
        with pytest.raises(ValueError):
            nb_fit(X, np.array([1, 0]), alpha=0.0)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    def test_non_finite_or_negative_alpha_rejected(self, alpha):
        # alpha=nan used to pass the check and give an all-NaN model
        X, _ = matrix_for([["a"], ["b"]])
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            nb_fit(X, np.array([1, 0]), alpha=alpha)


class TestPredict:
    def test_fixture_prediction(self):
        model, vocab = fixture_model()
        X, _ = matrix_for([["a", "b"]], vocab)
        labels, scores = nb_predict(model, X)
        assert labels[0] == 1  # fake
        assert math.exp(scores[0, 0]) == pytest.approx(0.5 * 0.5 * 0.25, abs=1e-12)
        assert math.exp(scores[0, 1]) == pytest.approx(0.5 * 0.125 * 0.375, abs=1e-12)

    def test_all_zero_row_uses_priors(self):
        X, vocab = matrix_for([["a"], ["a"], ["b"]])
        model = nb_fit(X, np.array([1, 1, 0]))
        Xz, _ = matrix_for([["zzz"]], vocab)
        labels, scores = nb_predict(model, Xz)
        assert np.allclose(scores[0], model.class_log_prior)
        assert labels[0] == 1  # prior mass favors fake

    def test_row_scaling_never_flips_single_feature(self):
        X, vocab = matrix_for([["a"], ["b"]])
        model = nb_fit(X, np.array([1, 0]))
        X1, _ = matrix_for([["a"]], vocab)
        X2, _ = matrix_for([["a", "a"]], vocab)
        assert nb_predict(model, X1)[0][0] == nb_predict(model, X2)[0][0]

    def test_dimension_mismatch(self):
        model, _ = fixture_model()
        X, _ = matrix_for([["p", "q"]])  # 2-feature vocabulary
        with pytest.raises(DataError, match="features"):
            nb_predict(model, X)

    def test_tie_breaks_toward_fake(self):
        X, vocab = matrix_for([["a"], ["b"]])
        model = nb_fit(X, np.array([1, 0]))
        # a fully symmetric doc: equal evidence for both classes
        Xt, _ = matrix_for([["a", "b"]], vocab)
        labels, scores = nb_predict(model, Xt)
        assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
        assert labels[0] == 1


def brute_force_predict(train_counts, y, test_counts, alpha=1.0):
    """Independent enumeration of the smoothed-likelihood decision."""
    n_features = len(train_counts[0])

    def class_score(cls, x):
        members = [doc for doc, label in zip(train_counts, y) if label == cls]
        total = sum(sum(doc) for doc in members)
        score = math.log(len(members) / len(y))
        for f in range(n_features):
            count = sum(doc[f] for doc in members)
            score += x[f] * math.log((count + alpha) / (total + alpha * n_features))
        return score

    preds = []
    for x in test_counts:
        fake = class_score(1, x)
        real = class_score(0, x)
        # same documented decision rule: fake unless real leads by more
        # than the 1e-9 relative tie tolerance
        scale = max(1.0, abs(fake), abs(real))
        preds.append(1 if fake - real >= -1e-9 * scale else 0)
    return preds


class TestBruteForceEquivalence:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_enumeration_on_small_instances(self, data):
        n_docs = 4
        counts = data.draw(
            st.lists(
                st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=n_docs,
                max_size=n_docs,
            ).filter(lambda cs: all(any(doc[f] > 0 for doc in cs) for f in range(3)))
        )
        y = data.draw(
            st.lists(st.integers(0, 1), min_size=n_docs, max_size=n_docs).filter(
                lambda labels: len(set(labels)) == 2
            )
        )
        token_lists = [
            [tok for f, tok in enumerate("pqr") for _ in range(doc[f])] or ["p"]
            for doc in counts
        ]
        docs = [make_document(f"d{i}", " ".join(t)) for i, t in enumerate(token_lists)]
        vocab = fit_vectorizer(docs, CFG)
        X = transform(docs, vocab, CFG)
        model = nb_fit(X, np.array(y))
        tests = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=3, max_size=3),
                min_size=1,
                max_size=4,
            )
        )
        test_lists = [
            [tok for f, tok in enumerate("pqr") for _ in range(doc[f])] or ["p"]
            for doc in tests
        ]
        test_docs = [make_document(f"t{i}", " ".join(t)) for i, t in enumerate(test_lists)]
        Xt = transform(test_docs, vocab, CFG)
        labels, _ = nb_predict(model, Xt)
        # map matrix columns back to p,q,r order for the oracle
        col = [vocab.index[t] for t in "pqr"]
        ordered_train = [[row[c] for c in col] for row in X.toarray()]
        ordered_test = [[row[c] for c in col] for row in Xt.toarray()]
        expected = brute_force_predict(ordered_train, y, ordered_test)
        assert labels.tolist() == expected


class TestInvariants:
    def test_priors_exponentiate_to_one(self):
        model, _ = fixture_model()
        assert np.exp(model.class_log_prior).sum() == pytest.approx(1.0, abs=1e-12)

    def test_training_order_permutation_exact(self):
        token_lists = [["a", "a", "b"], ["a", "c"], ["b", "b", "c"], ["c", "c"]]
        y = [1, 1, 0, 0]
        X, vocab = matrix_for(token_lists)
        base = nb_fit(X, np.array(y))
        order = [2, 0, 3, 1]
        Xp, _ = matrix_for([token_lists[i] for i in order], vocab)
        permuted = nb_fit(Xp, np.array([y[i] for i in order]))
        assert np.array_equal(base.feature_log_prob, permuted.feature_log_prob)
        assert np.array_equal(base.class_log_prior, permuted.class_log_prior)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model, _ = fixture_model()
        path = tmp_path / "model.txt"
        save_nb(model, path)
        loaded = load_nb(path)
        assert np.array_equal(loaded.class_log_prior, model.class_log_prior)
        assert np.array_equal(loaded.feature_log_prob, model.feature_log_prob)
        assert loaded.alpha == model.alpha

    def test_version_mismatch(self):
        with pytest.raises(DataError, match="unsupported"):
            nb_from_text("# other-thing v2\n")

    def test_every_truncation_rejected(self):
        lines = nb_to_text(fixture_model()[0]).splitlines(keepends=True)
        for k in range(len(lines)):
            with pytest.raises(DataError):
                nb_from_text("".join(lines[:k]))

    def test_feature_count_beyond_the_file_fails_where_the_file_ends(self):
        # the rows are read before their labels are made, so a huge count costs nothing
        text = nb_to_text(fixture_model()[0])
        text = re.sub(r"n_features=\d+", "n_features=1000000000000", text)
        n_lines = len(text.splitlines())
        with pytest.raises(DataError, match=f"^file ends after line {n_lines}; expected "
                                            f"feature index {n_lines - 3}$"):
            nb_from_text(text)

    def test_negative_feature_count_rejected(self, tmp_path):
        # with only its prior row, such a file used to load as a 0-feature model
        lines = nb_to_text(fixture_model()[0]).splitlines(keepends=True)
        lines[1] = re.sub(r"n_features=\d+", "n_features=-1", lines[1])
        path = tmp_path / "model.txt"
        path.write_text("".join(lines[:3]), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: header n_features=-1 must be >= 0")):
            load_nb(path)

    @pytest.mark.parametrize("pattern, replacement, message", [
        (r"alpha=\S+", "alpha=nan", "alpha must be finite and > 0, got nan"),
        (r"(?m)^prior\t.*$", "prior\tnan\tnan", "must be finite"),
        (r"(?m)^0\t.*$", "0\tnan\tnan", "must be finite"),
        (r"(?m)^1\t[^\t]*", "1\t-inf", "must be finite"),
    ], ids=["alpha", "prior", "row", "one-value"])
    def test_non_finite_value_names_the_file(self, tmp_path, pattern, replacement, message):
        # such a file used to load, and a NaN row labels every document real
        text, count = re.subn(pattern, replacement, nb_to_text(fixture_model()[0]), count=1)
        assert count == 1
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load_nb(path)

    def test_repeated_feature_index_names_line(self):
        lines = nb_to_text(fixture_model()[0]).splitlines(keepends=True)
        lines[4] = "0" + lines[4][lines[4].index("\t"):]
        with pytest.raises(DataError, match="line 5: feature index 0"):
            nb_from_text("".join(lines))
