import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satira import (
    Analyzer,
    DataError,
    VectorizerConfig,
    Weighting,
    make_document,
)
from satira.vectorize import (
    extract_features,
    fit,
    load_vocabulary,
    save_vocabulary,
    transform,
    vocabulary_from_text,
    vocabulary_to_text,
)


def docs_of(*token_lists):
    return [make_document(f"d{i}", " ".join(t)) for i, t in enumerate(token_lists)]


WORD_CFG = VectorizerConfig(max_df=1.0)


class TestFit:
    def test_max_df_filter(self):
        docs = docs_of(["a", "b"], ["a", "c"])
        vocab = fit(docs, VectorizerConfig(max_df=0.7))
        assert set(vocab.index) == {"b", "c"}

    def test_max_features_cap_with_tie(self):
        docs = docs_of(["a", "b"], ["a", "c"])
        vocab = fit(docs, VectorizerConfig(max_df=1.0, max_features=2))
        assert set(vocab.index) == {"a", "b"}

    def test_char_windowing(self):
        doc = make_document("d", "ab")
        cfg = VectorizerConfig(analyzer=Analyzer.CHAR, ngram_range=(2, 3), max_df=1.0)
        vocab = fit([doc], cfg)
        assert set(vocab.index) == {"ab"}

    def test_char_ngrams_include_spaces(self):
        doc = make_document("d", "ab c")
        cfg = VectorizerConfig(analyzer=Analyzer.CHAR, ngram_range=(2, 2), max_df=1.0)
        assert "b c"[0:2] in {"b ", "ab", " c"}  # sanity on the notion
        assert set(extract_features(doc, cfg)) == {"ab", "b ", " c"}

    def test_word_range_two_three(self):
        doc = make_document("d", "a b c")
        cfg = VectorizerConfig(ngram_range=(2, 3), max_df=1.0)
        assert set(extract_features(doc, cfg)) == {"a b", "b c", "a b c"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty"):
            fit([], WORD_CFG)

    def test_everything_filtered_rejected(self):
        docs = docs_of(["a"], ["a"])
        with pytest.raises(DataError, match="max_df"):
            fit(docs, VectorizerConfig(max_df=0.5))

    def test_indices_are_contiguous_and_sorted(self):
        docs = docs_of(["z", "m", "a"], ["z", "m"], ["z"])
        vocab = fit(docs, WORD_CFG)
        names = vocab.feature_names()
        assert names == sorted(names)
        assert sorted(vocab.index.values()) == list(range(len(names)))

    def test_deterministic(self):
        docs = docs_of(["b", "a", "b"], ["c", "a"])
        v1 = fit(docs, WORD_CFG)
        v2 = fit(docs, WORD_CFG)
        assert v1.index == v2.index
        assert np.array_equal(v1.document_frequency, v2.document_frequency)

    def test_selection_by_total_frequency(self):
        # b occurs 3 times in one doc, c once in each of two docs
        docs = docs_of(["b", "b", "b"], ["c"], ["c"])
        vocab = fit(docs, VectorizerConfig(max_df=1.0, max_features=1))
        assert set(vocab.index) == {"b"}


class TestTransformCount:
    def test_counting(self):
        fit_docs = docs_of(["b", "c"], ["b"])
        vocab = fit(fit_docs, WORD_CFG)
        X = transform(docs_of(["b", "b", "c"]), vocab, WORD_CFG)
        dense = X.toarray()
        assert dense[0, vocab.index["b"]] == 2
        assert dense[0, vocab.index["c"]] == 1

    def test_unknown_tokens_ignored(self):
        vocab = fit(docs_of(["a", "b"]), WORD_CFG)
        X = transform(docs_of(["z"]), vocab, WORD_CFG)
        assert X.toarray().sum() == 0

    def test_column_sums_bounded_by_fit_totals(self):
        docs = docs_of(["a", "a", "b"], ["b", "c"], ["a"])
        vocab = fit(docs, WORD_CFG)
        X = transform(docs, vocab, WORD_CFG)
        sums = X.column_sums()
        totals = {"a": 3, "b": 2, "c": 1}
        for feature, col in vocab.index.items():
            assert sums[col] <= totals[feature]

    def test_config_mismatch_rejected(self):
        vocab = fit(docs_of(["a"]), WORD_CFG)
        char_cfg = VectorizerConfig(analyzer=Analyzer.CHAR, max_df=1.0)
        with pytest.raises(DataError, match="match"):
            transform(docs_of(["a"]), vocab, char_cfg)


class TestTransformTfidf:
    def test_hand_computed_weights(self):
        cfg = VectorizerConfig(weighting=Weighting.TFIDF, max_df=1.0)
        vocab = fit(docs_of(["a", "b"], ["a"]), cfg)
        idf_a = math.log(3 / 3) + 1  # df=2, n=2
        idf_b = math.log(3 / 2) + 1  # df=1
        assert vocab.idf[vocab.index["a"]] == pytest.approx(idf_a, abs=1e-12)
        assert vocab.idf[vocab.index["b"]] == pytest.approx(idf_b, abs=1e-12)
        X = transform(docs_of(["a", "b"]), vocab, cfg)
        raw = np.zeros(2)
        raw[vocab.index["a"]] = 1 * idf_a
        raw[vocab.index["b"]] = 1 * idf_b
        expected = raw / np.linalg.norm(raw)
        assert np.allclose(X.toarray()[0], expected, atol=1e-12)

    def test_all_unknown_row_is_zero(self):
        cfg = VectorizerConfig(weighting=Weighting.TFIDF, max_df=1.0)
        vocab = fit(docs_of(["a"], ["a", "b"]), cfg)
        X = transform(docs_of(["zzz"]), vocab, cfg)
        assert np.linalg.norm(X.toarray()[0]) == 0.0

    @given(
        token_lists=st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=10),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_row_norms_zero_or_one(self, token_lists):
        cfg = VectorizerConfig(weighting=Weighting.TFIDF, max_df=1.0)
        docs = docs_of(*token_lists)
        vocab = fit(docs, cfg)
        X = transform(docs, vocab, cfg)
        for norm in np.linalg.norm(X.toarray(), axis=1):
            assert abs(norm) < 1e-9 or abs(norm - 1.0) < 1e-9

    def test_row_permutation_permutes_rows(self):
        cfg = VectorizerConfig(weighting=Weighting.TFIDF, max_df=1.0)
        lists = [["a", "b"], ["b", "c"], ["a", "c", "c"]]
        docs = docs_of(*lists)
        vocab = fit(docs, cfg)
        fwd = transform(docs, vocab, cfg).toarray()
        rev = transform(list(reversed(docs)), vocab, cfg).toarray()
        assert np.array_equal(fwd, rev[::-1])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = VectorizerConfig(weighting=Weighting.TFIDF, ngram_range=(1, 2), max_df=0.9)
        docs = docs_of(["a", "b", "a"], ["c", "b"], ["d"])
        vocab = fit(docs, cfg)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.index == vocab.index
        assert np.array_equal(loaded.document_frequency, vocab.document_frequency)
        assert np.allclose(loaded.idf, vocab.idf)
        assert loaded.config == vocab.config
        assert loaded.n_docs_fitted == vocab.n_docs_fitted
        # transforms agree after reload
        X1 = transform(docs, vocab, cfg).toarray()
        X2 = transform(docs, loaded, cfg).toarray()
        assert np.array_equal(X1, X2)

    def test_version_mismatch_rejected(self):
        with pytest.raises(DataError, match="unsupported"):
            vocabulary_from_text("# some-other-format v9\n")

    def test_leading_hash_feature_survives_round_trip(self):
        vocab = fit(docs_of(["#tag", "zz"], ["#tag", "yy"]), WORD_CFG)
        assert min(vocab.index) == "#tag"
        loaded = vocabulary_from_text(vocabulary_to_text(vocab))
        assert loaded.index == vocab.index
        assert np.array_equal(loaded.document_frequency, vocab.document_frequency)

    @pytest.mark.parametrize(
        "char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_separator_characters_in_features_round_trip(self, tmp_path, char):
        cfg = VectorizerConfig(
            weighting=Weighting.TFIDF, analyzer=Analyzer.CHAR, ngram_range=(2, 2), max_df=1.0
        )
        vocab = fit([make_document("d0", f"a{char}b"), make_document("d1", "ab")], cfg)
        assert f"a{char}" in vocab.index
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.index == vocab.index
        assert np.array_equal(loaded.document_frequency, vocab.document_frequency)
        assert np.array_equal(loaded.idf, vocab.idf)

    def test_text_is_stable(self):
        docs = docs_of(["b", "a"])
        vocab = fit(docs, WORD_CFG)
        assert vocabulary_to_text(vocab) == vocabulary_to_text(vocab)


class TestStrictLoader:
    """The vocabulary loader checks its header and every row."""

    def vocabulary_lines(self):
        # features a (df 2), b, c, d (df 1); rows start at line 3
        vocab = fit(docs_of(["a", "b"], ["a", "c"], ["d"]), WORD_CFG)
        return vocabulary_to_text(vocab).split("\n")

    def test_swapped_rows_name_the_line(self):
        lines = self.vocabulary_lines()
        assert lines[2].startswith("a\t0\t2\t") and lines[3].startswith("b\t1\t1\t")
        lines[2], lines[3] = lines[3], lines[2]
        with pytest.raises(DataError, match="line 3: expected a new feature with column 0"):
            vocabulary_from_text("\n".join(lines))

    def test_repeated_row_names_the_line(self):
        lines = self.vocabulary_lines()
        lines.insert(3, lines[2])
        with pytest.raises(DataError, match="line 4: expected a new feature with column 1"):
            vocabulary_from_text("\n".join(lines))

    def test_missing_header_key(self):
        text = "\n".join(self.vocabulary_lines()).replace(" n_docs=3", "")
        with pytest.raises(DataError, match="header lacks n_docs="):
            vocabulary_from_text(text)

    def test_non_integer_column_names_path_and_line(self, tmp_path):
        lines = self.vocabulary_lines()
        lines[3] = lines[3].replace("\t1\t", "\tone\t")
        path = tmp_path / "vocabulary.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 4: invalid literal")):
            load_vocabulary(path)

    @pytest.mark.parametrize("weighting, idf", [("count", "1.5"), ("tfidf", "")])
    def test_idf_present_exactly_for_tfidf(self, weighting, idf):
        lines = self.vocabulary_lines()
        lines[1] = lines[1].replace("weighting=count", f"weighting={weighting}")
        lines[2:6] = [row.rsplit("\t", 1)[0] + "\t" + idf for row in lines[2:6]]
        with pytest.raises(DataError, match="line 3: idf must be given"):
            vocabulary_from_text("\n".join(lines))

    def test_empty_body_rejected(self):
        with pytest.raises(DataError, match="no feature rows"):
            vocabulary_from_text("\n".join(self.vocabulary_lines()[:2]))
