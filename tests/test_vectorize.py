import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

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
from satira import vectorize
from satira.vectorize import (
    DocTermMatrix,
    Vocabulary,
    fit,
    load_vocabulary,
    save_vocabulary,
    transform,
    vocabulary_from_text,
    vocabulary_to_text,
)


# The string implementation that fit and transform replace: every n-gram is
# sliced out as its own string and counted in per-document Counters. The
# property tests below require the integer-id implementation to match it
# byte for byte.


def reference_features(doc, cfg):
    """All analyzer n-grams of one document, in order of occurrence."""
    lo, hi = cfg.ngram_range
    feats = []
    if cfg.analyzer is Analyzer.WORD:
        tokens = doc.tokens
        for n in range(lo, hi + 1):
            feats.extend(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    else:
        text = doc.text
        for n in range(lo, hi + 1):
            feats.extend(text[i : i + n] for i in range(len(text) - n + 1))
    return feats


def reference_fit(docs, cfg):
    if len(docs) == 0:
        raise DataError("cannot fit a vectorizer on an empty corpus")
    total_freq, doc_freq = Counter(), Counter()
    for doc in docs:
        feats = reference_features(doc, cfg)
        total_freq.update(feats)
        doc_freq.update(set(feats))
    n_docs = len(docs)
    candidates = [f for f in total_freq if doc_freq[f] / n_docs <= cfg.max_df]
    if not candidates:
        raise DataError("no features survive the max_df filter")
    candidates.sort(key=lambda f: (-total_freq[f], f))
    retained = sorted(candidates[: cfg.max_features])
    index = {feature: col for col, feature in enumerate(retained)}
    df = np.array([doc_freq[f] for f in retained], dtype=np.int64)
    idf = None
    if cfg.weighting is Weighting.TFIDF:
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    return Vocabulary(index, df, idf, n_docs, cfg)


def reference_transform(docs, vocab, cfg):
    indptr, indices, values = [0], [], []
    for doc in docs:
        counts = Counter()
        for feature in reference_features(doc, cfg):
            col = vocab.index.get(feature)
            if col is not None:
                counts[col] += 1
        cols = np.array(sorted(counts), dtype=np.int64)
        vals = np.array([counts[c] for c in cols], dtype=np.float64)
        if cfg.weighting is Weighting.TFIDF and len(cols):
            vals = vals * vocab.idf[cols]
            norm = np.linalg.norm(vals)
            if norm > 0:
                vals = vals / norm
        indices.extend(cols.tolist())
        values.extend(vals.tolist())
        indptr.append(len(indices))
    return DocTermMatrix(
        n_rows=len(docs),
        n_cols=len(vocab),
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
    )


def reference_toarray(X):
    dense = np.zeros((X.n_rows, X.n_cols), dtype=np.float64)
    for r in range(X.n_rows):
        cols, vals = X.row(r)
        dense[r, cols] = vals
    return dense


def assert_same_matrix(got, want):
    assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_matches_reference(fit_docs, other_docs, cfg):
    """fit and transform agree with the string implementation byte for byte,
    or both reject the corpus."""
    try:
        want = reference_fit(fit_docs, cfg)
    except DataError:
        with pytest.raises(DataError):
            fit(fit_docs, cfg)
        return
    vocab = fit(fit_docs, cfg)
    text = vocabulary_to_text(vocab)
    assert text == vocabulary_to_text(want)
    assert vocabulary_to_text(vocabulary_from_text(text)) == text
    for docs in (fit_docs, other_docs):
        X = transform(docs, vocab, cfg)
        assert_same_matrix(X, reference_transform(docs, want, cfg))
        assert X.toarray().tobytes() == reference_toarray(X).tobytes()


# Units mix ASCII, Arabic and a character outside the BMP, and some tokens end
# in NUL, which numpy's fixed-width unicode dtype would silently strip. Some
# continue a shorter token with a character below the space, so "a\x01 c"
# sorts before "a b" and "a" before both, across n-gram lengths. The
# separators give char n-grams whitespace other than one space.
TOKENS = ["a", "b", "ab", "ba", "b\x00", "\x00", "a\x01", "a\x1f", "\u0643", "\u0643\u062a",
          "\U0001f600", "a\U0001f600"]
UNSEEN = ["zz", "\u062c", "a\x00b"]
SEPARATORS = [" ", " ", " ", "  ", "\r", "\u2028"]


@st.composite
def texts(draw, tokens):
    words = draw(st.lists(st.sampled_from(tokens), max_size=12))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words), max_size=len(words)))
    return "".join(sep + word for sep, word in zip(seps, words))


configs = st.builds(
    lambda analyzer, weighting, ngram, max_features, max_df: VectorizerConfig(
        weighting, analyzer, tuple(sorted(ngram)), max_features, max_df
    ),
    st.sampled_from(list(Analyzer)),
    st.sampled_from(list(Weighting)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.integers(1, 12),
    st.sampled_from([0.3, 0.5, 0.7, 1.0]),
)


def documents(texts):
    return [make_document(f"d{i}", text) for i, text in enumerate(texts)]


class TestMatchesStringReference:
    """fit, transform and toarray against the string implementation above,
    also with blocks of a few units, so documents fall across many blocks."""

    @pytest.mark.parametrize("block", [vectorize.BLOCK, 3])
    @given(
        cfg=configs,
        fit_texts=st.lists(texts(TOKENS), min_size=1, max_size=6),
        other_texts=st.lists(texts(TOKENS + UNSEEN), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_corpora(self, block, cfg, fit_texts, other_texts):
        with mock.patch.object(vectorize, "BLOCK", block):
            assert_matches_reference(documents(fit_texts), documents(other_texts), cfg)

    @pytest.mark.parametrize("block", [vectorize.BLOCK, 50])
    @pytest.mark.parametrize("analyzer", list(Analyzer))
    def test_many_units_and_long_ngrams(self, analyzer, block):
        # 8-grams over more than 3000 distinct units: a fixed-base code of
        # the units would need 3000 ** 8 > 2 ** 63
        rng = np.random.default_rng(3)
        alphabet = [chr(0x4E00 + k) for k in range(3500)]
        phrase = list(alphabet[:10])
        docs = []
        for i in range(40):
            units = [alphabet[k] for k in rng.integers(0, len(alphabet), 250)]
            if i % 3 == 0:
                units[100:110] = phrase
            docs.append(make_document(f"d{i}", " ".join(units)))
        assert len({u for d in docs for u in d.tokens}) > 3000
        cfg = VectorizerConfig(Weighting.TFIDF, analyzer, (1, 8), max_features=300, max_df=0.7)
        with mock.patch.object(vectorize, "BLOCK", block):
            assert_matches_reference(docs[:30], docs[30:], cfg)


def reference_names(seqs, win, where, length):
    """The slicing ``_Windows.names`` that the unit table replaces: each window
    sliced out of its sequence, tokens joined by single spaces for WORD."""
    seq_of = win.sequence_of(where)
    offset = where - win.starts[seq_of]
    spans = zip(seq_of.tolist(), offset.tolist(), (offset + length).tolist())
    windows = (seqs[s][a:b] for s, a, b in spans)
    return list(windows) if win.analyzer is Analyzer.CHAR else list(map(" ".join, windows))


class TestNamesMatchSlicing:
    """``_Windows.names`` builds each window from the unit table; the slices of
    the sequences are the oracle, with one length for all and mixed lengths."""

    @given(
        analyzer=st.sampled_from(list(Analyzer)),
        doc_texts=st.lists(texts(TOKENS), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_windows(self, analyzer, doc_texts, data):
        seqs = vectorize._unit_sequences(documents(doc_texts), analyzer)
        win = vectorize._Windows(seqs, analyzer)
        # (sequence, offset, length) of windows that fit in their sequence
        spans = st.sampled_from(
            [(s, a, n) for s, seq in enumerate(seqs)
             for a in range(len(seq)) for n in range(1, len(seq) - a + 1)] or [None]
        )
        chosen = [span for span in data.draw(st.lists(spans, max_size=20)) if span]
        where = np.array([win.starts[s] + a for s, a, _ in chosen], dtype=np.int64)
        lengths = np.array([n for _, _, n in chosen], dtype=np.int64)
        assert win.names(where, lengths) == reference_names(seqs, win, where, lengths)
        for n in set(lengths.tolist()):
            at = where[lengths == n]
            assert win.names(at, n) == reference_names(seqs, win, at, n)


class TestWindowIds:
    """The id contract of ``_Windows``: at level n, a window's id is the rank of
    its tuple of unit ids among the level's distinct windows in lexicographic
    order, or -1 where it runs past its sequence, also across blocks of a few
    units and for a corpus with no units at all; with the rank table wherever
    ``TABLE_PER_UNIT`` allows it, and with a sort at every level (0)."""

    @pytest.mark.parametrize("block, per_unit", [
        pytest.param(vectorize.BLOCK, vectorize.TABLE_PER_UNIT, id=str(vectorize.BLOCK)),
        pytest.param(3, vectorize.TABLE_PER_UNIT, id="3"),
        pytest.param(vectorize.BLOCK, 0, id=f"sort-{vectorize.BLOCK}"),
        pytest.param(3, 0, id="sort-3"),
    ])
    @given(
        analyzer=st.sampled_from(list(Analyzer)),
        doc_texts=st.lists(texts(TOKENS), max_size=6),
        hi=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_ids_rank_windows(self, block, per_unit, analyzer, doc_texts, hi):
        seqs = vectorize._unit_sequences(documents(doc_texts), analyzer)
        with mock.patch.object(vectorize, "BLOCK", block):
            win = vectorize._Windows(seqs, analyzer)
        units, starts = win.units.tolist(), win.starts.tolist()
        with mock.patch.object(vectorize, "TABLE_PER_UNIT", per_unit):
            for n in win.levels(hi):
                windows = [tuple(units[i : i + n]) if i + n <= end else None
                           for start, end in zip(starts, starts[1:]) for i in range(start, end)]
                rank = {w: r for r, w in enumerate(sorted(set(windows) - {None}))}
                assert win.ids.tolist() == [-1 if w is None else rank[w] for w in windows]
                assert win.n_ids == len(rank)


def fit_and_transform(fit_docs, other_docs, cfg):
    """``fit``'s vocabulary text and ``transform``'s matrices of both document
    sets, or None where ``fit`` refuses the corpus."""
    try:
        vocab = fit(fit_docs, cfg)
    except DataError:
        return None
    return vocabulary_to_text(vocab), [transform(docs, vocab, cfg) for docs in (fit_docs, other_docs)]


def letter_documents(analyzer, n_docs, length, seed):
    """Documents of ``length`` random units from ten letters: one word of
    letters for CHAR, single-letter tokens for WORD, so both analyzers see the
    same unit sequences."""
    rng = np.random.default_rng(seed)
    sep = "" if analyzer is Analyzer.CHAR else " "
    return documents([sep.join(rng.choice(list("abcdefghij"), length)) for _ in range(n_docs)])


class TestTableAndSortAgree:
    """A level ranked by the presence table gets the ids a sort gives, so
    ``fit`` and ``transform`` write the same bytes with the table wherever
    ``TABLE_PER_UNIT`` allows it and with a sort at every level (0), also
    where one level takes the table and a later one the sort."""

    @staticmethod
    def assert_agree(fit_docs, other_docs, cfg):
        with mock.patch.object(vectorize, "BLOCK", 3):
            table = fit_and_transform(fit_docs, other_docs, cfg)
            with mock.patch.object(vectorize, "TABLE_PER_UNIT", 0):
                sort = fit_and_transform(fit_docs, other_docs, cfg)
        assert (table is None) == (sort is None)
        if table is not None:
            assert table[0] == sort[0]
            for got, want in zip(table[1], sort[1]):
                assert_same_matrix(got, want)

    @given(
        cfg=st.builds(
            lambda analyzer, weighting, ngram, max_features, max_df: VectorizerConfig(
                weighting, analyzer, tuple(sorted(ngram)), max_features, max_df
            ),
            st.sampled_from(list(Analyzer)),
            st.sampled_from(list(Weighting)),
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            st.integers(1, 12),
            st.sampled_from([0.5, 1.0]),
        ),
        fit_texts=st.lists(texts(TOKENS), min_size=1, max_size=6),
        other_texts=st.lists(texts(TOKENS + UNSEEN), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_corpora(self, cfg, fit_texts, other_texts):
        self.assert_agree(documents(fit_texts), documents(other_texts), cfg)

    @pytest.mark.parametrize("weighting", list(Weighting))
    @pytest.mark.parametrize("analyzer", list(Analyzer))
    def test_table_then_sort(self, analyzer, weighting):
        # 150 positions over ten units: the 100 pairs of level 2 fit in the
        # table; level 3 has ten pairs for each of about 80 bigrams, and sorts
        docs = letter_documents(analyzer, 6, 30, seed=2)
        with mock.patch.object(vectorize, "_distinct", wraps=vectorize._distinct) as merge:
            win = vectorize._Windows(vectorize._unit_sequences(docs[:5], analyzer), analyzer)
            merged = [merge.call_count for _ in win.levels(4)]
        assert merged == [0, 0, 1, 2]
        cfg = VectorizerConfig(weighting, analyzer, (1, 4), max_features=60, max_df=1.0)
        self.assert_agree(docs[:5], docs[5:], cfg)


class TestAdvanceMemory:
    """The rank table costs no more memory than the sort it replaces: the
    tracemalloc peak of ``_Windows.advance`` at each level that takes the
    table is no higher than with a sort at every level."""

    def test_table_peak_no_higher_than_sort(self):
        # about 93 k characters over 27 units, in blocks of 8192: levels 2 and 3
        # fit in the table
        rng = np.random.default_rng(0)
        letters = list("abcdefghijklmnopqrstuvwxyz")
        seqs = [" ".join("".join(rng.choice(letters, rng.integers(1, 9)))
                         for _ in range(rng.integers(50, 300))) for _ in range(100)]
        peaks, merged = {}, {}
        for per_unit in (vectorize.TABLE_PER_UNIT, 0):
            with mock.patch.object(vectorize, "BLOCK", 8192), \
                    mock.patch.object(vectorize, "TABLE_PER_UNIT", per_unit), \
                    mock.patch.object(vectorize, "_distinct", wraps=vectorize._distinct) as merge:
                win = vectorize._Windows(seqs, Analyzer.CHAR)
                assert len(win.blocks) > 10
                for n in (2, 3):
                    tracemalloc.start()
                    try:
                        win.advance(n)
                        peaks[per_unit, n] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                merged[per_unit] = merge.call_count
        assert merged == {vectorize.TABLE_PER_UNIT: 0, 0: 2}
        for n in (2, 3):
            assert peaks[vectorize.TABLE_PER_UNIT, n] <= peaks[0, n]


class TestDistinct:
    """``_distinct`` gives ``np.unique``'s keys, sorting its input in place
    and holding beside it only the mask and the result."""

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_matches_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        assert np.array_equal(vectorize._distinct(keys.copy()), np.unique(keys))

    def test_peak_is_the_mask_and_the_distinct_keys(self):
        keys = np.random.default_rng(0).permutation(1 << 18).astype(np.int64)
        tracemalloc.start()
        try:
            distinct = vectorize._distinct(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8 bytes per key for the result and 1 for the mask
        assert peak < 1.25 * keys.nbytes
        assert np.array_equal(distinct, np.arange(1 << 18)) and np.array_equal(keys, distinct)


class TestFitBuildsOnlyKeptNames:
    """``fit`` ranks the candidates as ids and builds the names of only the
    ``max_features`` n-grams it keeps."""

    @given(
        cfg=configs,
        fit_texts=st.lists(texts(TOKENS), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_names_built(self, cfg, fit_texts):
        docs = documents(fit_texts)
        doc_freq = Counter(f for doc in docs for f in set(reference_features(doc, cfg)))
        candidates = sum(df / len(docs) <= cfg.max_df for df in doc_freq.values())
        names, built = vectorize._Windows.names, []

        def recording(win, where, length):
            built.append(len(where))
            return names(win, where, length)

        with mock.patch.object(vectorize._Windows, "names", recording):
            if candidates == 0:
                with pytest.raises(DataError):
                    fit(docs, cfg)
                return
            vocab = fit(docs, cfg)
        assert sum(built) == len(vocab) == min(cfg.max_features, candidates)


# TOKENS and tokens whose strings order differently from their ids, outside
# the BMP and in Arabic
RANKED_TOKENS = TOKENS + ["b\x01", "\x01", "\uffff", "\U00010000a", "\u0642\u0627\u0644"]


def windows_of_levels(seqs, analyzer, levels):
    """The distinct windows of each level in ``levels``, as ``fit`` collects its
    candidates: their lengths, a position of each, and their total counts."""
    win = vectorize._Windows(seqs, analyzer)
    per_level = [(np.full(win.n_ids, n), *win.count()[:2])
                 for n in win.levels(max(levels)) if n in levels]
    length, where, totals = (np.concatenate(c) for c in zip(*per_level))
    return win, length, where, totals


class TestRankingFirstK:
    """``_Windows.ranking(where, length, totals, k)`` ranks only the windows
    whose total reaches the k-th largest, and its result is the first ``k``
    of the full ranking, for every k, one length or mixed lengths, counts that
    tie at the cut, rank keys folded or each apart (``KEY_SPAN``), and blocks
    of a few units. The full ranking is checked against a sort of the names."""

    @pytest.mark.parametrize("block, key_span", [(vectorize.BLOCK, vectorize.KEY_SPAN), (3, 1),
                                                 (vectorize.BLOCK, 1 << 12)])
    @given(
        analyzer=st.sampled_from(list(Analyzer)),
        doc_texts=st.lists(texts(RANKED_TOKENS), min_size=1, max_size=6),
        levels=st.sampled_from([(1,), (2,), (3,), (1, 2, 3), (2, 4)]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_first_k_of_the_full_ranking(self, block, key_span, analyzer, doc_texts, levels,
                                         data):
        seqs = vectorize._unit_sequences(documents(doc_texts), analyzer)
        with mock.patch.object(vectorize, "BLOCK", block):
            win, length, where, totals = windows_of_levels(seqs, analyzer, levels)
        if data.draw(st.booleans()):  # few distinct counts, so ties at every cut
            totals = np.array(data.draw(st.lists(st.integers(1, 3), min_size=len(totals),
                                                 max_size=len(totals))), dtype=np.int64)
        names = win.names(where, length)
        want = sorted(range(len(names)), key=lambda i: (-int(totals[i]), names[i]))
        lengths = length if len(levels) > 1 else levels[0]
        with mock.patch.object(vectorize, "KEY_SPAN", key_span):
            assert win.ranking(where, lengths, totals).tolist() == want
            for k in range(len(totals) + 2):
                assert win.ranking(where, lengths, totals, k).tolist() == want[:k]

    @pytest.mark.parametrize("analyzer", list(Analyzer))
    def test_keys_at_the_uint64_bound(self, analyzer):
        # counts spread over [1, 2**31) and 3500 distinct units: the count and
        # three unit ranks span more than 2**64 values, so they need two keys
        rng = np.random.default_rng(5)
        alphabet = [chr(0x4E00 + k) for k in range(3500)]
        seqs = [[alphabet[k] for k in rng.integers(0, len(alphabet), 400)] for _ in range(30)]
        if analyzer is Analyzer.CHAR:
            seqs = ["".join(seq) for seq in seqs]
        win, length, where, _ = windows_of_levels(seqs, analyzer, (3,))
        totals = rng.integers(1, 1 << 31, len(where))
        totals[::7] = totals[0]  # and some ties
        names = win.names(where, length)
        want = sorted(range(len(names)), key=lambda i: (-int(totals[i]), names[i]))
        assert win.ranking(where, 3, totals).tolist() == want
        assert win.ranking(where, 3, totals, 100).tolist() == want[:100]

    @pytest.mark.parametrize("seqs, want", [
        # "a\x01 c" sorts before "a b" though ("a\x01", "c") sorts after ("a", "b")
        ([["a", "b"], ["a\x01", "c"], ["a"]], ["a", "a\x01", "a\x01 c", "a b"]),
        # with no character below the space, "a b" sorts right after "a"
        ([["a", "b"], ["ab", "c"], ["a"]], ["a", "a b", "ab", "ab c"]),
    ], ids=["below-space", "no-below-space"])
    def test_prefix_tokens_at_a_tied_cut(self, seqs, want):
        # all six windows of lengths 1 and 2 tie; the first four are kept
        win, length, where, totals = windows_of_levels(seqs, Analyzer.WORD, (1, 2))
        names = win.names(where, length)
        assert [names[i] for i in win.ranking(where, length, np.ones_like(totals), 4)] == want


class TestUnitLimit:
    """Sequences of ``UNIT_LIMIT`` units or more are refused: their int32 ids
    would wrap, and the folded rank keys are sized for fewer."""

    @pytest.mark.parametrize("analyzer", list(Analyzer))
    def test_limit(self, analyzer):
        docs = documents(["ab c", "de"])
        units = sum(map(len, vectorize._unit_sequences(docs, analyzer)))
        cfg = VectorizerConfig(analyzer=analyzer, max_df=1.0)
        with mock.patch.object(vectorize, "UNIT_LIMIT", units + 1):
            fit(docs, cfg)
        with mock.patch.object(vectorize, "UNIT_LIMIT", units):
            with pytest.raises(DataError, match=f"hold {units} {analyzer.value} units"):
                fit(docs, cfg)


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
        assert set(fit([doc], cfg).index) == {"ab", "b ", " c"}

    def test_word_range_two_three(self):
        doc = make_document("d", "a b c")
        cfg = VectorizerConfig(ngram_range=(2, 3), max_df=1.0)
        assert set(fit([doc], cfg).index) == {"a b", "b c", "a b c"}

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

    @pytest.mark.parametrize(
        "analyzer, ngram, feature",
        [
            ("char", (2, 3), "a"),
            ("char", (2, 3), "abcd"),
            ("word", (2, 2), "a"),
            ("word", (1, 2), "a b c"),
            ("word", (1, 3), "a  b"),
            ("word", (1, 2), "a "),
            ("word", (1, 2), "a\u2028b"),
        ],
        ids=["char-short", "char-long", "word-few", "word-many", "word-empty-inner",
             "word-empty-last", "word-whitespace-token"],
    )
    def test_unproducible_feature_names_the_line(self, analyzer, ngram, feature):
        # such a row used to load, and gave a column that no document can fill
        lo, hi = ngram
        first = "x" * lo if analyzer == "char" else " ".join(["x"] * lo)
        text = (
            "# satira-vocabulary v1\n"
            f"# weighting=count analyzer={analyzer} ngram={lo},{hi} max_features=10 "
            "max_df=1.0 n_docs=2\n"
            f"{first}\t0\t1\t\n"
            f"{feature}\t1\t1\t\n"
        )
        message = f"line 4: feature {re.escape(repr(feature))} is not a {analyzer} n-gram"
        with pytest.raises(DataError, match=message):
            vocabulary_from_text(text)

    @pytest.mark.parametrize("n_docs", ["0", "-3"])
    def test_impossible_document_count_rejected(self, n_docs):
        text = "\n".join(self.vocabulary_lines()).replace(" n_docs=3", f" n_docs={n_docs}")
        with pytest.raises(DataError, match=f"header n_docs={n_docs} must be >= 1"):
            vocabulary_from_text(text)

    @pytest.mark.parametrize("df", ["0", "-1"])
    def test_impossible_document_frequency_names_the_line(self, df):
        lines = self.vocabulary_lines()
        lines[3] = lines[3].replace("\t1\t1\t", f"\t1\t{df}\t")
        with pytest.raises(DataError, match=f"line 4: df must be >= 1, got {df}"):
            vocabulary_from_text("\n".join(lines))

    def test_empty_body_rejected(self):
        with pytest.raises(DataError, match="no feature rows"):
            vocabulary_from_text("\n".join(self.vocabulary_lines()[:2]))

    @pytest.mark.parametrize("ngram", ["1", "1,1,2", "", "1;1"])
    def test_ngram_header_must_be_two_integers(self, ngram):
        # "1" and "1,1,2" used to fail in VectorizerConfig, naming no header key
        text = "\n".join(self.vocabulary_lines())
        assert " ngram=1,1 " in text
        with pytest.raises(DataError, match=re.escape(f"header ngram={ngram!r} is malformed")):
            vocabulary_from_text(text.replace(" ngram=1,1 ", f" ngram={ngram} "))

    @pytest.mark.parametrize("header, line, df, message", [
        ("max_df=1.0", 4, "4", "df 4 of 3 documents exceeds max_df=1.0"),
        ("max_df=1.0", 4, "99999999999999999999",
         "df 99999999999999999999 of 3 documents exceeds max_df=1.0"),
        ("max_df=0.5", 3, "2", "df 2 of 3 documents exceeds max_df=0.5"),
    ], ids=["above-n_docs", "beyond-int64", "above-max_df"])
    def test_document_frequency_fit_cannot_keep_names_the_line(self, header, line, df, message):
        # a df beyond int64 used to fail converting the column, naming no line, and
        # one above max_df * n_docs only Vocabulary's bound check, also without one
        lines = self.vocabulary_lines()
        lines[1] = lines[1].replace("max_df=1.0", header)
        lines[line - 1] = re.sub(r"\t\d+\t$", f"\t{df}\t", lines[line - 1])
        with pytest.raises(DataError, match=re.escape(f"line {line}: {message}")):
            vocabulary_from_text("\n".join(lines))

    def test_document_frequency_at_max_df_loads(self):
        # fit keeps a df of exactly max_df * n_docs, in float64: 2 / 3 here
        text = "\n".join(self.vocabulary_lines()).replace("max_df=1.0", f"max_df={2 / 3!r}")
        assert vocabulary_from_text(text).document_frequency.tolist() == [2, 1, 1, 1]

    @pytest.mark.parametrize("max_features, line", [(1, 4), (3, 6)])
    def test_row_past_max_features_names_the_line(self, max_features, line):
        # it used to fail only in Vocabulary, naming no line
        lines = self.vocabulary_lines()
        lines[1] = re.sub(r"max_features=\d+", f"max_features={max_features}", lines[1])
        message = f"line {line}: more feature rows than max_features={max_features}"
        with pytest.raises(DataError, match=re.escape(message)):
            vocabulary_from_text("\n".join(lines))
        del lines[line - 1:-1]
        assert len(vocabulary_from_text("\n".join(lines))) == max_features

    def test_document_count_beyond_int64_rejected(self):
        n_docs = 2**63
        text = "\n".join(self.vocabulary_lines()).replace(" n_docs=3", f" n_docs={n_docs}")
        with pytest.raises(DataError, match=f"header n_docs={n_docs} must be <= {n_docs - 1}"):
            vocabulary_from_text(text)

    @pytest.mark.parametrize("at, message", [
        (2, "feature row: expected 4 fields, got 1"),
        (4, "feature row: expected 4 fields, got 1"),
        (6, "feature row: expected 4 fields, got 1"),
    ], ids=["first-row", "inside", "at-end"])
    def test_blank_line_names_its_line(self, at, message):
        lines = self.vocabulary_lines()  # the last is the empty text after the final newline
        lines.insert(at, "")
        with pytest.raises(DataError, match=re.escape(f"line {at + 1}: {message}")):
            vocabulary_from_text("\n".join(lines))
