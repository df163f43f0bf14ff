import itertools
import math
import re
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satira import (
    LabeledCorpus,
    Label,
    NormalizationConfig,
    StopPhraseList,
    apply_stop_phrases,
    make_document,
    ngram_frequency,
    normalize,
    top_fraction,
)
from satira import corpus_io, preprocess, vectorize


def ranked_tsv(freq) -> str:
    """The ``ngram<TAB>count`` lines of ``freq``'s whole ranking."""
    return "".join(freq.tsv(freq.ranking()))


# The string implementation that ngram_frequency, top_fraction and
# NgramFrequency.tsv replace: every window is joined into its own
# string and counted in a Counter, and each output sorts all keys again.
# The property tests below require the integer-id counter and its single
# ranking to match it byte for byte.


def reference_counts(corpus, n) -> dict[str, int]:
    counts: Counter[str] = Counter()
    for doc in corpus:
        tokens = doc.tokens
        for i in range(len(tokens) - n + 1):
            counts[" ".join(tokens[i : i + n])] += 1
    return dict(counts)


def reference_top_fraction(counts, fraction) -> list[tuple[str, int]]:
    n_keys = len(counts)
    if n_keys == 0:
        return []
    k = min(n_keys, max(1, int(math.floor(fraction * n_keys + 0.5))))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def reference_tsv(counts) -> str:
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return "".join(f"{ngram}\t{count}\n" for ngram, count in ranked)

any_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=80
)
norm_configs = st.builds(
    NormalizationConfig,
    strip_diacritics=st.booleans(),
    strip_latin=st.booleans(),
    strip_special=st.booleans(),
)


# The three regexes and the whitespace collapse that normalize replaces,
# applied in turn: the diacritics are U+064B..U+065F and U+0670, and
# strip_special keeps Arabic letters and marks, Latin letters, digits and
# whitespace.
OLD_DIACRITICS = re.compile("[\u064b-\u065f\u0670]")
OLD_LATIN = re.compile("[A-Za-z]")
OLD_NON_KEPT = re.compile(
    "[^\u0621-\u063f\u0641-\u064a\u064b-\u065f\u0670"
    "\u0671-\u06d3\u06d5\u06e5\u06e6\u06ee\u06ef\u06fa-\u06ff"
    "\u0750-\u077f\u08a0-\u08bd"
    "A-Za-z0-9\u0660-\u0669\u06f0-\u06f9\\s]"
)


def old_normalize(text, cfg):
    if cfg.strip_diacritics:
        text = OLD_DIACRITICS.sub("", text)
    if cfg.strip_latin:
        text = OLD_LATIN.sub("", text)
    if cfg.strip_special:
        text = OLD_NON_KEPT.sub("", text)
    return re.sub(r"\s+", " ", text).strip()


# every code point, whitespace runs among them
EVERY_CODE_POINT = "".join(map(chr, range(0x110000)))


class TestNormalize:
    @pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=3)),
                             ids=lambda flags: "".join("DLS"[i] if f else "-"
                                                       for i, f in enumerate(flags)))
    def test_every_code_point_as_the_three_regexes(self, flags):
        cfg = NormalizationConfig(*flags)
        assert normalize(EVERY_CODE_POINT, cfg) == old_normalize(EVERY_CODE_POINT, cfg)

    @given(text=any_text, cfg=norm_configs)
    @settings(max_examples=300, deadline=None)
    def test_as_the_three_regexes(self, text, cfg):
        assert normalize(text, cfg) == old_normalize(text, cfg)

    def test_diacritics_removed(self):
        assert normalize("مُحَمَّد") == "محمد"

    def test_latin_and_punctuation_removed(self):
        assert normalize("BBC خبر عاجل!") == "خبر عاجل"

    def test_empty(self):
        assert normalize("") == ""

    def test_flags_independent(self):
        cfg = NormalizationConfig(strip_diacritics=False)
        assert "ُ" in normalize("مُحمد", cfg)
        cfg = NormalizationConfig(strip_latin=False, strip_special=False)
        assert normalize("BBC!", cfg) == "BBC!"
        assert normalize("BBC!", NormalizationConfig(strip_latin=False)) == "BBC"

    def test_digits_kept(self):
        assert normalize("عام 2020 و٣ أيام") == "عام 2020 و٣ أيام"

    @given(text=any_text, cfg=norm_configs)
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text, cfg):
        once = normalize(text, cfg)
        assert normalize(once, cfg) == once


def ranking(freq) -> list[tuple[str, int]]:
    """Every n-gram of ``freq`` with its count, in ranking order."""
    return top_fraction(freq, 1.0)


def ranking_keys(freq) -> list[str]:
    return [key for key, _ in ranking(freq)]


def corpus_of(*token_lists):
    docs = tuple(
        make_document(f"d{i}", " ".join(tokens), Label.FAKE)
        for i, tokens in enumerate(token_lists)
    )
    return LabeledCorpus(docs)


class TestNgramFrequency:
    def test_unigrams(self):
        freq = ngram_frequency(corpus_of(["a", "b", "a"]), 1)
        assert dict(ranking(freq)) == {"a": 2, "b": 1}

    def test_bigrams(self):
        freq = ngram_frequency(corpus_of(["a", "b", "a"]), 2)
        assert dict(ranking(freq)) == {"a b": 1, "b a": 1}

    def test_no_cross_document_windows(self):
        freq = ngram_frequency(corpus_of(["a"], ["b"]), 2)
        assert ranking(freq) == []

    def test_bad_n(self):
        with pytest.raises(ValueError):
            ngram_frequency(corpus_of(["a"]), 4)

    @given(
        token_lists=st.lists(
            st.lists(st.sampled_from("abcdef"), max_size=12), min_size=1, max_size=6
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_unigram_total_equals_token_total(self, token_lists):
        corpus = corpus_of(*token_lists)
        freq = ngram_frequency(corpus, 1)
        assert sum(count for _, count in ranking(freq)) == sum(len(t) for t in token_lists)


# Tokens whose space-joined n-grams order differently from their token
# tuples ("a b" sorts after "a\x01"), non-BMP characters, and a small
# alphabet so that n-grams repeat and counts tie.
TRICKY_TOKENS = ["a", "a\x00", "a\x01", "b", "b\x01", "\x01", "ab", "\uffff", "\U0001f600",
                 "\U00010000a", "قال"]
any_token = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=3
).filter(lambda t: t.split() == [t])
token_lists = st.lists(
    st.lists(st.one_of(st.sampled_from(TRICKY_TOKENS), any_token), max_size=10), max_size=6
)


class TestMatchesCounterReference:
    """ngram_frequency, its ranking, top_fraction and the TSV against the
    Counter implementation above, also with blocks of a few tokens, so
    documents fall across many blocks."""

    @pytest.mark.parametrize("block", [vectorize.BLOCK, 3])
    @given(token_lists=token_lists,
           fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @settings(max_examples=150, deadline=None)
    def test_random_corpora(self, block, token_lists, fraction):
        corpus = corpus_of(*token_lists)
        with mock.patch.object(vectorize, "BLOCK", block):
            for n in (1, 2, 3):
                freq = ngram_frequency(corpus, n)
                counts = reference_counts(corpus, n)
                ranked = reference_top_fraction(counts, 1.0)
                assert ranking(freq) == ranked
                assert ranked_tsv(freq) == reference_tsv(counts)
                assert top_fraction(freq, fraction) == reference_top_fraction(counts, fraction)

    def test_prefix_token_below_space_ranks_by_string(self):
        # token tuples order ("a", "b") first; the joined strings put "a\x01 c" first
        corpus = corpus_of(["a", "b"], ["a\x01", "c"], ["a\x01"])
        assert ranking_keys(ngram_frequency(corpus, 1)) == ["a\x01", "a", "b", "c"]
        assert ranking_keys(ngram_frequency(corpus, 2)) == ["a\x01 c", "a b"]


def lexsorted(corpus, n) -> list[tuple[str, int]]:
    """ngram_frequency's ranking as its lexsort made it: NgramFrequency keeps
    that ranking and sorts nothing again."""
    return ranking(ngram_frequency(corpus, n))


class TestLexsortRanking:
    """The token-rank lexsort alone gives the (-count, key) order of the
    space-joined keys."""

    def test_prefix_token_below_space_at_a_middle_position(self):
        # equal counts; at position 1 "a\x01" + " " sorts before "a" + " "
        corpus = corpus_of(["x", "a", "b"], ["x", "a\x01", "c"])
        assert lexsorted(corpus, 3) == [("x a\x01 c", 1), ("x a b", 1)]
        assert ranking_keys(ngram_frequency(corpus, 3)) == ["x a\x01 c", "x a b"]

    def test_prefix_token_at_the_last_position(self):
        # equal counts; at the last position the bare "a" sorts before "a\x01"
        corpus = corpus_of(["x", "a"], ["x", "a\x01"])
        assert lexsorted(corpus, 2) == [("x a", 1), ("x a\x01", 1)]
        assert ranking_keys(ngram_frequency(corpus, 2)) == ["x a", "x a\x01"]

    @pytest.mark.parametrize("block", [vectorize.BLOCK, 3])
    @given(token_lists=token_lists)
    @settings(max_examples=150, deadline=None)
    def test_random_corpora(self, block, token_lists):
        corpus = corpus_of(*token_lists)
        with mock.patch.object(vectorize, "BLOCK", block):
            for n in (1, 2, 3):
                want = reference_top_fraction(reference_counts(corpus, n), 1.0)
                assert lexsorted(corpus, n) == want


def corpus_counting(counts):
    """A corpus of one-token documents in which each token occurs ``counts[token]`` times."""
    return corpus_of(*([token] for token, count in counts.items() for _ in range(count)))


class TestTopFraction:
    def test_ten_keys_tenth(self):
        counts = {f"k{i}": i + 1 for i in range(10)}
        top = top_fraction(ngram_frequency(corpus_counting(counts), 1), 0.1)
        assert top == [("k9", 10)]

    def test_tie_broken_lexicographically(self):
        freq = ngram_frequency(corpus_counting({"b": 5, "c": 1, "a": 5}), 1)
        assert top_fraction(freq, 0.67) == [("a", 5), ("b", 5)]

    def test_empty_dictionary(self):
        assert top_fraction(ngram_frequency(corpus_of(["a"], ["b"]), 2), 0.5) == []

    def test_full_fraction_returns_everything(self):
        freq = ngram_frequency(corpus_of(["b", "a", "a"]), 1)
        assert top_fraction(freq, 1.0) == [("a", 2), ("b", 1)]

    def test_small_fraction_still_yields_top_entry(self):
        freq = ngram_frequency(corpus_counting({"c": 1, "b": 1, "a": 9}), 1)
        assert top_fraction(freq, 0.01) == [("a", 9)]

    def test_fraction_out_of_range(self):
        freq = ngram_frequency(corpus_of(["a"]), 1)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                top_fraction(freq, bad)


class TestApplyStopPhrases:
    def test_multiword_phrase_removed(self):
        doc = make_document("d", "خاص للحدود خبر")
        out = apply_stop_phrases(doc, StopPhraseList(("خاص للحدود",)))
        assert out.tokens == ("خبر",)

    def test_empty_list_is_identity(self):
        doc = make_document("d", "a b c")
        out = apply_stop_phrases(doc, StopPhraseList(()))
        assert out.tokens == ("a", "b", "c")
        assert out is doc

    def test_non_overlapping_matches(self):
        doc = make_document("d", "a a a")
        out = apply_stop_phrases(doc, StopPhraseList(("a a",)))
        assert out.tokens == ("a",)

    def test_longest_phrase_wins(self):
        doc = make_document("d", "a b c d")
        out = apply_stop_phrases(doc, StopPhraseList(("a", "a b c")))
        assert out.tokens == ("d",)

    def test_original_document_unmodified(self):
        doc = make_document("d", "a b")
        apply_stop_phrases(doc, StopPhraseList(("a b",)))
        assert doc.tokens == ("a", "b")

    def test_duplicate_phrase_rejected(self):
        with pytest.raises(ValueError):
            StopPhraseList(("a", "a"))

    def test_too_long_phrase_rejected(self):
        with pytest.raises(ValueError):
            StopPhraseList(("a b c d",))

    @given(
        tokens=st.lists(st.sampled_from("abc"), max_size=15),
        phrases=st.sets(
            st.sampled_from(["a", "b", "a b", "b c", "a b c", "c"]), max_size=4
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_grows_and_noop_without_occurrences(self, tokens, phrases):
        doc = make_document("d", " ".join(tokens))
        out = apply_stop_phrases(doc, StopPhraseList(tuple(sorted(phrases))))
        assert out.size <= doc.size
        joined = " ".join(tokens)
        if not any(p in joined for p in phrases):
            assert out.tokens == doc.tokens


class TestPhraseFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\n\nخاص للحدود\nالحدود\n", encoding="utf-8")
        stops = StopPhraseList.from_file(path)
        assert stops.phrases == ("خاص للحدود", "الحدود")

    def test_line_separator_characters_stay_in_their_line(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("c\x85d\ne\u2028f\n", encoding="utf-8")
        assert StopPhraseList.from_file(path).phrases == ("c\x85d", "e\u2028f")


class TestNgramFrequencyInvariants:
    def test_counts_ranked_when_built(self):
        freq = ngram_frequency(corpus_of(["b", "c"], ["a", "c"]), 1)
        assert ranking(freq) == [("c", 2), ("a", 1), ("b", 1)]

    @given(token_lists=token_lists, rng=st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_ranked_counts_kept_and_shuffled_counts_reranked(self, token_lists, rng):
        # the ranking does not depend on the order the documents come in
        corpus = corpus_of(*token_lists)
        shuffled = list(token_lists)
        rng.shuffle(shuffled)
        for n in (1, 2, 3):
            ranked = ranking(ngram_frequency(corpus, n))
            assert ranking(ngram_frequency(corpus_of(*shuffled), n)) == ranked

    @pytest.mark.parametrize("counts, ranked", [
        ({}, True),
        ({"a": 1}, True),
        ({"b": 2, "a": 1, "c": 1}, True),
        ({"a": 1, "b": 2}, False),
        ({"b": 1, "a": 1}, False),
        ({"a": 1, "a\x01": 1, "b": 1}, True),
    ])
    def test_ranked_check(self, counts, ranked):
        # the ranking of a corpus keeps the order of its counts exactly when it is ranked
        freq = ngram_frequency(corpus_counting(counts), 1)
        assert (ranking_keys(freq) == list(counts)) is ranked


@contextmanager
def keys_built():
    """Records how many keys each call of ``_Windows.names`` builds."""
    names, built = vectorize._Windows.names, []

    def recording(win, where, length):
        built.append(len(where))
        return names(win, where, length)

    with mock.patch.object(vectorize._Windows, "names", recording):
        yield built


@contextmanager
def windows_sorted():
    """Records how many windows each ``np.lexsort`` call sorts."""
    lexsort, sorted_ = np.lexsort, []

    def recording(keys, *args, **kwargs):
        sorted_.append(len(keys[0]))
        return lexsort(keys, *args, **kwargs)

    with mock.patch.object(np, "lexsort", recording):
        yield sorted_


class TestRankedCounts:
    """ngram_frequency's counts are ranked and their keys built only when read."""

    def test_mapping_contract(self):
        corpus = corpus_of(["a", "b", "a"], ["b", "a", "c"])
        for n in (1, 2, 3):
            freq = ngram_frequency(corpus, n)
            want = reference_counts(corpus, n)
            assert len(freq.counts) == len(want)
            assert dict(top_fraction(freq, 1.0)) == want

    @given(token_lists=token_lists,
           fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    @settings(max_examples=100, deadline=None)
    def test_length_builds_no_key_and_top_fraction_only_its_own(self, token_lists, fraction):
        corpus = corpus_of(*token_lists)
        with keys_built() as built, windows_sorted() as sorted_:
            for n in (1, 2, 3):
                freq = ngram_frequency(corpus, n)
                counts = reference_counts(corpus, n)
                assert len(freq.counts) == len(counts)
                assert built == [] and sorted_ == []
                top = top_fraction(freq, fraction)
                assert sum(built) <= len(top)
                # only the n-grams counted at least as often as the last one returned
                cut = top[-1][1] if top else 0
                assert sum(sorted_) <= sum(count >= cut for count in counts.values())
                built.clear()
                sorted_.clear()

    @given(token_lists=token_lists)
    @settings(max_examples=100, deadline=None)
    def test_keys_built_a_chunk_at_a_time(self, token_lists):
        corpus = corpus_of(*token_lists)
        with mock.patch.object(preprocess, "_CHUNK", 2), keys_built() as built:
            for n in (1, 2, 3):
                freq = ngram_frequency(corpus, n)
                counts = reference_counts(corpus, n)
                assert ranking(freq) == reference_top_fraction(counts, 1.0)
                assert ranked_tsv(freq) == reference_tsv(counts)
                assert max(built, default=0) <= 2

    @given(token_lists=token_lists)
    @settings(max_examples=100, deadline=None)
    def test_one_walk_yields_each_level_asked_for(self, token_lists):
        # every level is read only after the walk has gone on to the longest
        corpus = corpus_of(*token_lists)
        for ns in [(1, 2, 3), (2,), (1, 3)]:
            freqs = list(preprocess.ngram_frequencies(corpus, ns))
            assert [freq.n for freq in freqs] == list(ns)
            for freq in freqs:
                want = reference_top_fraction(reference_counts(corpus, freq.n), 1.0)
                assert ranking(freq) == want

    def test_ranking_memory_per_window_does_not_grow_with_n(self):
        # 400 documents of 300 tokens from 5000 words: about 1.2e5 distinct
        # bigrams and as many trigrams. Only the folded key, one position's
        # codes and the lexsort's own arrays span every window, whatever n is
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(5000)]
        corpus = corpus_of(*([words[j] for j in rng.integers(0, len(words), 300)]
                             for _ in range(400)))
        for freq in preprocess.ngram_frequencies(corpus, (2, 3)):
            assert len(freq.counts) > 100_000
            tracemalloc.start()
            try:
                freq.ranking()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / len(freq.counts) <= 36, f"n = {freq.n}"


class TestTokenIdsOnce:
    """A ``LabeledCorpus`` numbers its tokens once, and every n-gram count on it
    reads those ids."""

    def corpus(self):
        return corpus_of(["a", "b", "a", "c"], ["b", "a", "b"], ["c"], ["a\x01", "c", "a"])

    def test_ids_computed_once_and_outputs_unchanged(self):
        corpus = self.corpus()
        fresh = self.corpus()
        with mock.patch.object(corpus_io, "_word_ids", wraps=corpus_io._word_ids) as numbered, \
                mock.patch.object(vectorize, "_unit_ids", wraps=vectorize._unit_ids) as unit_ids:
            freqs = [ngram_frequency(corpus, n) for n in (3, 1, 2, 1, 2, 3)]
            assert numbered.call_count == 1 and unit_ids.call_count == 0
        for freq in freqs:
            for other in (ngram_frequency(fresh, freq.n), ngram_frequency(list(fresh), freq.n)):
                assert ranking(freq) == ranking(other)
                assert ranked_tsv(freq) == ranked_tsv(other)
                assert freq.ranking().tolist() == other.ranking().tolist()

    def test_documents_not_in_a_corpus_are_numbered_per_call(self):
        docs = list(self.corpus())
        with mock.patch.object(vectorize, "_word_ids", wraps=vectorize._word_ids) as numbered:
            for n in (1, 2, 3):
                ngram_frequency(docs, n)
        assert numbered.call_count == 3

    def test_ids_are_shared_read_only(self):
        corpus = self.corpus()
        ids, table = corpus.token_ids
        assert table.tolist() == ["a", "b", "c", "a\x01"]
        assert ids.dtype == np.int32 and ids.tolist() == [0, 1, 0, 2, 1, 0, 1, 2, 3, 2, 0]
        for array in (ids, table):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]
        for n in (1, 2, 3):
            win = ngram_frequency(corpus, n)._win
            assert np.shares_memory(win.units, ids) and np.shares_memory(win.table, table)
        assert corpus.token_ids[0] is ids

    def test_derived_corpora_number_their_own_tokens(self):
        docs = (*self.corpus(), make_document("u", "c d", None))
        corpus = LabeledCorpus(docs)
        assert corpus.token_ids[1].tolist() == ["a", "b", "c", "a\x01", "d"]
        labeled = corpus.labeled_only()
        assert labeled.token_ids[1].tolist() == ["a", "b", "c", "a\x01"]
        assert len(labeled.token_ids[0]) == len(corpus.token_ids[0]) - 2
        tail = corpus.with_documents(docs[2:])
        assert tail.token_ids[1].tolist() == ["c", "a\x01", "a", "d"]
        assert tail.token_ids[0].tolist() == [0, 1, 0, 2, 0, 3]
        for derived in (labeled, tail):
            assert not np.shares_memory(derived.token_ids[0], corpus.token_ids[0])
            bigrams = ngram_frequency(derived, 2)
            assert ranking(bigrams) == ranking(ngram_frequency(list(derived), 2))

    def test_bad_n_refused_when_called(self):
        with pytest.raises(ValueError, match="n must be 1, 2 or 3, got 4"):
            preprocess.ngram_frequencies(self.corpus(), (4,))
        with pytest.raises(ValueError, match="n must be 1, 2 or 3, got 0"):
            preprocess.ngram_frequencies(iter(()), (1, 0))
