import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satira import (
    DataError,
    Label,
    LabeledCorpus,
    Lexicon,
    MeasureVector,
    corpus_profile,
    lexicon_score,
    make_document,
)
from satira.stylometrics import parse_tagged_file, profile_from_csv, profile_to_csv


def lex(*phrases):
    return Lexicon(name="test", phrases=frozenset(phrases))


class TestLexiconScore:
    def test_indicator_sum(self):
        doc = make_document("d", "قال الناطق اليوم قال")
        assert lexicon_score(doc, lex("قال", "الناطق")) == pytest.approx(0.75)

    def test_no_overlap(self):
        doc = make_document("d", "خبر عاجل")
        assert lexicon_score(doc, lex("قال")) == 0.0

    def test_multiword_window(self):
        doc = make_document("d", "قال الناطق باسم خبر")
        assert lexicon_score(doc, lex("قال الناطق باسم")) == pytest.approx(0.25)

    def test_empty_document_rejected(self):
        doc = make_document("d", "")
        with pytest.raises(ValueError, match="no tokens"):
            lexicon_score(doc, lex("a"))

    def test_multiword_occurrences_count_one_each(self):
        doc = make_document("d", "a b a b")
        assert lexicon_score(doc, lex("a b")) == pytest.approx(0.5)

    token_lists = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=20)
    lexicons = st.sets(
        st.sampled_from(["a", "b", "c", "a b", "b c", "a b c", "d d"]),
        min_size=1,
        max_size=5,
    )

    @given(tokens=token_lists, phrases=lexicons)
    @settings(max_examples=300, deadline=None)
    def test_score_bounded(self, tokens, phrases):
        doc = make_document("d", " ".join(tokens))
        score = lexicon_score(doc, lex(*phrases))
        assert 0.0 <= score <= 1.0

    @given(tokens=token_lists, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_token_lexicon_permutation_invariant(self, tokens, data):
        lexicon = lex("a", "c")
        doc = make_document("d", " ".join(tokens))
        perm = data.draw(st.permutations(tokens))
        shuffled = make_document("d", " ".join(perm))
        assert lexicon_score(doc, lexicon) == pytest.approx(
            lexicon_score(shuffled, lexicon)
        )

    @given(tokens=token_lists)
    @settings(max_examples=150, deadline=None)
    def test_single_token_lexicon_duplication_invariant(self, tokens):
        lexicon = lex("a", "b")
        doc = make_document("d", " ".join(tokens))
        doubled = make_document("d", " ".join(t for t in tokens for _ in range(2)))
        assert lexicon_score(doubled, lexicon) == pytest.approx(
            lexicon_score(doc, lexicon)
        )


def reference_ratio(tokens):
    """The per-token rule parse_tagged_file reduces each document to: the
    share of VERB surfaces starting with ن or ending with نا, None without a VERB."""
    verbs = [surface for surface, pos in tokens if pos == "VERB"]
    if not verbs:
        return None
    return sum(1 for v in verbs if v.startswith("ن") or v.endswith("نا")) / len(verbs)


def tagged(*docs):
    """CoNLL-like text of documents given as (surface, pos) pairs."""
    return "\n".join("".join(f"{s}\t{p}\n" for s, p in doc) for doc in docs)


class TestFppVerbRatio:
    def test_prefix_match(self):
        assert parse_tagged_file(tagged([("نروي", "VERB"), ("قال", "VERB")])) == [0.5]

    def test_no_verbs_undefined(self):
        assert parse_tagged_file(tagged([("ناطق", "NOUN")])) == [None]

    def test_known_fpp_verbs(self):
        assert parse_tagged_file(tagged([("شارفنا", "VERB"), ("نأسف", "VERB")])) == [1.0]

    def test_suffix_match(self):
        assert parse_tagged_file(tagged([("قلنا", "VERB")])) == [1.0]

    def test_empty_input_undefined(self):
        assert parse_tagged_file("\n# no documents\n\n") == []

    token = st.tuples(
        st.sampled_from(["نروي", "قال", "شارفنا", "كتب", "ناطق", "نهر", "بيت", "قلنا"]),
        st.sampled_from(["VERB", "NOUN", "نعت", "ن"]),
    )
    # a document: token lines with `#` lines among them, at least one token line
    document = st.lists(st.one_of(token, st.just("# note")), min_size=1, max_size=10).filter(
        lambda lines: any(isinstance(line, tuple) for line in lines))

    @given(docs=st.lists(document, max_size=6),
           gaps=st.lists(st.sampled_from(["\n", "\n\n", "\n \n", "\n# between\n\n"]),
                         min_size=7, max_size=7),
           lead=st.sampled_from(["", "\n", "# header\n", "\n\n# header\n\n"]))
    @settings(max_examples=300, deadline=None)
    def test_depends_only_on_verbs(self, docs, gaps, lead):
        text = lead + "".join(
            "".join(line + "\n" if isinstance(line, str) else f"{line[0]}\t{line[1]}\n"
                    for line in doc) + gap
            for doc, gap in zip(docs, gaps))
        expected = [reference_ratio([line for line in doc if isinstance(line, tuple)])
                    for doc in docs]
        assert parse_tagged_file(text) == expected


class TestCorpusProfile:
    def two_doc_corpus(self):
        return LabeledCorpus(
            (
                make_document("f1", "قال قال خبر", Label.FAKE),
                make_document("r1", "خبر جديد ورد", Label.REAL),
            )
        )

    def test_shape(self):
        profile = corpus_profile(self.two_doc_corpus(), lex("قال"), lex("رائع"))
        assert len(profile[Label.FAKE]) == 1
        assert len(profile[Label.REAL]) == 1
        assert profile[Label.FAKE][0].doc_id == "f1"

    def test_fpp_absent_without_tagged_input(self):
        profile = corpus_profile(self.two_doc_corpus(), lex("قال"), lex("رائع"))
        assert all(
            v.fpp_verb_ratio is None
            for vecs in profile.values()
            for v in vecs
        )

    def test_fake_cliche_separation(self):
        rng = np.random.default_rng(3)
        docs = []
        for i in range(20):
            fillers = [f"w{rng.integers(100)}" for _ in range(10)]
            docs.append(
                make_document(f"f{i}", "قال الناطق " + " ".join(fillers), Label.FAKE)
            )
            docs.append(make_document(f"r{i}", " ".join(fillers), Label.REAL))
        profile = corpus_profile(LabeledCorpus(tuple(docs)), lex("قال", "الناطق"), lex("رائع"))
        mean_j = lambda label: np.mean(
            [v.journalistic_register for v in profile[label]]
        )
        assert mean_j(Label.FAKE) > mean_j(Label.REAL)

    def test_tagged_length_mismatch(self):
        with pytest.raises(DataError, match="tagged"):
            corpus_profile(
                self.two_doc_corpus(), lex("قال"), lex("رائع"), fpp_ratios=[None]
            )

    def test_empty_document_error_names_doc(self):
        corpus = LabeledCorpus((make_document("bad", "", Label.FAKE),))
        with pytest.raises(DataError, match="bad"):
            corpus_profile(corpus, lex("قال"), lex("رائع"))


class TestTaggedFile:
    def test_parse(self):
        text = "نروي\tVERB\nخبر\tNOUN\n\nقال\tVERB\n"
        assert parse_tagged_file(text) == [1.0, 0.0]

    def test_line_separator_characters_stay_in_their_line(self):
        assert parse_tagged_file("a\x85b\tNOUN\nc\u2028d\tVERB\n") == [0.0]

    def test_malformed_line(self):
        with pytest.raises(DataError, match="line 1"):
            parse_tagged_file("no-tab-here\n")

    def test_malformed_line_counts_skipped_lines(self):
        with pytest.raises(DataError, match="line 4: expected surface<TAB>pos"):
            parse_tagged_file("# c\nقال\tVERB\n\na\tb\tc\n")


class TestProfileCsv:
    def test_format_with_undefined_fpp(self):
        corpus = LabeledCorpus(
            (
                make_document("f1", "قال خبر", Label.FAKE),
                make_document("r1", "خبر اخر", Label.REAL),
            )
        )
        ratios = parse_tagged_file(tagged([("نروي", "VERB")], [("بيت", "NOUN")]))
        profile = corpus_profile(corpus, lex("قال"), lex("رائع"), ratios)
        csv_text = profile_to_csv(profile)
        lines = csv_text.splitlines()
        assert lines[0] == "doc_id,label,J,S,fpp_ratio"
        assert lines[1] == "f1,fake,0.5,0.0,1.0"
        assert lines[2].startswith("r1,real,0.0,0.0,")
        assert lines[2].endswith(",")  # undefined ratio -> empty field

    def test_from_csv_inverts_to_csv(self):
        text = ("doc_id,label,J,S,fpp_ratio\n"
                "f1,fake,0.5,0.0,1.0\nf2,fake,0.1,0.30000000000000004,\nr1,real,0.0,1.0,0.25\n")
        assert profile_to_csv(profile_from_csv(text)) == text

    def test_from_csv_skips_metadata_and_blank_lines(self):
        text = "# satira 0.1.0\n# config-hash 0\ndoc_id,label,J,S,fpp_ratio\n\nr1,real,0.0,1.0,\n"
        assert profile_from_csv(text) == {
            Label.FAKE: [], Label.REAL: [MeasureVector("r1", 0.0, 1.0, None)]}

    @pytest.mark.parametrize("text", ["", "doc_id,label,J,S\n"])
    def test_from_csv_rejects_missing_header(self, text):
        with pytest.raises(DataError, match="expected a measures CSV with header"):
            profile_from_csv(text)
