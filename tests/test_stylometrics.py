from itertools import chain
from unittest import mock

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
from satira import stylometrics
from satira.fileio import text_lines
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


def line_loop_ratios(text):
    """The line loop ``parse_tagged_file`` replaces: each line is stripped, ``#``
    lines are skipped, blank lines end a document, and any other line must be
    ``surface<TAB>pos``."""
    ratios = []
    verbs = hits = 0
    in_doc = False
    for lineno, line in enumerate(chain(text_lines(text), [""]), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if in_doc:
                ratios.append(hits / verbs if verbs else None)
                verbs = hits = 0
                in_doc = False
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected surface<TAB>pos, got {line!r}")
        in_doc = True
        surface, pos = parts
        if pos == "VERB":
            verbs += 1
            hits += surface.startswith("ن") or surface.endswith("نا")
    return ratios


def ratios_or_error(parse, text):
    try:
        return parse(text)
    except DataError as exc:
        return f"DataError: {exc}"


# whitespace that str.strip removes at a line's ends, of each UTF-8 length
EDGES = ["", "", " ", "\t", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
SURFACES = ["نروي", "قلنا", "قال", "ن", "نا", "ا", "x y", "#x", "a\x85b", "\u3000ن"]
POS = ["VERB", "NOUN", "VERB ", "VERBS", "ERB"]
edge = st.sampled_from(EDGES)


def token_lines(surfaces, pos):
    return st.builds(lambda a, s, p, b: f"{a}{s}\t{p}{b}", edge, st.sampled_from(surfaces),
                     st.sampled_from(pos), edge)


comment_line = st.builds(lambda a, b: f"{a}# note{b}", edge, edge)
blank_line = st.builds(lambda a, b: a + b, edge, edge)
# well-formed documents: token lines (some edged with whitespace) and comment lines
document = st.lists(st.one_of(token_lines(SURFACES, POS), comment_line), min_size=1, max_size=8)
# any line: empty surfaces, extra tabs and stray characters too
any_line = st.one_of(
    token_lines(SURFACES + [""], POS + ["", "VERB\tX", "\tVERB"]), comment_line, blank_line,
    st.text(alphabet="نا\t #VERB\r\x85\u3000", max_size=8),
)
BLOCKS = [1, 7, stylometrics.TAG_BLOCK]


class TestTaggedFileAgainstLineLoop:
    """The blocked scan gives the line loop's ratios, or its error, at block
    sizes of one line, of 7 characters and the default, so documents and bad
    lines fall across block boundaries."""

    @pytest.mark.parametrize("block", BLOCKS)
    @given(docs=st.lists(document, max_size=10), gaps=st.lists(blank_line, min_size=10),
           end=st.sampled_from(["", "\n"]))
    @settings(max_examples=100, deadline=None)
    def test_same_ratios(self, block, docs, gaps, end):
        text = "\n".join("\n".join(doc) + "\n" + gap for doc, gap in zip(docs, gaps)) + end
        expected = line_loop_ratios(text)
        with mock.patch.object(stylometrics, "TAG_BLOCK", block):
            got = parse_tagged_file(text)
        assert got == expected
        assert all(r is None or type(r) is float for r in got)

    @pytest.mark.parametrize("block", BLOCKS)
    @given(lines=st.lists(any_line, max_size=30), end=st.sampled_from(["", "\n", "\n\n"]))
    @settings(max_examples=150, deadline=None)
    def test_same_ratios_or_error(self, block, lines, end):
        text = "\n".join(lines) + end
        expected = ratios_or_error(line_loop_ratios, text)
        with mock.patch.object(stylometrics, "TAG_BLOCK", block):
            assert ratios_or_error(parse_tagged_file, text) == expected

    def test_spaces_are_every_whitespace_code_point(self):
        spaces = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
        assert stylometrics._SPACES == spaces


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

    def test_from_csv_rejects_a_csv_without_data_rows(self):
        with pytest.raises(DataError, match="no data rows"):
            profile_from_csv("# satira 0.1.0\ndoc_id,label,J,S,fpp_ratio\n\n")

    def test_from_csv_names_an_unknown_label_as_the_corpus_readers_do(self):
        text = "doc_id,label,J,S,fpp_ratio\nf1,fake,0.5,0.0,\nr1,satire,0.0,1.0,\n"
        with pytest.raises(DataError) as caught:
            profile_from_csv(text)
        assert str(caught.value) == "line 3: unknown label 'satire'; expected 'fake' or 'real'"

    @pytest.mark.parametrize("text", ["", "doc_id,label,J,S\n"])
    def test_from_csv_rejects_missing_header(self, text):
        with pytest.raises(DataError, match="expected a measures CSV with header"):
            profile_from_csv(text)
