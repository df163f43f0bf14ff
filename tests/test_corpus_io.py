import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satira import (
    DataError,
    Label,
    LabeledCorpus,
    NormalizationConfig,
    SplitConfig,
    StopPhraseList,
    apply_stop_phrases,
    clean_corpus,
    load_corpus,
    make_document,
    split,
)
from satira.corpus_io import corpus_to_jsonl, save_corpus


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadJsonl:
    def test_basic_record(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"id":"a1","text":"قال الناطق","label":"fake"}\n')
        corpus = load_corpus(path)
        assert len(corpus) == 1
        doc = corpus.documents[0]
        assert doc.id == "a1"
        assert doc.tokens == ("قال", "الناطق")
        assert doc.label is Label.FAKE

    def test_empty_file(self, tmp_path):
        corpus = load_corpus(write(tmp_path, "c.jsonl", ""))
        assert len(corpus) == 0

    def test_missing_label_counted_in_neither_class(self, tmp_path):
        path = write(
            tmp_path,
            "c.jsonl",
            '{"id":"a","text":"x","label":"fake"}\n{"id":"b","text":"y"}\n',
        )
        corpus = load_corpus(path)
        assert corpus.documents[1].label is None
        assert corpus.class_counts == {Label.FAKE: 1, Label.REAL: 0}

    def test_class_counts_follow_the_documents(self):
        corpus = balanced_corpus(3, 2)
        assert corpus.class_counts == {Label.FAKE: 3, Label.REAL: 2}
        with pytest.raises(TypeError):
            LabeledCorpus(corpus.documents, {Label.FAKE: 0, Label.REAL: 0})
        with pytest.raises(AttributeError):
            corpus.class_counts = {}

    def test_malformed_record_names_line(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"id":"a","text":"x"}\n{broken\n')
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_unknown_label(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"id":"a","text":"x","label":"satire"}\n')
        with pytest.raises(DataError, match="unknown label"):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = write(
            tmp_path, "c.jsonl", '{"id":"a","text":"x"}\n{"id":"a","text":"y"}\n'
        )
        with pytest.raises(DataError, match="duplicate"):
            load_corpus(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '# header\n{"id":"a","text":"x"}\n')
        assert len(load_corpus(path)) == 1

    def test_missing_text_field_names_line(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"id":"a"}\n')
        with pytest.raises(DataError, match="line 1: 'text' must be a string, got nothing"):
            load_corpus(path)

    @pytest.mark.parametrize("record, key, got", [
        ('{"id":"a","text":null}', "text", "null"),
        ('{"id":true,"text":"x"}', "id", "true"),
        ('{"id":"a","text":{"k":1}}', "text", '{"k": 1}'),
        ('{"id":7,"text":"x"}', "id", "7"),
        ('{"id":"a","text":["x"]}', "text", '["x"]'),
    ])
    def test_id_and_text_must_be_json_strings(self, tmp_path, record, key, got):
        # no other JSON value is turned into a string
        path = write(tmp_path, "c.jsonl", '{"id":"ok","text":"x"}\n' + record + "\n")
        with pytest.raises(DataError) as exc:
            load_corpus(path)
        assert str(exc.value) == f"{path}: line 2: {key!r} must be a string, got {got}"


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "c.csv", 'id,text,label\na1,"قال الناطق",fake\n')
        corpus = load_corpus(path)
        assert corpus.documents[0].tokens == ("قال", "الناطق")
        assert corpus.documents[0].label is Label.FAKE

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "c.csv", "identifier,body,label\na,x,fake\n")
        with pytest.raises(DataError, match="header"):
            load_corpus(path)

    def test_bare_carriage_return_names_line(self, tmp_path):
        path = write(tmp_path, "c.csv", "id,text,label\na,x,fake\nb,y\rz,real\n")
        with pytest.raises(DataError, match=r"c\.csv: line 3: new-line character"):
            load_corpus(path)

    def test_hash_id_after_the_header_is_a_document(self, tmp_path):
        path = write(tmp_path, "c.csv",
                     "# satira 0.1.0\nid,text,label\n#a,قال الناطق,fake\nb,خبر,real\n")
        corpus = load_corpus(path)
        assert [doc.id for doc in corpus] == ["#a", "b"]
        assert corpus.documents[0].tokens == ("قال", "الناطق")

    def test_empty_label_field_is_unlabeled(self, tmp_path):
        path = write(tmp_path, "c.csv", "id,text,label\na,x,\n")
        corpus = load_corpus(path)
        assert corpus.documents[0].label is None


def balanced_corpus(n_fake, n_real):
    docs = [make_document(f"f{i}", f"t{i}", Label.FAKE) for i in range(n_fake)]
    docs += [make_document(f"r{i}", f"t{i}", Label.REAL) for i in range(n_real)]
    return LabeledCorpus(tuple(docs))


class TestSplit:
    def test_stratified_counts(self):
        corpus = balanced_corpus(10, 10)
        train, test = split(corpus, SplitConfig(test_fraction=0.2, seed=1))
        assert test.class_counts == {Label.FAKE: 2, Label.REAL: 2}
        assert train.class_counts == {Label.FAKE: 8, Label.REAL: 8}

    def test_deterministic(self):
        corpus = balanced_corpus(13, 9)
        cfg = SplitConfig(test_fraction=0.3, seed=5)
        first = split(corpus, cfg)
        second = split(corpus, cfg)
        assert [d.id for d in first[1]] == [d.id for d in second[1]]
        assert [d.id for d in first[0]] == [d.id for d in second[0]]

    def test_different_seeds_differ(self):
        corpus = balanced_corpus(50, 50)
        _, test1 = split(corpus, SplitConfig(test_fraction=0.2, seed=1))
        _, test2 = split(corpus, SplitConfig(test_fraction=0.2, seed=2))
        assert {d.id for d in test1} != {d.id for d in test2}

    def test_unlabeled_document_rejected(self):
        docs = (make_document("a", "x", Label.FAKE), make_document("b", "y"))
        with pytest.raises(DataError, match="unlabeled"):
            split(LabeledCorpus(docs), SplitConfig())

    def test_small_class_rejected(self):
        corpus = LabeledCorpus(
            (
                make_document("a", "x", Label.FAKE),
                make_document("b", "y", Label.REAL),
                make_document("c", "z", Label.REAL),
            )
        )
        with pytest.raises(DataError, match="at least 2"):
            split(corpus, SplitConfig())

    def test_empty_class_rejected(self):
        with pytest.raises(DataError, match="class 'real' has 0 document"):
            split(balanced_corpus(5, 0), SplitConfig())

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            SplitConfig(test_fraction=1.0)
        with pytest.raises(ValueError):
            SplitConfig(test_fraction=0.0)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SplitConfig(seed=-1)

    @given(
        n_fake=st.integers(2, 30),
        n_real=st.integers(2, 30),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_partition(self, n_fake, n_real, fraction, seed):
        corpus = balanced_corpus(n_fake, n_real)
        train, test = split(corpus, SplitConfig(fraction, seed))
        train_ids = {d.id for d in train}
        test_ids = {d.id for d in test}
        assert train_ids & test_ids == set()
        assert train_ids | test_ids == {d.id for d in corpus}


class TestRoundTrip:
    def test_jsonl_round_trips_byte_identically(self, tmp_path):
        original = (
            '{"id":"a1","text":"قال الناطق","label":"fake"}\n'
            '{"id":"a2","text":"خبر عاجل","label":"real"}\n'
            '{"id":"a3","text":"بدون تصنيف"}\n'
        )
        path = write(tmp_path, "c.jsonl", original)
        corpus = load_corpus(path)
        serialized = "".join(corpus_to_jsonl(corpus))
        reloaded_path = tmp_path / "again.jsonl"
        save_corpus(corpus, reloaded_path)
        corpus2 = load_corpus(reloaded_path)
        assert "".join(corpus_to_jsonl(corpus2)) == serialized
        assert serialized.encode("utf-8") == reloaded_path.read_bytes()

    def test_save_never_holds_the_whole_text(self, tmp_path):
        # a 1 MB text: each document's line is made and written in turn
        texts = ["خبر عاجل " * 60 + str(i) for i in range(1000)]
        corpus = LabeledCorpus(tuple(make_document(f"a{i}", t, Label.REAL)
                                     for i, t in enumerate(texts)))
        path = tmp_path / "c.jsonl"
        tracemalloc.start()
        try:
            save_corpus(corpus, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000 and peak < size / 20
        assert [d.text for d in load_corpus(path)] == texts

    def test_line_separator_characters_in_text_round_trip(self, tmp_path):
        # json.dumps leaves these unescaped; str.splitlines would cut there
        texts = ["قال\x85الناطق", "خبر\u2028عاجل", "بدون\u2029تصنيف"]
        corpus = LabeledCorpus(
            tuple(make_document(f"a{i}", t, Label.FAKE) for i, t in enumerate(texts))
        )
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert [d.text for d in load_corpus(path).documents] == texts

    def test_serialized_form_is_canonical_json(self, tmp_path):
        corpus = balanced_corpus(2, 2)
        for line in corpus_to_jsonl(corpus):
            record = json.loads(line)
            assert list(record) == ["id", "text", "label"]


any_text = st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=30)


class TestTokensFollowText:
    """A document's tokens are the whitespace split of its text, whether it
    was loaded, cleaned or had stop phrases removed."""

    @given(texts=st.lists(any_text, min_size=1, max_size=5), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_tokens_are_the_split_text(self, tmp_path_factory, texts, data):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        save_corpus(LabeledCorpus(tuple(make_document(f"d{i}", t) for i, t in enumerate(texts))),
                    path)
        loaded = load_corpus(path)
        words = sorted({t for doc in loaded for t in doc.tokens}) or ["x"]
        phrase = st.lists(st.sampled_from(words), min_size=1, max_size=3).map(" ".join)
        stops = StopPhraseList(tuple(data.draw(st.lists(phrase, unique=True, max_size=4))))
        cfg = NormalizationConfig(*data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans())))
        cleaned = clean_corpus(loaded, cfg, stops)
        stripped = [apply_stop_phrases(doc, stops) for doc in loaded]
        for doc in (*loaded, *cleaned, *stripped):
            assert doc.tokens == tuple(doc.text.split())
