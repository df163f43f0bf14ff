"""The table-reading artifact loaders against the line-at-a-time ones of
``loader_oracles``: every artifact, cut at a line boundary, or with one or two
bytes substituted, inserted or deleted, loads to a bitwise-equal object under both,
or fails under both with the same exception and message."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from satira import DataError, fileio, make_document
from satira.models import BoostConfig, gbt_fit, load_cnn, load_nb, load_token_index, nb_fit
from satira.models.boosted_trees import gbt_from_text, gbt_to_text
from satira.models.convnet import ConvNetModel, cnn_from_text, cnn_to_text
from satira.models.embeddings import (
    _token_index_from_text,
    build_token_index,
    token_index_to_text,
)
from satira.models.naive_bayes import NaiveBayesModel, nb_from_text, nb_to_text
from satira.vectorize import (
    Analyzer,
    Vocabulary,
    VectorizerConfig,
    Weighting,
    fit,
    load_vocabulary,
    transform,
    vocabulary_from_text,
    vocabulary_to_text,
)
from tests import loader_oracles as oracle
from tests.test_convnet import CNN_TEXT, tiny_model

DOCS = [make_document(f"d{i}", text) for i, text in enumerate(
    ["a b a c", "b c d", "a d e #f", "c c e f", "b é a"])]


def vocabulary_text(weighting: Weighting, analyzer: Analyzer) -> str:
    ngram = (1, 2) if analyzer is Analyzer.WORD else (2, 3)
    cfg = VectorizerConfig(weighting=weighting, analyzer=analyzer, ngram_range=ngram,
                           max_features=12, max_df=1.0)
    return vocabulary_to_text(fit(DOCS, cfg))


def nb_text() -> str:
    vocab = fit(DOCS, VectorizerConfig(max_df=1.0))
    X = transform(DOCS, vocab, vocab.config)
    return nb_to_text(nb_fit(X, np.array([1, 0, 1, 0, 1])))


def gbt_text(weighting: Weighting) -> str:
    vocab = fit(DOCS, VectorizerConfig(weighting=weighting, max_df=1.0))
    X = transform(DOCS, vocab, vocab.config).toarray()
    model = gbt_fit(X, np.array([1, 0, 1, 0, 1]), BoostConfig(n_rounds=3, max_depth=2))
    assert any(len(tree.nodes) > 1 for tree in model.trees)  # rows of both shapes
    return gbt_to_text(model)


def cnn_text() -> str:
    model = tiny_model(5, vocab=6, dim=2, filters=2, kernel=2, seq_len=3)
    embedding = model.embedding.copy()
    embedding[3] = 0.0  # a second zero row, as a token without a vector has
    return "".join(cnn_to_text(dataclasses.replace(model, embedding=embedding)))


# artifact -> (its text, new loader, row-at-a-time loader)
ARTIFACTS = {
    **{f"vocabulary-{w.value}-{a.value}": (vocabulary_text(w, a), vocabulary_from_text,
                                           oracle.vocabulary_from_text)
       for w in Weighting for a in Analyzer},
    "nb": (nb_text(), nb_from_text, oracle.nb_from_text),
    "token-index": (token_index_to_text(build_token_index(DOCS)), _token_index_from_text,
                    oracle.token_index_from_text),
    "cnn": (cnn_text(), cnn_from_text, oracle.cnn_from_text),
    "cnn-fixture": (CNN_TEXT, cnn_from_text, oracle.cnn_from_text),
    **{f"gbt-{w.value}": (gbt_text(w), gbt_from_text, oracle.gbt_from_text) for w in Weighting},
}

# bytes that make or break the fields of a row, then any ASCII byte
BYTES = st.sampled_from(b"\t\n \r0123456789.-+e#=/Aafinx") | st.integers(0, 127)


@st.composite
def corrupted(draw, text: str) -> str:
    """``text`` cut at a line boundary, or with one or two single-byte edits, or
    both: two edits can make two rows faulty, and the first must be named."""
    data = text.encode("utf-8")
    cut = draw(st.booleans())
    if cut:
        lines = data.splitlines(keepends=True)
        data = b"".join(lines[:draw(st.integers(0, len(lines) - 1))])
    for _ in range(draw(st.integers(0 if cut else 1, 2))):
        kind = draw(st.sampled_from(["substitute", "insert", "delete"])) if data else "insert"
        at = draw(st.integers(0, len(data) - (kind != "insert")))
        byte = bytes([draw(BYTES)]) if kind != "delete" else b""
        data = data[:at] + byte + data[at + (kind != "insert"):]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:  # refused by every file reader before a loader runs
        assume(False)


def outcome(load, text: str):
    try:
        return load(text)
    except Exception as exc:  # the oracle's exception, whatever its kind
        return type(exc), str(exc)


def assert_bitwise_equal(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_bitwise_equal(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, dict):
        assert list(a.items()) == list(b.items())
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    else:
        assert a == b


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_loads_as_it_did(name):
    text, load, load_by_rows = ARTIFACTS[name]
    assert_bitwise_equal(load(text), load_by_rows(text))


def assert_corruptions_load_as_they_did(name: str) -> None:
    text, load, load_by_rows = ARTIFACTS[name]

    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(corrupted(text))
    def check(bad):
        expected = outcome(load_by_rows, bad)
        got = outcome(load, bad)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert_bitwise_equal(got, expected)

    check()


@pytest.mark.parametrize("name", ARTIFACTS)
def test_corrupted_artifact_loads_or_fails_as_it_did(name):
    assert_corruptions_load_as_they_did(name)


@pytest.mark.parametrize("block", [16, 40])
def test_cnn_rows_decoded_a_block_at_a_time_load_as_they_did(monkeypatch, block):
    # one row, or two, of the 2-float matrices is decoded at a time
    monkeypatch.setattr(fileio, "LINE_BLOCK", block)
    assert_corruptions_load_as_they_did("cnn")


# (artifact, a line of it, that line with two faults, the start of the message
# of the fault that the row-at-a-time oracle checks first)
TWO_FAULTS = [
    ("vocabulary-tfidf-word", "a\t1\t3\t1.4054651081081644", "a\tx\t0\t1.4054651081081644",
     "line 4: invalid literal for int() with base 10: 'x'"),
    ("vocabulary-tfidf-word", "a\t1\t3\t1.4054651081081644", "a\t7\t0\t1.4054651081081644",
     "line 4: expected a new feature with column 1"),
    ("vocabulary-tfidf-word", "a\t1\t3\t1.4054651081081644", "a\t1\t0\t",
     "line 4: df must be >= 1, got 0"),
    ("vocabulary-tfidf-word", "a\t1\t3\t1.4054651081081644", "a\t1\t9\tnan",
     "line 4: df 9 of 5 documents exceeds max_df=1.0"),
    ("vocabulary-count-word", "a\t1\t3\t", "a  b\t1\t3\t1.5",
     "line 4: idf must be given exactly when weighting is tfidf"),
    ("vocabulary-tfidf-word", "a\t1\t3\t1.4054651081081644", "a  b\t1\t3\tzz",
     "line 4: feature 'a  b' is not a word n-gram"),
    ("nb", "0\t-2.2512917986064953\t-2.70805020110221", "5\tx\t-2.70805020110221",
     "line 4: feature index 5 where 0 was expected"),
    ("nb", "0\t-2.2512917986064953\t-2.70805020110221", "0\tx\t-2.7\t1",
     "line 4: feature index 0: expected 3 fields, got 4"),
    ("token-index", "b\t3", "a\tx", "line 4: invalid literal for int() with base 10: 'x'"),
    ("gbt-count", "0\tsplit\t1\t0.5\t1\t2", "0\tsplit\t1\tnan\tx\t2",
     "line 4: invalid literal for int() with base 10: 'x'"),
    ("gbt-count", "0\tsplit\t1\t0.5\t1\t2", "0\tsplit\t1\tnan\t0\t2",
     "line 4: 'nan' is not a finite number"),
    ("gbt-count", "0\tsplit\t1\t0.5\t1\t2", "0\tsplit\t9\t0.5\t0\t2",
     "line 4: feature 9 is out of range"),
    ("gbt-count", "0\tsplit\t1\t0.5\t1\t2", "1\tleaf\tx", "line 4: expected node 0, got '1'"),
    ("cnn", "conv_bias 0", "conv_biaz !!", "line 13: section conv_biaz where conv_bias was"),
    ("cnn", "conv_bias 0", "conv_bias !! 0", "line 13: section conv_bias: expected 2 fields, got 3"),
]


@pytest.mark.parametrize("name, line, bad, message", TWO_FAULTS)
def test_row_with_two_faults_names_the_one_checked_first(name, line, bad, message):
    text, load, load_by_rows = ARTIFACTS[name]
    assert f"\n{line}\n" in text
    corrupted_text = text.replace(f"\n{line}\n", f"\n{bad}\n", 1)
    expected = outcome(load_by_rows, corrupted_text)
    assert expected[1].startswith(message)
    assert outcome(load, corrupted_text) == expected


# field values that break a row's parse, or parse and break a later check
FIELDS = st.sampled_from([b"", b"x", b"-1", b"0", b"1", b"2", b"nan", b"inf", b"-1e999",
                          b"9" * 25, b"0.5", b"AAAA", b"AAAAAAAAAAA=", b"0\t0", b" "])


@st.composite
def mangled(draw, text: str) -> bytes:
    """The bytes of ``text`` after one to three edits: a bit flipped, a cut at
    any byte, a line deleted or repeated, or a field of a line (split at tabs,
    or at spaces where a line holds no tab) replaced. A flipped bit may leave
    bytes that are not UTF-8, which the file reader refuses."""
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        lines = data.splitlines(keepends=True)
        edit = draw(st.sampled_from(["flip", "cut", "delete", "repeat", "field"]))
        if edit in ("flip", "cut"):
            at = draw(st.integers(0, max(len(data) - 1, 0)))
            if edit == "cut":
                data = data[:at]
            elif data:
                data = data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
            continue
        if not lines:
            continue
        k = draw(st.integers(0, len(lines) - 1))
        if edit == "field":
            line = lines[k].rstrip(b"\n")
            sep = b"\t" if b"\t" in line else b" "
            fields = line.split(sep)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELDS)
            lines[k] = sep.join(fields) + lines[k][len(line):]
        else:
            lines[k:k + 1] = [] if edit == "delete" else [lines[k]] * 2
        data = b"".join(lines)
    return data


# artifact -> (its loader of a file, the type of what the loader returns)
FILE_LOADERS = {
    **{name: (load_vocabulary, Vocabulary) for name in ARTIFACTS if name.startswith("vocab")},
    "nb": (load_nb, NaiveBayesModel),
    "token-index": (load_token_index, dict),
    "cnn": (load_cnn, ConvNetModel),
    "cnn-fixture": (load_cnn, ConvNetModel),
}


@pytest.mark.parametrize("name", FILE_LOADERS)
def test_every_mangled_artifact_loads_or_is_a_data_error(tmp_path, name):
    """A corrupted file never ends in any exception but ``DataError``."""
    load, kind = FILE_LOADERS[name]
    path = tmp_path / "artifact.txt"

    @settings(max_examples=1000, deadline=None)
    @given(mangled(ARTIFACTS[name][0]))
    def check(bad):
        path.write_bytes(bad)
        try:
            assert isinstance(load(path), kind)
        except DataError:
            pass

    check()
