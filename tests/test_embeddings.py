import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satira import DataError, make_document
from satira.fileio import LINE_BLOCK, parse_file, text_lines
from satira.models import (
    build_token_index,
    encode_corpus,
    load_embeddings,
    load_token_index,
    token_index_to_text,
)


def write_vectors(tmp_path, text):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestTokenIndex:
    def test_deterministic_one_based(self):
        docs = [make_document("a", "b a c"), make_document("b", "a d")]
        index = build_token_index(docs)
        assert index == {"a": 1, "b": 2, "c": 3, "d": 4}

    def test_encode_pads_and_truncates(self):
        index = {"a": 1, "b": 2}
        docs = [make_document("x", "a zz b"), make_document("y", "a b a b")]
        assert encode_corpus(docs, index, 5).tolist() == [[1, 0, 2, 0, 0], [1, 2, 1, 2, 0]]
        assert encode_corpus(docs, index, 2).tolist() == [[1, 0], [1, 2]]

    def test_text_round_trip(self, tmp_path):
        index = build_token_index([make_document("a", "b #tag c")])
        assert index["#tag"] == 1
        path = tmp_path / "token_index.txt"
        path.write_text(token_index_to_text(index), encoding="utf-8")
        assert load_token_index(path) == index

    def test_ids_out_of_order_name_the_line(self, tmp_path):
        path = tmp_path / "token_index.txt"
        path.write_text("# satira-token-index v1\na\t1\nb\t3\n", encoding="utf-8")
        with pytest.raises(DataError, match="token_index.txt: line 3"):
            load_token_index(path)

    def test_encode_corpus_shape(self):
        docs = [make_document("a", "x y"), make_document("b", "y")]
        index = build_token_index(docs)
        ids = encode_corpus(docs, index, 4)
        assert ids.shape == (2, 4)
        assert encode_corpus([], index, 4).shape == (0, 4)

    @pytest.mark.parametrize("max_len", [1, 2, 3, 4, 8])
    def test_index_and_encoding_cache_no_tokens(self, max_len):
        # the CNN path splits each text itself: a cached token tuple per document
        # would hold more memory than the ids it becomes
        texts = ["  a\tb  c \u2028d ", "c\n\nb", "", "a a a a a a"]
        docs = [make_document(str(i), text) for i, text in enumerate(texts)]
        index = build_token_index(docs)
        ids = encode_corpus(docs, index, max_len)
        assert not any("tokens" in vars(doc) for doc in docs)
        assert index == {token: i for i, token in enumerate("abcd", start=1)}
        expected = [[index[t] for t in doc.tokens[:max_len]] for doc in docs]
        assert ids.tolist() == [row + [0] * (max_len - len(row)) for row in expected]


class TestLoadEmbeddings:
    def test_coverage_ratio(self, tmp_path):
        index = {f"t{i}": i + 1 for i in range(10)}
        body = "9 4\n" + "".join(
            f"t{i} 0.1 0.2 0.3 0.4\n" for i in range(9)
        )
        path = write_vectors(tmp_path, body)
        matrix, coverage = load_embeddings(path, index, expected_dim=4)
        assert coverage == pytest.approx(0.9)
        assert matrix.shape == (11, 4)
        assert np.all(matrix[0] == 0.0)

    def test_uncovered_rows_stay_zero(self, tmp_path):
        index = {"known": 1, "missing": 2}
        path = write_vectors(tmp_path, "1 3\nknown 1.0 2.0 3.0\n")
        matrix, coverage = load_embeddings(path, index, expected_dim=3)
        assert coverage == pytest.approx(0.5)
        assert matrix[1].tolist() == [1.0, 2.0, 3.0]
        assert np.all(matrix[2] == 0.0)

    def test_empty_vocab_coverage_is_one(self, tmp_path):
        path = write_vectors(tmp_path, "1 3\nword 1 2 3\n")
        _, coverage = load_embeddings(path, {}, expected_dim=3)
        assert coverage == 1.0

    def test_dimension_mismatch(self, tmp_path):
        path = write_vectors(tmp_path, "1 200\nword " + " ".join(["0.1"] * 200) + "\n")
        with pytest.raises(DataError, match="dimension"):
            load_embeddings(path, {"word": 1}, expected_dim=300)

    def test_malformed_line_names_lineno(self, tmp_path):
        path = write_vectors(tmp_path, "2 3\ngood 1 2 3\nbad 1 2\n")
        with pytest.raises(DataError, match="line 3"):
            load_embeddings(path, {"good": 1, "bad": 2}, expected_dim=3)

    def test_malformed_value_names_lineno(self, tmp_path):
        path = write_vectors(tmp_path, "2 3\ngood 1 2 3\nbad 1 x 3\n")
        with pytest.raises(DataError, match="line 3: malformed value: .*'x'"):
            load_embeddings(path, {"good": 1, "bad": 2}, expected_dim=3)

    def test_values_parse_bitwise_as_float_does(self, tmp_path):
        rng = np.random.default_rng(3)
        values = [repr(v) for v in rng.normal(0.0, 0.3, size=6).tolist()]
        values += ["-0.0", "1e-320", "0.1000000000000000055511151231257827",
                   "1_5", "+.5", "1.7976931348623157e308"]
        path = write_vectors(tmp_path, f"1 {len(values)}\nw " + " ".join(values) + "\n")
        matrix, _ = load_embeddings(path, {"w": 1}, expected_dim=len(values))
        assert matrix[1].tobytes() == np.array([float(v) for v in values]).tobytes()

    @pytest.mark.parametrize("bad", ["nan", "-inf", "1e400", "Infinity"])
    def test_non_finite_value_names_its_line(self, tmp_path, bad):
        path = write_vectors(tmp_path, f"3 3\ngood 1 2 3\nskipped nan 2 3\nbad 1 {bad} 3\n")
        with pytest.raises(DataError, match="vectors.txt: line 4: vector values must be finite"):
            load_embeddings(path, {"good": 1, "bad": 2}, expected_dim=3)

    def test_line_separator_characters_in_tokens_stay_in_their_line(self, tmp_path):
        path = write_vectors(tmp_path, "3 2\nin 1 2\no\x85ut 3 4\nc\u2028d 5 6\n")
        matrix, coverage = load_embeddings(path, {"in": 1}, expected_dim=2)
        assert coverage == 1.0
        assert matrix[1].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("header, rows", [("5 2", 2), ("1 2", 2), ("0 2", 2), ("-2 2", 2),
                                              ("3 2", 0)])
    def test_declared_count_must_match_the_rows(self, tmp_path, header, rows):
        # a truncated file loads no fewer vectors unseen; blank lines are not rows
        body = "".join(f"w{i} 1 2\n\n" for i in range(rows))
        path = write_vectors(tmp_path, f"{header}\n{body}")
        declared = header.split()[0]
        with pytest.raises(DataError, match=f"line 1: header declares {declared} vectors, "
                                            f"the file holds {rows}"):
            load_embeddings(path, {"w0": 1, "w1": 2}, expected_dim=2)

    def test_a_malformed_row_is_named_before_the_count(self, tmp_path):
        path = write_vectors(tmp_path, "5 2\nw0 1 2\nw1 1\n")
        with pytest.raises(DataError, match="line 3: expected token plus 2 values, got 1"):
            load_embeddings(path, {"w0": 1}, expected_dim=2)

    def test_out_of_vocabulary_lines_skipped(self, tmp_path):
        path = write_vectors(tmp_path, "2 2\nin 1 2\nout 3 4\n")
        matrix, coverage = load_embeddings(path, {"in": 1}, expected_dim=2)
        assert coverage == 1.0
        assert matrix.shape == (2, 2)

    def test_a_second_vector_for_an_indexed_token_names_both_lines(self, tmp_path):
        path = write_vectors(tmp_path, "3 2\nw 1 2\nout 5 6\nw 3 4\n")
        with pytest.raises(DataError, match=r"vectors.txt: line 4: 'w' already has a vector, "
                                            r"on line 2$"):
            load_embeddings(path, {"w": 1}, expected_dim=2)

    def test_repeated_tokens_not_in_the_index_are_not_checked(self, tmp_path):
        path = write_vectors(tmp_path, "3 2\nw 1 2\nout 5 6\nout 3 4\n")
        matrix, coverage = load_embeddings(path, {"w": 1}, expected_dim=2)
        assert matrix[1].tolist() == [1.0, 2.0] and coverage == 1.0


def oracle_embeddings_from_text(text, token_index, expected_dim):
    """The whole-text loader that the streamed one replaced, kept as its reference."""
    lines = text_lines(text)
    if not lines:
        raise DataError("empty embedding file")
    try:
        count, dim = map(int, lines[0].split())
    except ValueError as exc:
        raise DataError(f"line 1: header must be '<vocab_size> <dim>': {exc}") from exc
    if dim != expected_dim:
        raise DataError(
            f"line 1: embedding dimension {dim} does not match expected {expected_dim}"
        )

    matrix = np.zeros((len(token_index) + 1, dim), dtype=np.float64)
    covered: dict[str, int] = {}  # token -> the line its vector was read from
    rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rows += 1
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise DataError(
                f"line {lineno}: expected token plus {dim} values, got {len(parts) - 1}"
            )
        token = parts[0]
        idx = token_index.get(token)
        if idx is None:
            continue
        try:
            matrix[idx] = np.array(parts[1:], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed value: {exc}") from exc
        covered[token] = lineno
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        lineno = min(line for token, line in covered.items() if not finite[token_index[token]])
        raise DataError(f"line {lineno}: vector values must be finite")
    if rows != count:
        raise DataError(f"line 1: header declares {count} vectors, the file holds {rows}")
    coverage = 1.0 if not token_index else len(covered) / len(token_index)
    return matrix, coverage


def outcome(load):
    """(matrix bytes, coverage) of a load, or its error message."""
    try:
        matrix, coverage = load()
    except DataError as exc:
        return str(exc)
    return matrix.shape, matrix.tobytes(), coverage


# values float() reads or refuses, with the ones only float() accepts ("1_5", Arabic
# digits) and "1\x1c", which np.loadtxt would accept but float() refuses
VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.4f}"),
    st.sampled_from(["-0.0", "+.5", "5.", "1E5", "1e-320", "1_5", "\u0661\u0662", "\t2"]),
    st.sampled_from(["1\x1c", "1\x1f", "\x1c", "1e400", "nan", "-Infinity", "x", "", "0x10"]),
)
TOKEN = st.text(alphabet="ab\x85\u2028\r\u0627\x1c", min_size=1, max_size=3)
BLANK = st.sampled_from(["", "  ", "\r", "\x85", "\u2028 "])


@st.composite
def vector_files(draw):
    """(file bytes, token index, dim): rows with CRLF or LF ends, blank lines, rows
    not in the index, some short or long rows, and sometimes a byte that is not UTF-8."""
    dim = draw(st.integers(1, 3))
    tokens = draw(st.lists(TOKEN, unique=True, max_size=8))
    lines = []
    for token in tokens:
        lines += draw(st.lists(BLANK, max_size=1))
        width = dim + draw(st.sampled_from([0] * 12 + [-1, 1]))
        values = draw(st.lists(VALUE, min_size=width, max_size=width))
        lines.append(" ".join([token, *values]) + draw(st.sampled_from(["", "\r", " "])))
    count = len(tokens) + draw(st.sampled_from([0] * 8 + [-1, 1]))
    text = f"{count} {dim}\n" + "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                                         for line in lines)
    data = text.encode("utf-8")
    if draw(st.sampled_from([False] * 9 + [True])):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    indexed = [t for t in tokens if draw(st.booleans())] + draw(st.lists(TOKEN, max_size=2))
    index = {token: i for i, token in enumerate(dict.fromkeys(indexed), start=1)}
    return data, index, dim


class TestStreamedLoader:
    """``load_embeddings`` reads the file in blocks and parses each block's indexed
    rows in bulk; it gives the matrix, coverage and errors of the whole-text loader."""

    @pytest.mark.parametrize("block", [1, 7, 64, LINE_BLOCK])
    @given(case=vector_files())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_whole_text_loader(self, tmp_path_factory, block, case):
        data, index, dim = case
        path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
        path.write_bytes(data)
        expected = outcome(lambda: parse_file(
            path, lambda text: oracle_embeddings_from_text(text, index, dim)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("satira.fileio.LINE_BLOCK", block)
            assert outcome(lambda: load_embeddings(path, index, dim)) == expected

    @pytest.mark.parametrize("row, message", [
        ("w9 1 x 3", "line 12: malformed value: could not convert string to float: 'x'"),
        ("w9 1 2", "line 12: expected token plus 3 values, got 2"),
        ("w9 1 -inf 3", "line 12: vector values must be finite"),
        ("w9 1 1_0 \u0663", "line 1: header declares 7 vectors, the file holds 6"),
    ])
    def test_a_later_block_keeps_its_message_and_line(self, tmp_path, monkeypatch, row, message):
        monkeypatch.setattr("satira.fileio.LINE_BLOCK", 64)
        body = "".join(f"w{i} 0.{i}5 1.25 -2e-3\n\n" for i in range(5)) + row + "\n"
        path = write_vectors(tmp_path, "7 3\n" + body)
        index = {f"w{i}": i + 1 for i in range(10)}
        with pytest.raises(DataError) as caught:
            load_embeddings(path, index, expected_dim=3)
        assert str(caught.value) == f"{path}: {message}"

    def test_an_earlier_malformed_value_in_the_block_is_named_first(self, tmp_path):
        path = write_vectors(tmp_path, "3 2\na 1 2\nb 1 y\nc 1\n")
        with pytest.raises(DataError, match="line 3: malformed value: .*'y'"):
            load_embeddings(path, {"a": 1, "b": 2}, expected_dim=2)

    def test_missing_file_and_invalid_utf8_name_the_path(self, tmp_path):
        missing = tmp_path / "missing.vec"
        with pytest.raises(DataError, match=f"^{missing}: .*No such file"):
            load_embeddings(missing, {}, expected_dim=2)
        bad = tmp_path / "bad.vec"
        bad.write_bytes(b"1 2\nw 1 x\n\xff\n")
        with pytest.raises(DataError, match=f"^{bad}: not valid UTF-8: 'utf-8' codec can't "
                                            f"decode byte 0xff in position 10"):
            load_embeddings(bad, {"w": 1}, expected_dim=2)

    def test_peak_memory_does_not_grow_with_the_rows_not_indexed(self, tmp_path, monkeypatch):
        block = 1 << 14
        monkeypatch.setattr("satira.fileio.LINE_BLOCK", block)
        index = {f"in{i}": i + 1 for i in range(50)}
        values = " ".join(["-0.123456789"] * 16)

        def peak(skipped: int) -> int:
            rows = [f"in{i} {values}" for i in range(50)]
            rows += [f"out{i} {values}" for i in range(skipped)]
            path = write_vectors(tmp_path, f"{len(rows)} 16\n" + "".join(r + "\n" for r in rows))
            tracemalloc.start()
            try:
                load_embeddings(path, index, expected_dim=16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = peak(2000)  # 0.4 MB, about 25 blocks
        assert peak(8000) - short < 2 * block
