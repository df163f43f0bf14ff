import numpy as np
import pytest

from satira import DataError, make_document
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
