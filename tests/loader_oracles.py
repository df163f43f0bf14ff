"""Reference loaders: the vocabulary, Naive Bayes, token-index and CNN readers as
they read an artifact one row at a time, each row through ``BodyReader.fields``
and ``parse`` and the per-row helpers below, checking a row fully before the
next. The loaders in ``src/`` read each body as one ``Table`` and check it a
column at a time; ``test_loader_oracles.py`` holds them to these, object for
object and message for message.

The only change from the row-at-a-time loaders is the idf rule of a TF-IDF
vocabulary (finite and >= 1), checked last in its row, as ``vocabulary_from_text``
checks it.
"""

import base64
import math

import numpy as np

from satira.errors import DataError
from satira.fileio import ZERO_ROW, BodyReader
from satira.models.convnet import CNN_FORMAT, ConvNetModel
from satira.models.embeddings import TOKEN_INDEX_FORMAT
from satira.models.naive_bayes import NB_FORMAT, NaiveBayesModel
from satira.vectorize import (
    VOCABULARY_FORMAT,
    Analyzer,
    VectorizerConfig,
    Vocabulary,
    Weighting,
)


class RowReader(BodyReader):
    """``BodyReader`` with the per-row float readers the table read replaced."""

    def row(self, what: str, count: int, label: str | None, sep: str) -> list[str]:
        """Next line's ``count`` fields after ``label``, if given."""
        if label is None:
            return self.fields(what, count, sep)
        parts = self.fields(f"{what} {label}", count + 1, sep)
        if parts[0] != label:
            raise self.error(f"{what} {parts[0]} where {label} was expected")
        return parts[1:]

    def floats(self, what: str, count: int, label: str | None = None,
               sep: str = " ") -> np.ndarray:
        parts = self.row(what, count, label, sep)
        try:
            return np.array(parts, dtype=np.float64)
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def base64_floats(self, what: str, count: int, label: str | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
        (field,) = self.row(what, 1, label, " ")
        if field == ZERO_ROW:
            return np.zeros(count, dtype=np.float64) if out is None else out
        try:
            raw = base64.b64decode(field, validate=True)
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from exc
        if len(raw) != 8 * count:
            raise self.error(f"{what}: expected {count} floats ({8 * count} bytes), "
                             f"got {len(raw)} bytes")
        values = np.frombuffer(raw, dtype="<f8")
        if out is None:
            return values.astype(np.float64)
        out[:] = values
        return out


def vocabulary_from_text(text: str) -> Vocabulary:
    r = RowReader(text, VOCABULARY_FORMAT)
    cfg = VectorizerConfig(
        weighting=r.meta_value("weighting", Weighting),
        analyzer=r.meta_value("analyzer", Analyzer),
        ngram_range=r.meta_value("ngram", lambda v: tuple(map(int, v.split(",")))),
        max_features=r.meta_value("max_features", int),
        max_df=r.meta_value("max_df", float),
    )
    n_docs = r.meta_count("n_docs", 1)
    lo, hi = cfg.ngram_range
    tfidf = cfg.weighting is Weighting.TFIDF
    index: dict[str, int] = {}
    dfs: list[int] = []
    idfs: list[float] = []
    while r.more:
        feature, col_s, df_s, idf = r.fields("feature row", 4)
        col, df = r.parse(int, col_s, df_s)
        if col != len(index) or feature in index:
            raise r.error(f"expected a new feature with column {len(index)}")
        if df < 1:
            raise r.error(f"df must be >= 1, got {df}")
        if (idf != "") != tfidf:
            raise r.error("idf must be given exactly when weighting is tfidf")
        if cfg.analyzer is Analyzer.CHAR:
            n, producible = len(feature), True
        else:
            tokens = feature.split(" ")
            n, producible = len(tokens), feature.split() == tokens
        if not (producible and lo <= n <= hi):
            raise r.error(
                f"feature {feature!r} is not a {cfg.analyzer.value} n-gram with {lo} <= n <= {hi}"
            )
        index[feature] = col
        dfs.append(df)
        if idf:
            (value,) = r.parse(float, idf)
            if not (math.isfinite(value) and value >= 1.0):
                raise r.error(f"idf must be finite and >= 1, got {value!r}")
            idfs.append(value)
    if not index:
        raise DataError("no feature rows")
    idf_arr = np.array(idfs, dtype=np.float64) if tfidf else None
    return Vocabulary(index, np.array(dfs, dtype=np.int64), idf_arr, n_docs, cfg)


def nb_from_text(text: str) -> NaiveBayesModel:
    r = RowReader(text, NB_FORMAT)
    alpha = r.meta_value("alpha", float)
    n_features = r.meta_count("n_features", 0)
    priors = r.floats("row", 2, "prior", "\t")
    rows = [r.floats("feature index", 2, str(j), "\t") for j in range(n_features)]
    r.end()
    feature_log_prob = np.array(rows, dtype=np.float64).reshape(n_features, 2).T.copy()
    return NaiveBayesModel(priors, feature_log_prob, alpha)


def token_index_from_text(text: str) -> dict[str, int]:
    r = RowReader(text, TOKEN_INDEX_FORMAT)
    index: dict[str, int] = {}
    while r.more:
        token, idx_s = r.fields("token row", 2)
        (idx,) = r.parse(int, idx_s)
        if idx != len(index) + 1 or token in index:
            raise r.error(f"expected a new token with id {len(index) + 1}")
        index[token] = idx
    return index


def cnn_from_text(text: str) -> ConvNetModel:
    r = RowReader(text, CNN_FORMAT)
    V, d, F, K, max_len = (
        r.meta_value(key, int) for key in ("vocab", "dim", "filters", "kernel", "max_len")
    )
    if min(V, d, F, K, max_len) < 1:
        raise DataError("header counts vocab, dim, filters, kernel and max_len must be positive")

    def read_matrix(name: str, shape: tuple[int, ...]) -> np.ndarray:
        expected = " ".join([name, *map(str, shape)])
        if r.fields(f"section {name!r}", sep=" ") != expected.split(" "):
            raise r.error(f"expected section header {expected!r}")
        if shape[0] > r.lines_left:
            raise r.error(f"{name} declares {shape[0]} rows, but the file has "
                          f"{r.lines_left} lines left")
        try:
            matrix = np.zeros((shape[0], math.prod(shape[1:])), dtype=np.float64)
        except (ValueError, MemoryError) as exc:
            raise r.error(f"{name} of shape {shape} is too large to hold") from exc
        for i in range(shape[0]):
            r.base64_floats(f"{name} row", matrix.shape[1], out=matrix[i])
        return matrix.reshape(shape)

    model = ConvNetModel(
        embedding=read_matrix("embedding", (V, d)),
        conv_weights=read_matrix("conv_weights", (F, K, d)),
        conv_bias=r.base64_floats("section", F, "conv_bias"),
        dense_weights=r.base64_floats("section", F, "dense_weights"),
        dense_bias=float(r.base64_floats("section", 1, "dense_bias")[0]),
        max_sequence_length=max_len,
    )
    r.end()
    return model
