"""Reference loaders: the vocabulary, Naive Bayes, token-index, CNN and GBT
readers as they read an artifact one line at a time, each line through
``RowReader.fields`` and ``parse`` and the per-row helpers below, checking a
row fully before the next. The loaders in ``src/`` read each body as
``Table``s, checked a column at a time or mapped a row at a time by one
function; ``test_loader_oracles.py`` holds them to these, object for object and
message for message.

The changes from the line-at-a-time loaders are the rules that a vocabulary
loader has gained since: no more feature rows than ``max_features``, checked
first in the row past it; a TF-IDF idf is finite and >= 1, checked last in its
row; a df is one ``fit`` keeps (``df / n_docs <= max_df``), checked after
``df >= 1``; ``ngram`` is exactly ``LO,HI``; and ``n_docs`` fits an int64. Each
is checked where ``vocabulary_from_text`` checks it.
"""

import base64
import math

import numpy as np

from satira.errors import DataError
from satira.fileio import ZERO_ROW, BodyReader
from satira.models.boosted_trees import (
    GBT_FORMAT,
    BoostConfig,
    BoostedTreesModel,
    RegressionTree,
    TreeNode,
    _finite,
)
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
    """``BodyReader`` with a line-at-a-time API built on ``table``: ``fields`` reads
    one line, and ``error`` names the line last read. The per-row float readers
    are the ones the table read replaced."""

    @property
    def more(self) -> bool:
        return self.lines_left > 0

    def error(self, message: str) -> DataError:
        # ``_next`` counts the lines read, so it is the 1-based number of the last
        return DataError(f"line {self._next}: {message}")

    def fields(self, what: str, count: int | None = None, sep: str = "\t") -> list[str]:
        """Next line split on ``sep``, optionally checked to hold ``count`` fields."""
        row = self.table(what, count, sep, rows=1)
        row.check()
        return row.rows[0]

    def parse(self, cast, *values) -> list:
        try:
            return list(map(cast, values))
        except ValueError as exc:
            raise self.error(str(exc)) from exc

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


def int_pair(text: str) -> tuple[int, int]:
    lo, hi = map(int, text.split(","))
    return lo, hi


def vocabulary_from_text(text: str) -> Vocabulary:
    r = RowReader(text, VOCABULARY_FORMAT)
    cfg = VectorizerConfig(
        weighting=r.meta_value("weighting", Weighting),
        analyzer=r.meta_value("analyzer", Analyzer),
        ngram_range=r.meta_value("ngram", int_pair),
        max_features=r.meta_value("max_features", int),
        max_df=r.meta_value("max_df", float),
    )
    n_docs = r.meta_count("n_docs", 1)
    if n_docs > np.iinfo(np.int64).max:
        raise DataError(f"header n_docs={n_docs} must be <= {np.iinfo(np.int64).max}")
    lo, hi = cfg.ngram_range
    tfidf = cfg.weighting is Weighting.TFIDF
    index: dict[str, int] = {}
    dfs: list[int] = []
    idfs: list[float] = []
    while r.more:
        feature, col_s, df_s, idf = r.fields("feature row", 4)
        if len(index) == cfg.max_features:
            raise r.error(f"more feature rows than max_features={cfg.max_features}")
        col, df = r.parse(int, col_s, df_s)
        if col != len(index) or feature in index:
            raise r.error(f"expected a new feature with column {len(index)}")
        if df < 1:
            raise r.error(f"df must be >= 1, got {df}")
        if not (df <= n_docs and float(df) / n_docs <= cfg.max_df):
            raise r.error(f"df {df} of {n_docs} documents exceeds max_df={cfg.max_df!r}")
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


def _node_from_fields(r: RowReader, node_id: int, n_nodes: int, n_features: int) -> TreeNode:
    parts = r.fields(f"node {node_id}")
    if parts[0] != str(node_id):
        raise r.error(f"expected node {node_id}, got {parts[0]!r}")
    if parts[1:2] == ["leaf"] and len(parts) == 3:
        (weight,) = r.parse(_finite, parts[2])
        return TreeNode(is_leaf=True, weight=weight)
    if parts[1:2] != ["split"] or len(parts) != 6:
        raise r.error("expected 'leaf <weight>' or 'split <feature> <threshold> <left> <right>'")
    feature, left, right = r.parse(int, parts[2], parts[4], parts[5])
    (threshold,) = r.parse(_finite, parts[3])
    if not 0 <= feature < n_features:
        raise r.error(f"feature {feature} is out of range")
    # children follow their parent, which also rules out cycles
    if not (node_id < left < n_nodes and node_id < right < n_nodes):
        raise r.error(f"child ids {left}, {right} must lie in ({node_id}, {n_nodes})")
    return TreeNode(is_leaf=False, feature=feature, threshold=threshold, left=left, right=right)


def gbt_from_text(text: str) -> BoostedTreesModel:
    r = RowReader(text, GBT_FORMAT)
    config = BoostConfig(
        n_rounds=r.meta_value("n_rounds", int),
        learning_rate=r.meta_value("learning_rate", float),
        max_depth=r.meta_value("max_depth", int),
        reg_lambda=r.meta_value("reg_lambda", float),
    )
    n_features = r.meta_count("n_features", 0)
    trees: list[RegressionTree] = []
    for i in range(config.n_rounds):
        header = r.fields(f"tree {i} header", sep=" ")
        if header[:2] != ["tree", str(i)] or len(header) != 3:
            raise r.error(f"expected header 'tree {i} <n_nodes>'")
        (n_nodes,) = r.parse(int, header[2])
        if n_nodes < 1:
            raise r.error(f"tree {i} has no nodes")
        nodes = [_node_from_fields(r, k, n_nodes, n_features) for k in range(n_nodes)]
        trees.append(RegressionTree(tuple(nodes)))
    r.end()
    return BoostedTreesModel(tuple(trees), r.meta_value("base_score", float), config, n_features)
