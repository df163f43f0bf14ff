"""Sparse document-term matrices: counts, TF-IDF, word and char n-grams.

Fitting keeps the ``max_features`` most frequent n-grams by total corpus
frequency (ties broken lexicographically) after dropping features whose
document-frequency ratio exceeds ``max_df``. TF-IDF uses the smoothed
inverse document frequency ln((1 + n) / (1 + df)) + 1 followed by L2 row
normalization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus_io import Document
from .errors import DataError
from .fileio import BodyReader, float_rows, parse_file

VOCABULARY_FORMAT = "satira-vocabulary v1"


class Weighting(Enum):
    COUNT = "count"
    TFIDF = "tfidf"


class Analyzer(Enum):
    WORD = "word"
    CHAR = "char"


@dataclass(frozen=True)
class VectorizerConfig:
    weighting: Weighting = Weighting.COUNT
    analyzer: Analyzer = Analyzer.WORD
    ngram_range: tuple[int, int] = (1, 1)
    max_features: int = 1500
    max_df: float = 0.7

    def __post_init__(self):
        lo, hi = self.ngram_range
        if not 1 <= lo <= hi:
            raise ValueError(f"ngram_range must satisfy 1 <= lo <= hi, got {self.ngram_range}")
        if self.max_features < 1:
            raise ValueError(f"max_features must be >= 1, got {self.max_features}")
        if not 0.0 < self.max_df <= 1.0:
            raise ValueError(f"max_df must be in (0, 1], got {self.max_df}")


def extract_features(doc: Document, cfg: VectorizerConfig) -> list[str]:
    """All analyzer n-grams of one document, in order of occurrence.

    WORD n-grams are space-joined token windows; CHAR n-grams slide over
    the document text itself, spaces included, so word boundaries stay
    visible to the model.
    """
    lo, hi = cfg.ngram_range
    feats: list[str] = []
    if cfg.analyzer is Analyzer.WORD:
        tokens = doc.tokens
        for n in range(lo, hi + 1):
            feats.extend(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    else:
        text = doc.text
        for n in range(lo, hi + 1):
            feats.extend(text[i : i + n] for i in range(len(text) - n + 1))
    return feats


@dataclass(frozen=True)
class Vocabulary:
    """Fitted feature space: feature -> column index plus df/idf statistics."""

    index: dict[str, int]
    document_frequency: np.ndarray
    idf: Optional[np.ndarray]
    n_docs_fitted: int
    config: VectorizerConfig

    def __post_init__(self):
        size = len(self.index)
        if sorted(self.index.values()) != list(range(size)):
            raise ValueError("column indices must be 0..size-1 without gaps")
        if len(self.document_frequency) != size:
            raise ValueError("document_frequency length must equal vocabulary size")
        if self.idf is not None and len(self.idf) != size:
            raise ValueError("idf length must equal vocabulary size")
        if size > self.config.max_features:
            raise ValueError(f"vocabulary size {size} exceeds max_features")
        if self.n_docs_fitted > 0 and any(
            df / self.n_docs_fitted > self.config.max_df
            for df in self.document_frequency
        ):
            raise ValueError("a retained feature violates the max_df bound")

    def __len__(self) -> int:
        return len(self.index)

    def feature_names(self) -> list[str]:
        names = [""] * len(self.index)
        for feature, col in self.index.items():
            names[col] = feature
        return names


@dataclass(frozen=True)
class DocTermMatrix:
    """CSR-style sparse matrix; values are counts or TF-IDF weights."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        for r in range(self.n_rows):
            cols, vals = self.row(r)
            dense[r, cols] = vals
        return dense

    def column_sums(self) -> np.ndarray:
        return np.bincount(self.indices, weights=self.values, minlength=self.n_cols)

    @property
    def nnz(self) -> int:
        return len(self.values)


def fit(docs: Sequence[Document], cfg: VectorizerConfig) -> Vocabulary:
    """Build the vocabulary from training documents.

    Pipeline: collect all analyzer n-grams, drop those occurring in more
    than ``max_df`` of the documents, keep the ``max_features`` most
    frequent by total corpus count (lexicographic tie-break), then index
    the survivors in codepoint order.
    """
    if len(docs) == 0:
        raise DataError("cannot fit a vectorizer on an empty corpus")
    total_freq: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        feats = extract_features(doc, cfg)
        total_freq.update(feats)
        doc_freq.update(set(feats))

    n_docs = len(docs)
    candidates = [f for f in total_freq if doc_freq[f] / n_docs <= cfg.max_df]
    if not candidates:
        raise DataError(
            "no features survive the max_df filter "
            f"(max_df={cfg.max_df}, n_docs={n_docs})"
        )
    candidates.sort(key=lambda f: (-total_freq[f], f))
    retained = sorted(candidates[: cfg.max_features])

    index = {feature: col for col, feature in enumerate(retained)}
    df = np.array([doc_freq[f] for f in retained], dtype=np.int64)
    idf = None
    if cfg.weighting is Weighting.TFIDF:
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    return Vocabulary(index, df, idf, n_docs, cfg)


def transform(docs: Sequence[Document], vocab: Vocabulary, cfg: VectorizerConfig) -> DocTermMatrix:
    """Map documents onto the fitted feature space.

    COUNT rows hold raw occurrence counts; TFIDF rows hold count * idf,
    L2-normalized (all-unknown documents stay zero rows). Features absent
    from the vocabulary are ignored.
    """
    fitted = vocab.config
    if (
        cfg.analyzer is not fitted.analyzer
        or cfg.ngram_range != fitted.ngram_range
        or cfg.weighting is not fitted.weighting
    ):
        raise DataError(
            "vectorizer config does not match the fitted vocabulary "
            f"(fit: {fitted.weighting.value}/{fitted.analyzer.value}/{fitted.ngram_range}, "
            f"transform: {cfg.weighting.value}/{cfg.analyzer.value}/{cfg.ngram_range})"
        )

    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for doc in docs:
        counts: Counter[int] = Counter()
        for feature in extract_features(doc, cfg):
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


def vocabulary_to_text(vocab: Vocabulary) -> str:
    """Human-readable serialization: header lines, then feature/index/df/idf."""
    cfg = vocab.config
    lines = [
        f"# {VOCABULARY_FORMAT}",
        f"# weighting={cfg.weighting.value} analyzer={cfg.analyzer.value} "
        f"ngram={cfg.ngram_range[0]},{cfg.ngram_range[1]} "
        f"max_features={cfg.max_features} max_df={cfg.max_df!r} "
        f"n_docs={vocab.n_docs_fitted}",
    ]
    names = vocab.feature_names()
    idfs = [""] * len(names) if vocab.idf is None else float_rows(vocab.idf[:, None])
    for col, (feature, idf) in enumerate(zip(names, idfs)):
        if "\t" in feature or "\n" in feature:
            raise DataError(f"feature {feature!r} contains tab/newline; cannot serialize")
        lines.append(f"{feature}\t{col}\t{int(vocab.document_frequency[col])}\t{idf}")
    return "".join(line + "\n" for line in lines)


def vocabulary_from_text(text: str) -> Vocabulary:
    """Inverse of ``vocabulary_to_text``; rows must hold columns 0, 1, ... in order."""
    r = BodyReader(text, VOCABULARY_FORMAT)
    weighting = r.meta_value("weighting", Weighting)
    settings = dict(
        weighting=weighting,
        analyzer=r.meta_value("analyzer", Analyzer),
        ngram_range=r.meta_value("ngram", lambda v: tuple(map(int, v.split(",")))),
        max_features=r.meta_value("max_features", int),
        max_df=r.meta_value("max_df", float),
    )
    n_docs = r.meta_value("n_docs", int)
    index: dict[str, int] = {}
    dfs: list[int] = []
    idfs: list[float] = []
    while r.more:
        feature, col_s, df_s, idf = r.fields("feature row", 4)
        col, df = r.parse(int, col_s, df_s)
        if col != len(index) or feature in index:
            raise r.error(f"expected a new feature with column {len(index)}")
        if (idf != "") != (weighting is Weighting.TFIDF):
            raise r.error("idf must be given exactly when weighting is tfidf")
        index[feature] = col
        dfs.append(df)
        idfs += r.parse(float, idf) if idf else []
    if not index:
        raise DataError("no feature rows")
    idf_arr = np.array(idfs, dtype=np.float64) if weighting is Weighting.TFIDF else None
    try:
        cfg = VectorizerConfig(**settings)
        return Vocabulary(index, np.array(dfs, dtype=np.int64), idf_arr, n_docs, cfg)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def save_vocabulary(vocab: Vocabulary, path) -> None:
    Path(path).write_text(vocabulary_to_text(vocab), encoding="utf-8")


def load_vocabulary(path) -> Vocabulary:
    return parse_file(path, vocabulary_from_text)
