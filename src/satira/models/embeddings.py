"""Pretrained word-vector loading and token-id encoding for the convnet.

Embedding files are UTF-8 text: a ``<vocab_size> <dim>`` header line, then
one line per token holding the token and ``dim`` space-separated floats.
Token ids are 1-based; id 0 is the shared padding/OOV slot whose embedding
row stays all-zero. A token index is saved as ``token<TAB>id`` lines in id
order under a format-tag line.
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


def encode_tokens(tokens: Sequence[str], index: dict[str, int], max_len: int) -> np.ndarray:
    """Pad with id 0 on the right, truncate the tail beyond max_len."""
    ids = np.zeros(max_len, dtype=np.int64)
    for i, token in enumerate(tokens[:max_len]):
        ids[i] = index.get(token, 0)
    return ids


def encode_corpus(docs: Sequence[Document], index: dict[str, int], max_len: int) -> np.ndarray:
    """(len(docs), max_len) int64 ids; an empty corpus gives zero rows."""
    rows = [encode_tokens(doc.tokens, index, max_len) for doc in docs]
    return np.array(rows, dtype=np.int64).reshape(len(rows), max_len)


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
        _, dim = map(int, lines[0].split())
    except ValueError as exc:
        raise DataError(f"line 1: header must be '<vocab_size> <dim>': {exc}") from exc
    if dim != expected_dim:
        raise DataError(
            f"line 1: embedding dimension {dim} does not match expected {expected_dim}"
        )

    matrix = np.zeros((len(token_index) + 1, dim), dtype=np.float64)
    covered: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
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
        covered.add(token)
    coverage = 1.0 if not token_index else len(covered) / len(token_index)
    return matrix, coverage
