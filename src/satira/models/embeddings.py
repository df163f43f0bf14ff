"""Pretrained word-vector loading and token-id encoding for the convnet.

Embedding files are UTF-8 text: a ``<vocab_size> <dim>`` header line, then
``vocab_size`` non-blank lines, each a token and ``dim`` space-separated
finite floats in the grammar of ``float()``. The file is streamed a block
at a time (``fileio.parse_lines``), so a real-size one is never held whole:
a row is split only if its token is in the index, and each block's indexed
rows are parsed together. An indexed token may have one row; the rows of
other tokens are counted, not tracked. Token ids are 1-based; id 0 is the
shared padding/OOV slot whose embedding row stays all-zero. A token index
is saved as ``token<TAB>id`` lines in id order after its format-tag line;
its loader refuses any other line, a blank one too, by its line number.

``build_token_index`` and ``encode_corpus`` split each document's text
themselves and never read ``Document.tokens``, so the CNN path caches no
token tuple: at paper scale those tuples would hold more memory than the
ids they become.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from ..corpus_io import Document
from ..errors import DataError
from ..fileio import BodyReader, parse_file, parse_lines

TOKEN_INDEX_FORMAT = "satira-token-index v1"


def build_token_index(docs: Iterable[Document]) -> dict[str, int]:
    """Deterministic token -> id map (ids 1..n in codepoint order)."""
    vocab = sorted({t for doc in docs for t in doc.text.split()})
    return {token: i for i, token in enumerate(vocab, start=1)}


def token_index_to_text(index: dict[str, int]) -> str:
    rows = sorted(index.items(), key=lambda kv: kv[1])
    return f"# {TOKEN_INDEX_FORMAT}\n" + "".join(f"{tok}\t{idx}\n" for tok, idx in rows)


def _token_index_from_text(text: str) -> dict[str, int]:
    t = BodyReader(text, TOKEN_INDEX_FORMAT).table("token row", 2)
    tokens, ids = zip(*t.rows) if t.rows else ((), ())
    index = t.numbered(tokens, t.cast(int, ids), 1,
                       lambda i: f"expected a new token with id {i + 1}")
    t.check()
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
        tokens = doc.text.split(maxsplit=max_len)[:max_len]
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
    return parse_lines(path, lambda blocks: _embeddings_from_lines(blocks, token_index,
                                                                   expected_dim))


# the characters that np.loadtxt may parse a block of values from. Over them, it and
# float() both hand a field to CPython's PyOS_string_to_double and require it to read
# the whole field, so they accept the same values and give the same bits. Elsewhere
# their grammars differ: loadtxt accepts "1\x1c", which float() refuses, and refuses
# "1_000" and "\u0661", which float() accepts.
_LOADTXT_ALPHABET = b"0123456789.+-eE" b"infatyINFATY" b" \n"


def _fill_rows(matrix: np.ndarray, ids: list[int], values: list[str],
               linenos: list[int]) -> None:
    """``matrix[ids[i]]`` = the floats of ``values[i]``, read from line ``linenos[i]``."""
    if not ids or not matrix.shape[1]:  # a row of width 0 holds no values
        return
    if not "\n".join(values).encode().translate(None, _LOADTXT_ALPHABET):
        try:
            matrix[ids] = np.loadtxt(values, dtype=np.float64, delimiter=" ",
                                     comments=None, ndmin=2)
            return
        except ValueError:
            pass  # a malformed value: the rows below name its line
    # one row at a time, as float() reads each value: the only way to read values
    # outside the alphabet above, and the one that names the line of a bad value
    for idx, row, lineno in zip(ids, values, linenos):
        try:
            matrix[idx] = np.array(row.split(" "), dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"line {lineno}: malformed value: {exc}") from exc


def _embeddings_from_lines(
    blocks: Iterable[list[str]], token_index: dict[str, int], expected_dim: int
) -> tuple[np.ndarray, float]:
    blocks = iter(blocks)
    lines = next(blocks, None)
    if lines is None:
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
    lineno = 1
    for lines in chain([lines[1:]], blocks):
        # the indexed rows of this block, parsed together at its end
        ids: list[int] = []
        values: list[str] = []
        linenos: list[int] = []
        error = None
        for line in lines:
            lineno += 1
            line = line.rstrip()
            if not line:
                continue
            rows += 1
            if line.count(" ") != dim:
                error = DataError(f"line {lineno}: expected token plus {dim} values, "
                                  f"got {line.count(' ')}")
                break
            token, _, row = line.partition(" ")
            idx = token_index.get(token)
            if idx is None:
                continue
            if token in covered:
                error = DataError(f"line {lineno}: {token!r} already has a vector, "
                                  f"on line {covered[token]}")
                break
            covered[token] = lineno
            ids.append(idx)
            values.append(row)
            linenos.append(lineno)
        # the rows before an error are parsed first, so a malformed value is named
        # before a later line's error
        _fill_rows(matrix, ids, values, linenos)
        if error is not None:
            raise error
    finite = np.isfinite(matrix).all(axis=1)  # one pass: a check per row took 6% of the load
    if not finite.all():
        lineno = min(line for token, line in covered.items() if not finite[token_index[token]])
        raise DataError(f"line {lineno}: vector values must be finite")
    if rows != count:
        raise DataError(f"line 1: header declares {count} vectors, the file holds {rows}")
    coverage = 1.0 if not token_index else len(covered) / len(token_index)
    return matrix, coverage
