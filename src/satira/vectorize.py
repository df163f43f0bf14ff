"""Sparse document-term matrices: counts, TF-IDF, word and char n-grams.

Fitting keeps the ``max_features`` most frequent n-grams by total corpus
frequency (ties broken lexicographically) after dropping features whose
document-frequency ratio exceeds ``max_df``. TF-IDF uses the smoothed
inverse document frequency ln((1 + n) / (1 + df)) + 1 followed by L2 row
normalization.

N-grams are counted as integer ids, not as substrings. A document is a
sequence of units: the characters of its text for CHAR, its tokens for
WORD. Units get dense ids (a character's is the rank of its codepoint, a
token's the order of its first appearance), and the units of all
documents are concatenated into one int32 array. The n-gram starting at
position i then gets its id level by level, as in prefix doubling for
suffix arrays (Manber & Myers 1993): the level-n id is the rank of the
pair ``id_{n-1}[i] * n_units + unit[i + n - 1]`` among the distinct pairs
of that level, and -1 marks an n-gram that would run past the end of its
document. Ids stay below the number of positions, so the pair key fits
in int64 for any ``ngram_range`` and any alphabet, and equal n-grams get
equal ids. Each level overwrites one int32 id array, and sorting and
counting run over blocks of whole documents of about ``BLOCK`` units, so
the state that grows with the corpus is the unit and id arrays, 8 bytes
per unit, and, while ``_Windows.advance`` builds a level, each block's
distinct pairs as int64, at most 8 bytes more per unit.

The distinct units are kept in a table by id, so an n-gram's string is
built from its position: its n units looked up in that table, joined by
single spaces for WORD and by nothing for CHAR.

N-grams are ranked without building their strings, by count descending and
then in codepoint order of the string, in one ``np.lexsort`` over one rank
per unit position (``_Windows.ranking``). A CHAR unit's id already is its
codepoint rank. A WORD token has two ranks in one codepoint ranking of every
``token + " "`` and every bare ``token``: an n-gram's last token takes the
bare rank and every other token the spaced one. Tokens hold no whitespace,
so the first position where two n-grams differ decides their order,
compared with the space that follows unless it is the last token; that is
the order of the joined strings, also across lengths (``"a" < "a b"``) and
where a token is a prefix of another whose next character sorts below the
space (``"a\x01 c" < "a b"``). A position past an n-gram's end ranks -1, so
an n-gram that is a prefix of another sorts first. ``fit`` counts totals
and document frequencies per id, ranks the candidates and decodes back to
strings only the ``max_features`` n-grams it keeps; ``preprocess`` ranks
its n-gram frequency dictionaries with the same method.

``transform`` appends the vocabulary's features to the documents as
extra sequences, so both share one id space, then maps ids to columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus_io import Document
from .errors import DataError
from .fileio import BodyReader, float_rows, parse_file

VOCABULARY_FORMAT = "satira-vocabulary v1"
BLOCK = 1 << 16  # units per sorting block; a block holds whole sequences


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
        dense[np.repeat(np.arange(self.n_rows), np.diff(self.indptr)), self.indices] = self.values
        return dense

    def column_sums(self) -> np.ndarray:
        return np.bincount(self.indices, weights=self.values, minlength=self.n_cols)

    @property
    def nnz(self) -> int:
        return len(self.values)


def _unit_sequences(docs: Sequence[Document], analyzer: Analyzer) -> list:
    """Each document's units: its characters for CHAR, its tokens for WORD."""
    return [doc.text if analyzer is Analyzer.CHAR else doc.tokens for doc in docs]


def _unit_ids(seqs: Sequence[Sequence[str]], analyzer: Analyzer) -> tuple[np.ndarray, list[str]]:
    """Dense int32 ids of the units of the concatenated sequences, and the distinct units by id."""
    if analyzer is Analyzer.CHAR:
        # a character's id is the rank of its codepoint among those present
        points = np.frombuffer("".join(seqs).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        present = np.zeros(int(points.max(initial=0)) + 1, dtype=bool)
        present[points] = True
        table = list(map(chr, np.flatnonzero(present).tolist()))
        return (np.cumsum(present, dtype=np.int32) - 1)[points], table
    index = {unit: i for i, unit in enumerate(dict.fromkeys(chain.from_iterable(seqs)))}
    ids = map(index.__getitem__, chain.from_iterable(seqs))
    return np.fromiter(ids, dtype=np.int32, count=sum(map(len, seqs))), list(index)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys: ``np.unique`` without its hash table, which is
    slower on these int64 keys than one sort."""
    ordered = np.sort(keys)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def _cut(totals: np.ndarray, k: int) -> int:
    """The smallest total among the ``k`` largest (0 when there are no more than ``k``)."""
    if len(totals) <= k:
        return 0
    return int(np.partition(totals, len(totals) - k)[len(totals) - k])


class _Windows:
    """Dense ids of the n-unit windows of some unit sequences, one level n at a time.

    At level n, ``ids[i]`` is the id of the window of n units that starts
    at position ``i`` of the concatenated sequences, or -1 where that
    window would run past the end of its sequence. Equal windows have
    equal ids, and the ids of a level are ``0 .. n_ids - 1``. ``fit``,
    ``transform`` and ``preprocess.ngram_frequency`` all count with it, and
    ``fit`` and ``ngram_frequency`` rank with it.
    """

    def __init__(self, seqs: Sequence[Sequence[str]], analyzer: Analyzer):
        self.analyzer = analyzer
        self.units, table = _unit_ids(seqs, analyzer)
        self.n_units = len(table)
        self.table = np.array(table, dtype=object)  # the distinct units by id
        self.ids = self.units.copy()
        self.n_ids = self.n_units
        self.lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        self.starts = np.concatenate(([0], np.cumsum(self.lens)))
        # blocks of whole sequences: a new one at the sequence holding each multiple of BLOCK
        size = len(self.units)
        first = np.searchsorted(self.starts, np.arange(0, size, BLOCK), side="right") - 1
        bounds = np.unique(np.append(self.starts[first], size)).tolist()
        self.blocks = list(zip(bounds[:-1], bounds[1:]))

    def levels(self, hi: int):
        """Advance from level 1 to level ``hi``, yielding each level n."""
        for n in range(1, hi + 1):
            if n > 1:
                self.advance(n)
            yield n

    def sequence_of(self, pos: np.ndarray) -> np.ndarray:
        """The index of the sequence holding each position."""
        return np.searchsorted(self.starts, pos, side="right") - 1

    def advance(self, n: int) -> None:
        """Move from level n - 1 to level n: window (i, n) gets the rank of the pair
        (id of window (i, n - 1), unit i + n - 1) among the level's distinct pairs."""
        ids, units = self.ids, self.units
        # the last window of level n - 1 in each sequence has no unit left to take
        ids[self.starts[1:][self.lens >= n - 1] - (n - 1)] = -1
        # so the windows left are those of level n; each first takes its pair's rank
        # among its block's distinct pairs, held in ids until the level is done
        local = []
        for pos, head in self.windows():
            keys = head.astype(np.int64) * self.n_units + units[pos + n - 1]
            pairs, ids[pos] = np.unique(keys, return_inverse=True)
            local.append(pairs)
        distinct = _distinct(np.concatenate([np.empty(0, dtype=np.int64), *local]))
        for (pos, ranks), pairs in zip(self.windows(), local):
            ids[pos] = np.searchsorted(distinct, pairs)[ranks]
        self.n_ids = len(distinct)

    def keep(self, kept_ids: np.ndarray) -> None:
        """Drop every window of this level whose id is not in ``kept_ids``:
        it and the longer windows at its position get -1."""
        kept = np.zeros(self.n_ids + 1, dtype=bool)  # the extra last entry is for id -1
        kept[kept_ids] = True
        self.ids[~kept[self.ids]] = -1

    def windows(self):
        """Per block: the positions of the current level's windows, and their ids."""
        for s, e in self.blocks:
            pos = np.flatnonzero(self.ids[s:e] >= 0) + s
            yield pos, self.ids[pos]

    def count(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per id of the current level: a position where it occurs, its total
        count and the number of sequences it occurs in."""
        where = np.zeros(self.n_ids, dtype=np.int64)
        totals = np.zeros(self.n_ids, dtype=np.int64)
        dfs = np.zeros(self.n_ids, dtype=np.int64)
        for pos, ids in self.windows():
            where[ids] = pos
            seq_ids, counts = np.unique(self.sequence_of(pos) * self.n_ids + ids, return_counts=True)
            window = seq_ids % self.n_ids
            np.add.at(totals, window, counts)
            np.add.at(dfs, window, 1)
        return where, totals, dfs

    def names(self, where: np.ndarray, length) -> list[str]:
        """The window of ``length`` units (one length for all, or one per position)
        at each position in ``where``: its units from the table, joined by single
        spaces for WORD and by nothing for CHAR."""
        sep = "" if self.analyzer is Analyzer.CHAR else " "
        lengths = np.broadcast_to(length, np.shape(where))
        names = np.empty(len(where), dtype=object)
        for n in np.unique(lengths).tolist():
            at = np.flatnonzero(lengths == n)
            units = (self.table[self.units[where[at] + k]].tolist() for k in range(n))
            names[at] = list(map(sep.join, zip(*units)))
        return names.tolist()

    @cached_property
    def _unit_ranks(self) -> np.ndarray:
        """Each unit's rank inside a name, then each unit's rank as a name's last
        unit, both by ``id``: for CHAR its id twice, for WORD its rank in one
        codepoint ranking of every ``token + " "`` and every bare ``token``."""
        if self.analyzer is Analyzer.CHAR:
            return np.tile(np.arange(self.n_units, dtype=np.int64), 2)
        tokens = self.table.tolist()
        strings = [token + " " for token in tokens] + tokens  # all distinct
        # Python's sort, because numpy's fixed-width strings drop trailing NULs
        ranks = np.empty(len(strings), dtype=np.int64)
        ranks[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
        return ranks

    def ranking(self, where: np.ndarray, length, totals: np.ndarray) -> np.ndarray:
        """The permutation that orders the windows of ``length`` units (one length
        for all, or one per window) at ``where`` by ``totals`` descending, then
        by their names in codepoint order, as the module docstring says."""
        lengths = np.broadcast_to(length, np.shape(where))
        keys = []
        for k in range(int(lengths.max(initial=0))):
            inside = k < lengths
            units = self.units[np.where(inside, where + k, 0)]
            last = (k == lengths - 1) * self.n_units
            keys.append(np.where(inside, self._unit_ranks[units + last], -1))
        # lexsort's last key is its first: the total, then unit positions 0, 1, ...
        return np.lexsort((*reversed(keys), -totals))


def fit(docs: Sequence[Document], cfg: VectorizerConfig) -> Vocabulary:
    """Build the vocabulary from training documents.

    Pipeline: collect all analyzer n-grams, drop those occurring in more
    than ``max_df`` of the documents, keep the ``max_features`` most
    frequent by total corpus count (lexicographic tie-break), then index
    the survivors in codepoint order.
    """
    if len(docs) == 0:
        raise DataError("cannot fit a vectorizer on an empty corpus")
    n_docs = len(docs)
    lo, hi = cfg.ngram_range
    win = _Windows(_unit_sequences(docs, cfg.analyzer), cfg.analyzer)
    # per level, per candidate: length in units, a position where it occurs, total count, df
    per_level = []
    for n in win.levels(hi):
        if n < lo:
            continue
        where, totals, dfs = win.count()
        keep = np.flatnonzero(dfs / n_docs <= cfg.max_df)
        # a feature outnumbered by max_features others of its own length is never kept
        keep = keep[totals[keep] >= _cut(totals[keep], cfg.max_features)]
        per_level.append((np.full(len(keep), n), where[keep], totals[keep], dfs[keep]))
    length, where, total, doc_freq = (np.concatenate(c) for c in zip(*per_level))
    if len(total) == 0:
        raise DataError(
            "no features survive the max_df filter "
            f"(max_df={cfg.max_df}, n_docs={n_docs})"
        )

    # decode only the features kept
    kept = win.ranking(where, length, total)[: cfg.max_features]
    chosen = dict(zip(win.names(where[kept], length[kept]), kept.tolist()))
    retained = sorted(chosen)

    index = {feature: col for col, feature in enumerate(retained)}
    df = doc_freq[[chosen[f] for f in retained]]
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
    n_rows, n_cols = len(docs), len(vocab)
    lo, hi = cfg.ngram_range
    names = vocab.feature_names()
    features = names if cfg.analyzer is Analyzer.CHAR else [f.split(" ") for f in names]
    # the features ride along as extra sequences, so they get the documents' window ids
    win = _Windows(_unit_sequences(docs, cfg.analyzer) + features, cfg.analyzer)
    doc_end = win.starts[n_rows]
    feature_starts, feature_lens = win.starts[n_rows:-1], win.lens[n_rows:]
    keys, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for n in win.levels(hi):
        # a window that no feature starts with grows into none, so later levels skip it
        win.keep(win.ids[feature_starts[feature_lens >= n]])
        cols = np.flatnonzero(feature_lens == n)
        if n < lo or len(cols) == 0:
            continue
        col_of = np.full(win.n_ids, -1, dtype=np.int64)
        col_of[win.ids[feature_starts[cols]]] = cols
        for pos, ids in win.windows():
            hit = (col_of[ids] >= 0) & (pos < doc_end)
            key = win.sequence_of(pos[hit]) * n_cols + col_of[ids[hit]]
            k, c = np.unique(key, return_counts=True)
            keys.append(k)
            counts.append(c)
    keys, counts = np.concatenate(keys), np.concatenate(counts)
    order = np.argsort(keys)
    rows, indices = np.divmod(keys[order], n_cols)  # keys is empty when n_cols is 0
    values = counts[order].astype(np.float64)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    if cfg.weighting is Weighting.TFIDF:
        values *= vocab.idf[indices]
        # one np.linalg.norm per row, the summation order the weights have always had
        for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
            norm = np.linalg.norm(values[a:b])
            if norm > 0:
                values[a:b] /= norm
    return DocTermMatrix(n_rows, n_cols, indptr, indices, values)


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
    """Inverse of ``vocabulary_to_text``; rows must hold columns 0, 1, ... in order,
    each a feature that the header's analyzer and ngram range can produce."""
    r = BodyReader(text, VOCABULARY_FORMAT)
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
            # a word n-gram is n whitespace-free tokens joined by single spaces
            tokens = feature.split(" ")
            n, producible = len(tokens), feature.split() == tokens
        if not (producible and lo <= n <= hi):
            raise r.error(
                f"feature {feature!r} is not a {cfg.analyzer.value} n-gram with {lo} <= n <= {hi}"
            )
        index[feature] = col
        dfs.append(df)
        idfs += r.parse(float, idf) if idf else []
    if not index:
        raise DataError("no feature rows")
    idf_arr = np.array(idfs, dtype=np.float64) if tfidf else None
    return Vocabulary(index, np.array(dfs, dtype=np.int64), idf_arr, n_docs, cfg)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    Path(path).write_text(vocabulary_to_text(vocab), encoding="utf-8")


def load_vocabulary(path) -> Vocabulary:
    return parse_file(path, vocabulary_from_text)
