"""Sparse document-term matrices: counts, TF-IDF, word and char n-grams.

Fitting keeps the ``max_features`` most frequent n-grams by total corpus
frequency (ties broken lexicographically) after dropping features whose
document-frequency ratio exceeds ``max_df``. TF-IDF uses the smoothed
inverse document frequency ln((1 + n) / (1 + df)) + 1 followed by L2 row
normalization.

``fit`` and ``preprocess`` count n-grams as integer ids, not as substrings
(``_Windows``). A document is a sequence of units: the characters of its
text for CHAR, its tokens for WORD. Units get dense ids (a character's is
the rank of its codepoint, a token's the order of its first appearance),
and the units of all documents are concatenated into one int32 array. The n-gram starting at
position i then gets its id level by level, as in prefix doubling for
suffix arrays (Manber & Myers 1993): the level-n id is the rank of the
pair ``id_{n-1}[i] * n_units + unit[i + n - 1]`` among the distinct pairs
of that level, and -1 marks an n-gram that would run past the end of its
document. Ids stay below the number of positions, so the pair key fits
in int64 for any ``ngram_range`` and any alphabet, and equal n-grams get
equal ids. A level whose pair space ``n_ids * n_units`` holds at most
``TABLE_PER_UNIT`` keys per unit (CHAR, in practice) ranks its pairs with
no sort, as Manber & Myers rank a doubling step with a bucket pass: it
marks each present pair in one int32 table over that space, and the
running count of marks up to a pair, less one, is its rank. Any other
level (WORD, in practice) sorts each block's pairs, then the blocks'
distinct pairs. Each level overwrites one int32 id array, and pair keys,
sorting and counting run over blocks of whole documents of about
``BLOCK`` units, so the state that grows with the corpus is the unit and
id arrays, 8 bytes per unit, and, while ``_Windows.advance`` builds a
level, either the table, at most 8 bytes more per unit, or each block's
distinct pairs as int64, also at most 8 bytes more per unit, which the
merge into the level's sorted distinct pairs copies once, sorts in place
and masks: about 25 bytes per unit at its peak, where almost every pair is
distinct. The WORD ids of a ``LabeledCorpus`` that ``preprocess`` counts are
its ``token_ids``, which ``_Windows`` shares as its unit array and unit table,
so these live as long as the corpus: 4 bytes per token and 8 per distinct
token, about 8.5 MB at paper scale. Word ids, here, in ``_Trie`` and in the
corpus, come from one function, ``corpus_io._word_ids``.

The distinct units are kept in a table by id, so an n-gram's string is
built from its position: its n units looked up in that table, joined by
single spaces for WORD and by nothing for CHAR.

N-grams are ranked without building their strings, by count descending and
then in codepoint order of the string, in one ``np.lexsort`` over one rank
per unit position (``_Windows.ranking``). A CHAR unit ranks by its id, which
is its codepoint rank. A WORD token has two ranks in one codepoint ranking of
the ``token + " "`` and bare ``token`` strings: an n-gram's last token takes
the bare rank and every other token the spaced one. Tokens hold no
whitespace, so the first position where two n-grams differ decides their
order, compared with the space that follows unless it is the last token; that
is the order of the joined strings, also across lengths (``"a" < "a b"``) and
where a token is a prefix of another whose next character sorts below the
space (``"a\x01 c" < "a b"``). A position past an n-gram's end ranks 0, below
every unit, so an n-gram that is a prefix of another sorts first. The count
and the position ranks are folded into as few uint64 keys as hold them,
``key * R + rank`` for the R rank values of a position: 0 and one per unit
string that occurs there. With fewer than 2**31 units any two fit in one.
The folding goes one position at a time, in place, building that position's
codes again, so a ranking holds its keys and one position's codes, whatever n.

A ranking is computed only for the n-grams read. Asked for the first k, it
ranks only those counted at least as often as the k-th most frequent, which
holds every n-gram tied with it, and it ranks only the tokens that occur in
them. ``fit`` counts totals and document frequencies per id, ranks its first
``max_features`` candidates and decodes back to strings only those;
``preprocess`` ranks its n-gram frequency dictionaries with the same method
when they are read.

``transform`` only has to find the vocabulary's features in the documents,
a fixed-dictionary matching problem (Aho & Corasick 1975), so it ranks no
window of the documents: it walks the prefix trie of the features
(``_Trie``). The units that the features hold get ids from ``_unit_ids``,
as in ``_Windows`` but over the features' units alone, and every other unit,
and one separator after each document, one "none" id, so no window runs past
its document. Level by level, each position whose window so far is a
feature's prefix steps to the node of its window one unit longer, through a
dense table or a sorted-key search, and each position whose window is a
feature counts for that feature's column. Blocks of whole documents of about
``BLOCK`` units are walked in document order, and each gives its distinct
``document * n_cols + column`` keys, sorted, with their counts, so the
concatenated keys need no sort. The units of one block are built at a time,
so no array grows with the corpus's units. ``transform`` holds at most 24
bytes per nonzero while it assembles the matrix, and while it walks, 16 bytes
per nonzero found so far and one block's work: under 32 bytes per unit of
the block and 24 per match in it, a feature found at a position, at most one
per unit and level. Beside these it holds 8 bytes per document and the trie,
whose dense step tables take at most ``TABLE_PER_UNIT`` int32 entries per
unit each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus_io import Document, _word_ids
from .errors import DataError
from .fileio import BodyReader, float_rows, parse_file

VOCABULARY_FORMAT = "satira-vocabulary v1"
BLOCK = 1 << 16  # units per sorting block; a block holds whole sequences
UNIT_LIMIT = 1 << 31  # the sequences hold fewer units: int32 ids, uint64 rank keys
KEY_SPAN = 1 << 64  # values a folded rank key can take: uint64
TABLE_PER_UNIT = 2  # entries per unit a level's dense table may take: ranks, or trie steps


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
        if self.n_docs_fitted > 0 and (
            self.document_frequency / self.n_docs_fitted > self.config.max_df
        ).any():
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
    return _word_ids(seqs)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys, sorted in place and kept through one mask: ``np.unique``
    without its hash table, which is slower on these int64 keys than one sort."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _cut(totals: np.ndarray, k: int) -> int:
    """The smallest total among the ``k`` largest (0 when there are no more than ``k``)."""
    if len(totals) <= k:
        return 0
    return int(np.partition(totals, len(totals) - k)[len(totals) - k])


def _block_bounds(starts: np.ndarray) -> list[int]:
    """Given where each sequence starts, then the end of the last: the sequences
    that start blocks of whole sequences, a new one at the sequence holding each
    multiple of ``BLOCK`` units, then the number of sequences."""
    first = np.searchsorted(starts, np.arange(0, starts[-1], BLOCK), side="right") - 1
    return np.unique(np.append(first, len(starts) - 1)).tolist()


class _Windows:
    """Dense ids of the n-unit windows of some unit sequences, one level n at a time.

    At level n, ``ids[i]`` is the id of the window of n units that starts
    at position ``i`` of the concatenated sequences, or -1 where that
    window would run past the end of its sequence. Equal windows have
    equal ids, and the ids of a level are ``0 .. n_ids - 1``. ``fit`` and
    ``preprocess.ngram_frequency`` count and rank with it.
    """

    def __init__(self, seqs: Sequence[Sequence[str]], analyzer: Analyzer,
                 units: Optional[tuple[np.ndarray, np.ndarray]] = None):
        self.lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        size = int(self.lens.sum())
        if size >= UNIT_LIMIT:
            raise DataError(
                f"the documents hold {size} {analyzer.value} units; "
                f"n-gram ids are counted for fewer than {UNIT_LIMIT}"
            )
        self.analyzer = analyzer
        # given ``units``, the ``_unit_ids`` of ``seqs`` with the table as an object
        # array, both are shared, never written
        self.units, table = _unit_ids(seqs, analyzer) if units is None else units
        self.n_units = len(table)
        self.table = np.asarray(table, dtype=object)  # the distinct units by id
        self.ids = self.units.copy()
        self.n_ids = self.n_units
        self.starts = np.concatenate(([0], np.cumsum(self.lens)))
        bounds = self.starts[_block_bounds(self.starts)].tolist()
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
        (id of window (i, n - 1), unit i + n - 1) among the level's distinct pairs.

        A level whose pair space ``n_ids * n_units`` holds at most ``TABLE_PER_UNIT``
        keys per unit (CHAR, in practice) marks each present pair in one int32 table
        over that space, 8 bytes per unit at most, and a running count turns the
        marks into ranks, with no sort. Any other level sorts each block's pairs,
        keeps each block's distinct pairs (int64, at most 8 bytes per unit) and
        merges them, which copies them once (about 25 bytes per unit at the peak)."""
        ids = self.ids
        # the last window of level n - 1 in each sequence has no unit left to take
        ids[self.starts[1:][self.lens >= n - 1] - (n - 1)] = -1
        span = self.n_ids * self.n_units
        if span <= TABLE_PER_UNIT * len(ids):
            # a pair's rank is the number of distinct pairs up to it, less one
            table = np.zeros(span, dtype=np.int32)
            for _, keys in self._pairs(n):
                table[keys] = 1
            np.cumsum(table, out=table)
            self.n_ids = int(table[-1]) if span else 0
            table -= 1
            for pos, keys in self._pairs(n):
                ids[pos] = table[keys]
            return
        # each window first takes its pair's rank among its block's distinct pairs,
        # held in ids until the level is done
        local = []
        for pos, keys in self._pairs(n):
            pairs, ids[pos] = np.unique(keys, return_inverse=True)
            local.append(pairs)
        distinct = _distinct(np.concatenate([np.empty(0, dtype=np.int64), *local]))
        for (pos, ranks), pairs in zip(self.windows(), local):
            ids[pos] = np.searchsorted(distinct, pairs)[ranks]
        self.n_ids = len(distinct)

    def _pairs(self, n: int):
        """Per block, once the windows of level n are left: their positions, and
        the int64 key ``id_{n-1} * n_units + unit`` of each one's pair."""
        for pos, head in self.windows():
            yield pos, head.astype(np.int64) * self.n_units + self.units[pos + n - 1]

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

    def _codes(self, where: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
        """Each window's code at its unit position ``k``: its unit's id there, plus
        ``n_units`` for a WORD window's last token, and ``2 * n_units`` past its end."""
        # clipped, so no int64 ``where + k`` is built; a clipped code is past the end
        code = np.take(self.units[k:], where, mode="clip").astype(np.intp)
        code[lengths <= k] = 2 * self.n_units
        if self.analyzer is Analyzer.WORD:
            code[lengths == k + 1] += self.n_units
        return code

    def _codepoint_order(self, present: np.ndarray) -> np.ndarray:
        """The codes where ``present`` is true, in codepoint order of their
        strings: for CHAR a code is a unit's id, its codepoint rank; for WORD it
        is a token's id for ``token + " "``, and ``n_units`` more for the bare
        token."""
        codes = np.flatnonzero(present)
        if self.analyzer is Analyzer.CHAR:
            return codes
        # Python's sort, because numpy's fixed-width strings drop trailing NULs
        n = self.n_units
        spaced, bare = codes[codes < n], codes[codes >= n] - n
        strings = [t + " " for t in self.table[spaced].tolist()] + self.table[bare].tolist()
        return codes[sorted(range(len(strings)), key=strings.__getitem__)]

    def ranking(self, where: np.ndarray, length, totals: np.ndarray,
                k: Optional[int] = None) -> np.ndarray:
        """The first ``k`` (by default all) entries of the permutation that orders
        the windows of ``length`` units (one length for all, or one per window) at
        ``where`` by ``totals`` descending, then by their names in codepoint
        order, as the module docstring says.

        Only the windows whose total reaches the ``k``-th largest are ranked.
        Every window tied at that total is among them, so their first ``k`` are
        the first ``k`` of all."""
        lengths = np.broadcast_to(length, np.shape(where))
        chosen = None
        if k is not None and k < len(totals):
            if k == 0:
                return np.empty(0, dtype=np.intp)
            chosen = np.flatnonzero(totals >= _cut(totals, k))
            where, lengths, totals = where[chosen], lengths[chosen], totals[chosen]
        # each position ranks only the codes that occur there, in one codepoint order
        # of just those strings; a smaller R per position folds more positions into
        # one key: 1.76 M trigrams over 131 k tokens take one, not two
        n, positions = self.n_units, range(int(lengths.max(initial=0)))
        seen = np.zeros((len(positions), 2 * n + 1), dtype=bool)
        for p in positions:
            seen[p, self._codes(where, lengths, p)] = True
        ranked = self._codepoint_order(seen[:, : 2 * n].any(axis=0))
        # the count key, then each position's rank folded into it in place (key * R +
        # rank) while its values stay below KEY_SPAN, its codes built again, so one
        # position's are alive at a time; UNIT_LIMIT keeps the count's span and each
        # R below 2**32, so any two fold into one key
        top = int(totals.max(initial=0))
        key, span = (top - totals).astype(np.uint64), top - int(totals.min(initial=top)) + 1
        keys, rank = [], np.zeros(2 * n + 1, dtype=np.uint32)  # past the end ranks 0
        for p in positions:
            here = ranked[seen[p, ranked]]
            rank[here] = np.arange(1, len(here) + 1, dtype=np.uint32)
            size = len(here) + 1
            if span * size > KEY_SPAN:
                keys.append(key)
                key, span = np.zeros(len(where), dtype=np.uint64), 1
            key *= np.uint64(size)
            key += rank[self._codes(where, lengths, p)]
            span *= size
        # lexsort's last key is its first
        order = np.lexsort([key, *reversed(keys)])
        return order if chosen is None else chosen[order[:k]]


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
    kept = win.ranking(where, length, total, cfg.max_features)
    chosen = dict(zip(win.names(where[kept], length[kept]), kept.tolist()))
    retained = sorted(chosen)

    index = {feature: col for col, feature in enumerate(retained)}
    df = doc_freq[[chosen[f] for f in retained]]
    idf = None
    if cfg.weighting is Weighting.TFIDF:
        idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    return Vocabulary(index, df, idf, n_docs, cfg)


class _Trie:
    """The prefix trie of a vocabulary's features, one level per prefix length n.

    The units that the features hold get ids ``0 .. n_units - 1`` from
    ``_unit_ids``, and every other unit the "none" id ``n_units``, which no
    feature holds. A level-n node is a distinct n-unit prefix of a feature.
    Its id is the rank of its pair key ``parent * (n_units + 1) + unit`` (its
    level-(n - 1) prefix's node, the root 0 at level 1, and its last unit) among
    the level's pair keys. A level's step maps a pair key to its node, or to -1
    where no feature has that prefix. It is a dense int32 table over the pair
    keys when that table holds at most ``TABLE_PER_UNIT`` entries per position
    walked, the rule of ``_Windows.advance``, else the sorted pair keys, read by
    ``np.searchsorted``.
    ``columns[n - 1]`` gives each level-n node its feature's column, or -1 for a
    prefix that is no feature; it is None at a level that ends no feature.
    """

    def __init__(self, names: Sequence[str], analyzer: Analyzer, positions: int):
        self.analyzer = analyzer
        seqs = names if analyzer is Analyzer.CHAR else [f.split(" ") for f in names]
        ids, table = _unit_ids(seqs, analyzer)
        self.n_units = len(table)
        if analyzer is Analyzer.CHAR:
            # by codepoint, up to one past the largest held, so a clipped lookup of
            # any larger one is "none" too
            held = np.fromiter(map(ord, table), dtype=np.int64, count=self.n_units)
            self.index = np.full(int(held.max(initial=0)) + 2, self.n_units, dtype=np.int32)
            self.index[held] = np.arange(self.n_units, dtype=np.int32)
        else:
            self.index = dict(zip(table, range(self.n_units)))
        lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        first = np.cumsum(lengths) - lengths  # where each feature's units start in ids
        self.span = self.n_units + 1
        self.steps, self.columns = [], []
        node, nodes = np.zeros(len(names), dtype=np.int64), 1
        for n in range(1, int(lengths.max(initial=0)) + 1):
            at = np.flatnonzero(lengths >= n)
            pairs, node[at] = np.unique(node[at] * self.span + ids[first[at] + n - 1],
                                        return_inverse=True)
            if nodes * self.span <= TABLE_PER_UNIT * positions:
                step = np.full(nodes * self.span, -1, dtype=np.int32)
                step[pairs] = np.arange(len(pairs), dtype=np.int32)
            else:
                step = pairs
            self.steps.append(step)
            ends = at[lengths[at] == n]
            columns = None
            if len(ends):
                columns = np.full(len(pairs), -1, dtype=np.int64)
                columns[node[ends]] = ends
            self.columns.append(columns)
            nodes = len(pairs)

    def units(self, seqs: Sequence[Sequence[str]], ends: np.ndarray) -> np.ndarray:
        """The unit ids of ``seqs``, as int32, with a "none" separator after each,
        at the positions ``ends``."""
        if self.analyzer is Analyzer.CHAR:
            text = "\0".join([*seqs, ""])
            units = np.take(self.index, np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                                                      dtype=np.uint32), mode="clip")
            units[ends] = self.n_units  # a feature may hold the separator's character
            return units
        tokens = chain.from_iterable(chain(seq, (None,)) for seq in seqs)  # None is no token
        return np.fromiter(map(self.index.get, tokens, repeat(self.n_units)), dtype=np.int32,
                           count=int(ends[-1]) + 1)

    def step(self, n: int, keys: np.ndarray) -> np.ndarray:
        """The level-n node of each pair key, or -1."""
        step = self.steps[n - 1]
        if step.dtype == np.int32:
            return step[keys]
        at = np.searchsorted(step, keys)
        return np.where(np.take(step, at, mode="clip") == keys, at, -1)

    def matches(self, units: np.ndarray):
        """Per level that ends a feature: the positions in ``units`` where one of
        that level's features starts, and its column. Each level reads only the
        positions whose window so far is a feature's prefix, and a window that
        reaches a "none" unit, such as a separator, is no prefix."""
        for n in range(1, len(self.steps) + 1):
            if n == 1:
                node = self.step(1, units)
                pos = np.flatnonzero(node >= 0)
                node = node[pos]
            else:
                node = self.step(n, node.astype(np.int64) * self.span + units[pos + n - 1])
                live = np.flatnonzero(node >= 0)
                pos, node = pos[live], node[live]
            if self.columns[n - 1] is not None:
                col = self.columns[n - 1][node]
                hit = np.flatnonzero(col >= 0)
                yield pos[hit], col[hit]


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
    seqs = _unit_sequences(docs, cfg.analyzer)
    # where each document starts among the units and separators, then the end
    starts = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, seqs), dtype=np.int64, count=n_rows) + 1, out=starts[1:])
    trie = _Trie(vocab.feature_names(), cfg.analyzer, int(starts[-1]))
    bounds = _block_bounds(starts)
    keys, values = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.float64)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        doc_starts = starts[a : b + 1] - starts[a]
        found = [np.empty(0, dtype=np.int64)]
        for pos, col in trie.matches(trie.units(seqs[a:b], doc_starts[1:] - 1)):
            doc = np.searchsorted(doc_starts, pos, side="right") - 1 + a
            found.append(doc * n_cols + col)
        k, c = np.unique(np.concatenate(found), return_counts=True)
        keys.append(k)
        values.append(c.astype(np.float64))
    # the blocks come in document order, so their keys concatenate sorted; one
    # concatenation at a time, so assembling the matrix holds at most 24 bytes per
    # nonzero before any TF-IDF weighting
    keys = np.concatenate(keys)
    values = np.concatenate(values)
    indices = keys % n_cols  # keys is empty when n_cols is 0
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    del keys
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


def _int_pair(text: str) -> tuple[int, int]:
    """``LO,HI`` as two integers; any other number of values is a ``ValueError``."""
    lo, hi = map(int, text.split(","))
    return lo, hi


def vocabulary_from_text(text: str) -> Vocabulary:
    """Inverse of ``vocabulary_to_text``; rows must hold columns 0, 1, ... in order,
    each a feature that the header's analyzer and ngram range can produce."""
    r = BodyReader(text, VOCABULARY_FORMAT)
    cfg = VectorizerConfig(
        weighting=r.meta_value("weighting", Weighting),
        analyzer=r.meta_value("analyzer", Analyzer),
        ngram_range=r.meta_value("ngram", _int_pair),
        max_features=r.meta_value("max_features", int),
        max_df=r.meta_value("max_df", float),
    )
    n_docs = r.meta_count("n_docs", 1)
    if n_docs > np.iinfo(np.int64).max:  # fit counts documents in an int64
        raise DataError(f"header n_docs={n_docs} must be <= {np.iinfo(np.int64).max}")
    lo, hi = cfg.ngram_range
    tfidf = cfg.weighting is Weighting.TFIDF
    t = r.table("feature row", 4)
    if len(t.rows) > cfg.max_features:
        t.fault(cfg.max_features, f"more feature rows than max_features={cfg.max_features}")
    features, col_s, df_s, idf_s = zip(*t.rows) if t.rows else ((),) * 4
    # the checks of one row, in order, each over a whole column
    cols = t.cast(int, col_s)
    dfs = t.cast(int, df_s)
    index = t.numbered(features, cols, 0, lambda i: f"expected a new feature with column {i}")
    t.first([df < 1 for df in dfs], lambda i: f"df must be >= 1, got {dfs[i]}")
    # fit keeps a feature when df / n_docs <= max_df in float64, so df <= n_docs:
    # an int64 too
    max_df = cfg.max_df
    t.first([not (df <= n_docs and float(df) / n_docs <= max_df) for df in dfs],
            lambda i: f"df {dfs[i]} of {n_docs} documents exceeds max_df={cfg.max_df!r}")
    t.first([(idf != "") != tfidf for idf in idf_s],
            lambda i: "idf must be given exactly when weighting is tfidf")
    if cfg.analyzer is Analyzer.CHAR:
        unproducible = [not lo <= len(feature) <= hi for feature in features]
    else:
        # a word n-gram is n whitespace-free tokens joined by single spaces
        unproducible = [not (lo <= len(tokens := feature.split(" ")) <= hi
                             and feature.split() == tokens) for feature in features]
    t.first(unproducible, lambda i: (
        f"feature {features[i]!r} is not a {cfg.analyzer.value} n-gram with {lo} <= n <= {hi}"))
    # fit writes ln((1 + n_docs) / (1 + df)) + 1 with df <= n_docs: finite and >= 1
    idfs = t.cast(float, idf_s) if tfidf else []
    t.first([not 1.0 <= idf < math.inf for idf in idfs],
            lambda i: f"idf must be finite and >= 1, got {idfs[i]!r}")
    t.check()
    if not index:
        raise DataError("no feature rows")
    idf_arr = np.array(idfs, dtype=np.float64) if tfidf else None
    return Vocabulary(index, np.array(dfs, dtype=np.int64), idf_arr, n_docs, cfg)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    Path(path).write_text(vocabulary_to_text(vocab), encoding="utf-8")


def load_vocabulary(path) -> Vocabulary:
    return parse_file(path, vocabulary_from_text)
