"""Corpus cleaning: normalization, tokenization, n-gram frequency
dictionaries for boilerplate discovery, and stop-phrase removal.

Boilerplate discovery is semi-manual by design: ``ngram_frequency`` plus
``top_fraction`` produce candidate phrases; a human curates the final
stop-phrase list, which ``apply_stop_phrases`` then removes from every
document. Candidates are never deleted automatically.

``ngram_frequency`` counts and ranks with the vectorizer's integer-id
n-gram counter: by count descending, ties in codepoint order of the
space-joined key (``vectorize._Windows.ranking``). An ``NgramFrequency``'s
``counts`` is a read-only mapping in that (-count, key) ranking whose keys
are built only when read: its length builds none, iterating it builds the
keys in ranked order a chunk at a time, and the first lookup by key builds
one dict and keeps it. So ``top_fraction`` builds only the keys it returns,
and ``ngram_frequency_to_tsv`` writes the ranking chunk by chunk.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._matching import PhraseIndex, occurrences, phrase_index
from .corpus_io import Document, LabeledCorpus
from .fileio import parse_phrase_file
from .vectorize import Analyzer, _Windows

# Harakat, tanween, sukun, shadda and friends (U+064B..U+065F) plus the
# superscript alef (U+0670), not the range up to U+0670, which would take
# the Arabic-Indic digits with it. The classes below are regex class bodies.
_DIACRITICS = "\u064b-\u065f\u0670"

_LATIN = "A-Za-z"

# strip_special keeps Arabic letters (tatweel U+0640 excluded), Arabic
# combining marks, Latin letters, Arabic-Indic and ASCII digits, and
# whitespace; strip_diacritics and strip_latin alone decide whether the
# marks and the Latin letters go, so the three flags stay independent.
_KEPT = ("\u0621-\u063f\u0641-\u064a\u0671-\u06d3\u06d5\u06e5\u06e6\u06ee\u06ef"
         "\u06fa-\u06ff\u0750-\u077f\u08a0-\u08bd0-9\u0660-\u0669\u06f0-\u06f9\\s")


@dataclass(frozen=True)
class NormalizationConfig:
    strip_diacritics: bool = True
    strip_latin: bool = True
    strip_special: bool = True


@functools.cache
def _deleted(cfg: NormalizationConfig) -> re.Pattern | None:
    """One character class of every code point ``cfg`` deletes, or None."""
    diacritics = _DIACRITICS if cfg.strip_diacritics else ""
    latin = _LATIN if cfg.strip_latin else ""
    if cfg.strip_special:
        kept = _KEPT + ("" if diacritics else _DIACRITICS) + ("" if latin else _LATIN)
        return re.compile(f"[^{kept}]")
    return re.compile(f"[{diacritics}{latin}]") if diacritics or latin else None


def normalize(text: str, cfg: NormalizationConfig = NormalizationConfig()) -> str:
    """Delete the code points the configured cleanups remove, then collapse
    runs of whitespace to one space and trim the ends. Idempotent.

    Every cleanup deletes single code points whatever their neighbours, so
    one pass with the union of the deleted classes (one cached regex per
    config) gives the text that applying them in turn would. ``str.split``
    and the regex ``\\s`` agree on every code point, so splitting and
    joining with one space is the collapse."""
    deleted = _deleted(cfg)
    if deleted is not None:
        text = deleted.sub("", text)
    return " ".join(text.split())


_CHUNK = 1 << 16  # keys built at a time when a ranking is read


class _RankedCounts(Mapping[str, int]):
    """Read-only n-gram counts in (-count, key) order. The n-gram ranked i-th
    is the window of n units at position ``where[i]`` of a ``_Windows``, with
    count ``totals[i]``; its key is built from the unit table when read, so
    the windows' ids may move on to a longer level meanwhile."""

    def __init__(self, n: int, win: _Windows, where: np.ndarray, totals: np.ndarray):
        self.n, self._win, self._where, self._totals = n, win, where, totals
        self._index: dict[str, int] | None = None

    def chunks(self, stop: int) -> Iterator[tuple[list[str], list[int]]]:
        """The keys and counts of the first ``stop`` n-grams, a chunk at a time."""
        for start in range(0, stop, _CHUNK):
            end = min(start + _CHUNK, stop)
            yield self._win.names(self._where[start:end], self.n), self._totals[start:end].tolist()

    def __len__(self) -> int:
        return len(self._totals)

    def __iter__(self) -> Iterator[str]:
        for keys, _ in self.chunks(len(self)):
            yield from keys

    def __getitem__(self, key: str) -> int:
        if self._index is None:
            self._index = dict(zip(self, self._totals.tolist()))
        return self._index[key]


@dataclass(frozen=True)
class NgramFrequency:
    """Counts of space-joined n-token windows over a corpus, as ``ngram_frequency``
    ranks them: ``counts`` is a read-only mapping in (-count, key) order whose
    keys are built when read."""

    n: int
    counts: _RankedCounts


def ngram_frequency(corpus: LabeledCorpus | Iterable[Document], n: int) -> NgramFrequency:
    """Frequency dictionary of contiguous n-token windows, ranked as the
    module docstring says.

    Windows never cross document boundaries.
    """
    return next(_ngram_frequencies(corpus, (n,)))


def _ngram_frequencies(
    corpus: LabeledCorpus | Iterable[Document], ns: Sequence[int]
) -> Iterator[NgramFrequency]:
    """``ngram_frequency`` for each n in ``ns``, by increasing n, from one
    ``_Windows`` walked once."""
    for n in ns:
        if n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2 or 3, got {n}")
    win = _Windows([doc.tokens for doc in corpus], Analyzer.WORD)
    for n in win.levels(max(ns)):
        if n not in ns:
            continue
        where, totals, _ = win.count()
        order = win.ranking(where, n, totals)
        yield NgramFrequency(n, _RankedCounts(n, win, where[order], totals[order]))


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")


def _top_chunks(freq: NgramFrequency, fraction: float) -> Iterator[tuple[list[str], list[int]]]:
    """The keys and counts of ``top_fraction(freq, fraction)``, a chunk at a time."""
    _check_fraction(fraction)
    n_keys = len(freq.counts)
    k = min(n_keys, max(1, int(math.floor(fraction * n_keys + 0.5))))
    return freq.counts.chunks(k)


def top_fraction(freq: NgramFrequency, fraction: float) -> list[tuple[str, int]]:
    """The top ``fraction`` of distinct n-grams by count.

    Returns round(fraction * distinct-key-count) entries (half-up, at least
    one for a non-empty dictionary), sorted by count descending with ties
    broken by codepoint order of the n-gram.
    """
    return [item for keys, counts in _top_chunks(freq, fraction) for item in zip(keys, counts)]


def ngram_frequency_to_tsv(freq: NgramFrequency, fraction: float = 1.0) -> str:
    """``ngram<TAB>count`` lines of ``top_fraction(freq, fraction)``, by default all."""
    return "".join("".join(map("{}\t{}\n".format, keys, counts))
                   for keys, counts in _top_chunks(freq, fraction))


@dataclass(frozen=True)
class StopPhraseList:
    """Curated website-specific phrases to delete from the token stream."""

    phrases: tuple[str, ...]
    index: PhraseIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", phrase_index(self.phrases))
        seen = set()
        for phrase in self.phrases:
            if phrase in seen:
                raise ValueError(f"duplicate phrase {phrase!r}")
            seen.add(phrase)

    @classmethod
    def from_file(cls, path) -> "StopPhraseList":
        return parse_phrase_file(path, lambda phrases: cls(tuple(phrases)))


def apply_stop_phrases(doc: Document, phrases: StopPhraseList) -> Document:
    """Delete stop-phrase occurrences from the token stream.

    One left-to-right scan; at each position the longest matching phrase is
    consumed (non-overlapping, no rescan of the shrunk stream). The input
    document is left unmodified.
    """
    tokens = doc.tokens
    kept: list[str] = []
    end = 0
    for start, length in occurrences(tokens, phrases.index):
        kept += tokens[end:start]
        end = start + length
    if end == 0:  # no occurrence
        return doc
    return replace(doc, text=" ".join(kept + list(tokens[end:])))


def clean_corpus(
    corpus: LabeledCorpus,
    cfg: NormalizationConfig = NormalizationConfig(),
    stop_phrases: StopPhraseList | None = None,
) -> LabeledCorpus:
    """Normalize every document's text (its tokens follow), then drop stop phrases.

    Every text is normalized before the first document is built, so the
    short-lived strings of ``normalize`` are not scattered among the
    documents that stay, which would raise the peak RSS."""
    cleaned: list[Document] = []
    texts = [normalize(doc.text, cfg) for doc in corpus]
    for doc, text in zip(corpus, texts):
        new_doc = replace(doc, text=text)
        if stop_phrases is not None:
            new_doc = apply_stop_phrases(new_doc, stop_phrases)
        cleaned.append(new_doc)
    return corpus.with_documents(cleaned)
