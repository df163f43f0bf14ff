"""Corpus cleaning: normalization, tokenization, n-gram frequency
dictionaries for boilerplate discovery, and stop-phrase removal.

Boilerplate discovery is semi-manual by design: ``ngram_frequency`` plus
``top_fraction`` produce candidate phrases; a human curates the final
stop-phrase list, which ``apply_stop_phrases`` then removes from every
document. Candidates are never deleted automatically.

``ngram_frequency`` counts with the vectorizer's integer-id n-gram counter
and ranks with it: by count descending, ties in codepoint order of the
space-joined key (``vectorize._Windows.ranking``). An ``NgramFrequency``
holds its ``counts`` unranked, so their length ranks nothing.
``ranking(stop)`` ranks only the n-grams counted at least as often as the
``stop``-th, and ``entries(order)`` and ``tsv(order)`` build the keys, or the
``ngram<TAB>count`` lines, of the n-grams at ``order`` a chunk at a time. So
``top_fraction`` ranks only the n-grams tied with or above its cut and builds
only the keys it returns, and a whole ranking is formatted as it is written.
A ``LabeledCorpus`` numbers its tokens once (``LabeledCorpus.token_ids``), so
the unigram, bigram and trigram dictionaries of one corpus, whether from one
``ngram_frequencies`` call or three ``ngram_frequency`` calls, share its ids.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._matching import PhraseIndex, occurrences, phrase_index
from .corpus_io import Document, LabeledCorpus, _round_half_up
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


def _normalized_tokens(text: str, cfg: NormalizationConfig) -> tuple[str, ...]:
    """The tokens of ``normalize(text, cfg)``: ``text`` with the deleted code
    points removed, split on whitespace."""
    deleted = _deleted(cfg)
    if deleted is not None:
        text = deleted.sub("", text)
    return tuple(text.split())


def normalize(text: str, cfg: NormalizationConfig = NormalizationConfig()) -> str:
    """Delete the code points the configured cleanups remove, then collapse
    runs of whitespace to one space and trim the ends. Idempotent.

    Every cleanup deletes single code points whatever their neighbours, so
    one pass with the union of the deleted classes (one cached regex per
    config) gives the text that applying them in turn would. ``str.split``
    and the regex ``\\s`` agree on every code point, so splitting and
    joining with one space is the collapse."""
    return " ".join(_normalized_tokens(text, cfg))


_CHUNK = 1 << 16  # keys built at a time when a ranking is read


class NgramFrequency:
    """Counts of space-joined n-token windows over a corpus: ``counts[i]`` is
    the count of the i-th distinct n-gram, unranked. Each n-gram is the window
    of n units at a position in ``where`` of a ``_Windows``; its key is built
    from the unit table when read, so the windows' ids may move on to a longer
    level meanwhile."""

    def __init__(self, n: int, win: _Windows, where: np.ndarray, counts: np.ndarray):
        self.n, self.counts, self._win, self._where = n, counts, win, where

    def ranking(self, stop: int | None = None) -> np.ndarray:
        """Indices into ``counts`` of the first ``stop`` n-grams (by default all)
        in (-count, key) order; only the n-grams that can be among them are ranked."""
        return self._win.ranking(self._where, self.n, self.counts, stop)

    def entries(self, order: np.ndarray) -> Iterator[tuple[list[str], list[int]]]:
        """The keys and counts of the n-grams at ``order``, a chunk at a time."""
        for start in range(0, len(order), _CHUNK):
            at = order[start : start + _CHUNK]
            yield self._win.names(self._where[at], self.n), self.counts[at].tolist()

    def tsv(self, order: np.ndarray) -> Iterator[str]:
        """``ngram<TAB>count`` lines of the n-grams at ``order``, a chunk at a time."""
        for keys, counts in self.entries(order):
            yield "".join(map("{}\t{}\n".format, keys, counts))


def ngram_frequency(corpus: LabeledCorpus | Iterable[Document], n: int) -> NgramFrequency:
    """Frequency dictionary of contiguous n-token windows, ranked as the
    module docstring says.

    Windows never cross document boundaries.
    """
    return next(ngram_frequencies(corpus, (n,)))


def ngram_frequencies(
    corpus: LabeledCorpus | Iterable[Document], ns: Sequence[int]
) -> Iterator[NgramFrequency]:
    """``ngram_frequency`` for each n in ``ns``, by increasing n, from one
    ``_Windows`` walked once. A bad n is refused when this is called.

    A ``LabeledCorpus`` numbers its tokens once (``LabeledCorpus.token_ids``),
    and every call on it shares those ids; other documents are numbered anew."""
    for n in ns:
        if n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2 or 3, got {n}")
    return _frequencies(corpus, ns)


def _frequencies(
    corpus: LabeledCorpus | Iterable[Document], ns: Sequence[int]
) -> Iterator[NgramFrequency]:
    units = corpus.token_ids if isinstance(corpus, LabeledCorpus) else None
    win = _Windows([doc.tokens for doc in corpus], Analyzer.WORD, units)
    for n in win.levels(max(ns)):
        if n not in ns:
            continue
        where, totals, _ = win.count()
        yield NgramFrequency(n, win, where, totals)


def top_count(n_keys: int, fraction: float) -> int:
    """How many of ``n_keys`` ranked n-grams the top ``fraction`` holds:
    round(fraction * n_keys), half up, and at least one of a non-empty ranking.
    A ``fraction`` outside (0, 1] is refused whatever ``n_keys`` is."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return min(n_keys, max(1, _round_half_up(fraction * n_keys)))


def top_fraction(freq: NgramFrequency, fraction: float) -> list[tuple[str, int]]:
    """The top ``fraction`` of distinct n-grams by count.

    Returns round(fraction * distinct-key-count) entries (half-up, at least
    one for a non-empty dictionary), sorted by count descending with ties
    broken by codepoint order of the n-gram.
    """
    order = freq.ranking(top_count(len(freq.counts), fraction))
    return [item for keys, counts in freq.entries(order) for item in zip(keys, counts)]


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


def _without_phrases(tokens: tuple[str, ...], phrases: StopPhraseList) -> list[str] | None:
    """The tokens left once every stop-phrase occurrence is deleted, or None
    when no phrase occurs."""
    kept: list[str] = []
    end = 0
    for start, length in occurrences(tokens, phrases.index):
        kept += tokens[end:start]
        end = start + length
    if end == 0:  # no occurrence
        return None
    kept += tokens[end:]
    return kept


def apply_stop_phrases(doc: Document, phrases: StopPhraseList) -> Document:
    """Delete stop-phrase occurrences from the token stream.

    One left-to-right scan; at each position the longest matching phrase is
    consumed (non-overlapping, no rescan of the shrunk stream). The input
    document is left unmodified, and returned itself when no phrase occurs.
    """
    kept = _without_phrases(doc.tokens, phrases)
    return doc if kept is None else replace(doc, text=" ".join(kept))


def clean_corpus(
    corpus: LabeledCorpus,
    cfg: NormalizationConfig = NormalizationConfig(),
    stop_phrases: StopPhraseList | None = None,
) -> LabeledCorpus:
    """Normalize every document's text (its tokens follow), then drop stop phrases.

    Each text is split once: stop phrases are removed from the tokens of the
    normalized text, and its document is built from them, one document at a
    time. With stop phrases, a document where none occurs keeps those tokens
    as its ``tokens``, as ``apply_stop_phrases`` leaves it, so they are not
    split again; the other documents split their new text when first asked.
    Normalizing every text before building the first document does not lower
    the peak RSS: at paper scale (6895 documents, ``scripts/paper_scale.py``)
    ``satira clean`` peaked at 117 MB that way and peaks at 103 MB this way,
    with a traced peak of 94.3 MiB both ways."""
    cleaned: list[Document] = []
    for doc in corpus:
        tokens = _normalized_tokens(doc.text, cfg)
        kept = None if stop_phrases is None else _without_phrases(tokens, stop_phrases)
        new_doc = Document(doc.id, " ".join(tokens if kept is None else kept), doc.label)
        if stop_phrases is not None and kept is None:
            vars(new_doc)["tokens"] = tokens  # the cache ``Document.tokens`` would fill
        cleaned.append(new_doc)
    return corpus.with_documents(cleaned)
