"""Corpus cleaning: normalization, tokenization, n-gram frequency
dictionaries for boilerplate discovery, and stop-phrase removal.

Boilerplate discovery is semi-manual by design: ``ngram_frequency`` plus
``top_fraction`` produce candidate phrases; a human curates the final
stop-phrase list, which ``apply_stop_phrases`` then removes from every
document. Candidates are never deleted automatically.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ._matching import longest_match_at, phrase_index
from .corpus_io import Document, LabeledCorpus, replace_tokens
from .fileio import parse_phrase_file

# Harakat, tanween, sukun, shadda and friends (U+064B..U+065F) plus the
# superscript alef. Kept out of the strip_special class so the two flags
# stay independent.
_DIACRITICS_RE = re.compile(r"[ً-ٰٟ]")

_LATIN_RE = re.compile(r"[A-Za-z]")

# strip_special keeps Arabic letters (tatweel U+0640 excluded), Arabic
# combining marks, Arabic-Indic and ASCII digits, and whitespace. Latin
# letters are kept too: strip_latin alone decides whether they go.
_NON_KEPT_RE = re.compile(
    r"[^ء-ؿف-يً-ٰٟ"  # letters + marks
    r"ٱ-ۓەۥۦۮۯۺ-ۿ"
    r"ݐ-ݿࢠ-ࢽ"
    r"A-Za-z0-9٠-٩۰-۹\s]"
)

_WHITESPACE_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class NormalizationConfig:
    strip_diacritics: bool = True
    strip_latin: bool = True
    strip_special: bool = True


def normalize(text: str, cfg: NormalizationConfig = NormalizationConfig()) -> str:
    """Apply the configured character-level cleanups, then collapse runs of
    whitespace to one space. Idempotent."""
    if cfg.strip_diacritics:
        text = _DIACRITICS_RE.sub("", text)
    if cfg.strip_latin:
        text = _LATIN_RE.sub("", text)
    if cfg.strip_special:
        text = _NON_KEPT_RE.sub("", text)
    return _WHITESPACE_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization of already-normalized text."""
    return text.split()


@dataclass(frozen=True)
class NgramFrequency:
    """Counts of space-joined n-token windows over a corpus."""

    n: int
    counts: dict[str, int]

    def __post_init__(self):
        for key, count in self.counts.items():
            if len(key.split(" ")) != self.n:
                raise ValueError(f"key {key!r} is not a {self.n}-gram")
            if count < 1:
                raise ValueError(f"key {key!r} has count {count} < 1")


def ngram_frequency(corpus: LabeledCorpus | Iterable[Document], n: int) -> NgramFrequency:
    """Frequency dictionary of contiguous n-token windows.

    Windows never cross document boundaries.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    counts: Counter[str] = Counter()
    for doc in corpus:
        tokens = doc.tokens
        for i in range(len(tokens) - n + 1):
            counts[" ".join(tokens[i : i + n])] += 1
    return NgramFrequency(n=n, counts=dict(counts))


def top_fraction(freq: NgramFrequency, fraction: float) -> list[tuple[str, int]]:
    """The top ``fraction`` of distinct n-grams by count.

    Returns round(fraction * distinct-key-count) entries (half-up, at least
    one for a non-empty dictionary), sorted by count descending with ties
    broken by codepoint order of the n-gram.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n_keys = len(freq.counts)
    if n_keys == 0:
        return []
    k = min(n_keys, max(1, int(math.floor(fraction * n_keys + 0.5))))
    ranked = sorted(freq.counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def ngram_frequency_to_tsv(freq: NgramFrequency) -> str:
    """``ngram<TAB>count`` lines, highest count first, ties in codepoint order."""
    ranked = sorted(freq.counts.items(), key=lambda item: (-item[1], item[0]))
    return "".join(f"{ngram}\t{count}\n" for ngram, count in ranked)


@dataclass(frozen=True)
class StopPhraseList:
    """Curated website-specific phrases to delete from the token stream."""

    phrases: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for phrase in self.phrases:
            parts = phrase.split()
            if not 1 <= len(parts) <= 3:
                raise ValueError(f"phrase {phrase!r} must have 1 to 3 tokens")
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
    index = phrase_index(phrases.phrases)
    if not index:
        return doc
    tokens = doc.tokens
    kept: list[str] = []
    i = 0
    while i < len(tokens):
        matched = longest_match_at(tokens, i, index)
        if matched:
            i += matched
        else:
            kept.append(tokens[i])
            i += 1
    if len(kept) == len(tokens):
        return doc
    return replace_tokens(doc, kept)


def clean_corpus(
    corpus: LabeledCorpus,
    cfg: NormalizationConfig = NormalizationConfig(),
    stop_phrases: StopPhraseList | None = None,
) -> LabeledCorpus:
    """Normalize + retokenize every document, then drop stop phrases."""
    cleaned: list[Document] = []
    for doc in corpus:
        new_doc = replace_tokens(doc, tokenize(normalize(doc.text, cfg)))
        if stop_phrases is not None:
            new_doc = apply_stop_phrases(new_doc, stop_phrases)
        cleaned.append(new_doc)
    return corpus.with_documents(cleaned)
