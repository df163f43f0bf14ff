"""Token-stream phrase matching shared by stop-phrase removal and the
lexicon measures: left-to-right, longest phrase first, non-overlapping."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

PhraseIndex = dict[str, list[tuple[str, ...]]]


def phrase_index(phrases: Iterable[str], what: str = "phrase") -> PhraseIndex:
    """Group token-tuple phrases by first token, longest first per group. A
    phrase without 1 to 3 tokens is a ``ValueError`` that calls it ``what``."""
    index: PhraseIndex = {}
    for phrase in phrases:
        parts = tuple(phrase.split())
        if not 1 <= len(parts) <= 3:
            raise ValueError(f"{what} {phrase!r} must have 1 to 3 tokens")
        index.setdefault(parts[0], []).append(parts)
    for candidates in index.values():
        candidates.sort(key=lambda t: (-len(t), t))
    return index


def occurrences(tokens: Sequence[str], index: PhraseIndex) -> Iterator[tuple[int, int]]:
    """(start, length) of each occurrence, found as the module docstring says."""
    i = 0
    while i < len(tokens):
        for phrase in index.get(tokens[i], ()):
            k = len(phrase)
            if tuple(tokens[i : i + k]) == phrase:
                yield i, k
                i += k
                break
        else:
            i += 1
