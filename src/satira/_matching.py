"""Token-stream phrase matching shared by stop-phrase removal and the
lexicon measures: left-to-right, longest phrase first, non-overlapping."""

from __future__ import annotations

from typing import Iterable, Iterator

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


def occurrences(tokens: tuple[str, ...], index: PhraseIndex) -> Iterator[tuple[int, int]]:
    """(start, length) of each occurrence, found as the module docstring says.
    Only positions whose token starts some phrase are visited."""
    end = 0
    for i in [i for i, token in enumerate(tokens) if token in index]:
        if i < end:  # inside the previous occurrence
            continue
        for phrase in index[tokens[i]]:
            k = len(phrase)
            if tokens[i : i + k] == phrase:
                yield i, k
                end = i + k
                break
