"""Token-stream phrase matching shared by stop-phrase removal and the
lexicon measures: left-to-right, longest phrase first, non-overlapping.

The positions whose token starts some phrase are found by one C-level scan,
``compress(count(), map(firsts.__contains__, tokens))``, with no Python
bytecode run per token; only those positions are then tried against the
phrases. ``firsts`` may hold the first tokens of several indexes at once, so
one scan of a document serves every lexicon matched against it."""

from __future__ import annotations

from itertools import compress, count
from typing import Collection, Iterable, Iterator, Sequence

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


def phrase_starts(tokens: tuple[str, ...], firsts: Collection[str]) -> list[int]:
    """The positions of ``tokens`` whose token is in ``firsts``, ascending."""
    return list(compress(count(), map(firsts.__contains__, tokens)))


def occurrences(
    tokens: tuple[str, ...], index: PhraseIndex, at: Sequence[int] | None = None
) -> Iterator[tuple[int, int]]:
    """(start, length) of each occurrence, found as the module docstring says.

    Only the positions in ``at`` are visited: by default those whose token
    starts some phrase of ``index``. Any ascending superset of them, such as
    the ``phrase_starts`` of several indexes' first tokens, gives the same
    occurrences."""
    if at is None:
        at = phrase_starts(tokens, index)
    end = 0
    for i in at:
        if i < end:  # inside the previous occurrence
            continue
        for phrase in index.get(tokens[i], ()):
            k = len(phrase)
            if tokens[i : i + k] == phrase:
                yield i, k
                end = i + k
                break
