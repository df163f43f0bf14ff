"""Per-article stylometric measures.

Three measures per document:

* journalistic register: occurrences of cliche-lexicon phrases normalized
  by the document's token count;
* sentiment intensity: the same ratio over an emotion lexicon;
* first-person-plural verb ratio: share of VERB-tagged tokens carrying the
  Arabic first-person-plural inflection. ``parse_tagged_file`` reduces each
  document of a POS-tagged file to this ratio as it reads the file.

Lexicon matching is one left-to-right scan with the longest matching
phrase consumed at each position (the same rule as stop-phrase removal):
single-token phrases reduce to the per-token indicator, multiword phrases
count one per non-overlapping occurrence, and no token is counted twice,
which keeps every score inside [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import dropwhile
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._matching import PhraseIndex, occurrences, phrase_index
from .corpus_io import Document, Label, LabeledCorpus, parse_label
from .errors import DataError
from .fileio import parse_phrase_file, text_lines

FPP_PREFIX = "ن"
FPP_SUFFIX = "نا"


@dataclass(frozen=True)
class Lexicon:
    name: str
    phrases: frozenset[str]
    index: PhraseIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.phrases:
            raise ValueError(f"lexicon {self.name!r} is empty")
        object.__setattr__(self, "index", phrase_index(self.phrases, "lexicon phrase"))

    @classmethod
    def from_file(cls, path, name: Optional[str] = None) -> "Lexicon":
        return parse_phrase_file(path, lambda p: cls(name=name or str(path), phrases=frozenset(p)))


@dataclass(frozen=True)
class MeasureVector:
    doc_id: str
    journalistic_register: float
    sentiment_intensity: float
    fpp_verb_ratio: Optional[float] = None

    def __post_init__(self):
        for value in (self.journalistic_register, self.sentiment_intensity):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"measure {value} outside [0, 1]")
        if self.fpp_verb_ratio is not None and not 0.0 <= self.fpp_verb_ratio <= 1.0:
            raise ValueError(f"verb ratio {self.fpp_verb_ratio} outside [0, 1]")


def lexicon_score(doc: Document, lexicon: Lexicon) -> float:
    """Matched lexicon occurrences normalized by the document token count.

    One left-to-right scan; at each position the longest matching phrase
    counts one occurrence and its tokens are consumed. For a lexicon of
    single tokens this is exactly the per-token indicator sum. Always in
    [0, 1]: a match never spans fewer tokens than it consumes.
    """
    if doc.size == 0:
        raise ValueError(f"document {doc.id!r} has no tokens; score undefined")
    return sum(1 for _ in occurrences(doc.tokens, lexicon.index)) / doc.size


def corpus_profile(
    corpus: LabeledCorpus,
    cliches: Lexicon,
    emotions: Lexicon,
    fpp_ratios: Optional[Sequence[Optional[float]]] = None,
) -> dict[Label, list[MeasureVector]]:
    """One MeasureVector per document, grouped by gold label.

    ``fpp_ratios`` (from ``parse_tagged_file``) is order-aligned with the
    corpus documents; when omitted the verb ratio is absent from every vector.
    """
    if fpp_ratios is not None and len(fpp_ratios) != len(corpus.documents):
        raise DataError(
            f"tagged input has {len(fpp_ratios)} documents, corpus has "
            f"{len(corpus.documents)}"
        )
    profile: dict[Label, list[MeasureVector]] = {Label.FAKE: [], Label.REAL: []}
    for i, doc in enumerate(corpus.documents):
        if doc.label is None:
            raise DataError(f"document {doc.id!r} is unlabeled")
        try:
            j = lexicon_score(doc, cliches)
            s = lexicon_score(doc, emotions)
        except ValueError as exc:  # it names the document
            raise DataError(str(exc)) from exc
        ratio = fpp_ratios[i] if fpp_ratios is not None else None
        profile[doc.label].append(MeasureVector(doc.id, j, s, ratio))
    return profile


# every character ``str.isspace`` accepts, so every one ``str.strip`` removes
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
           "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _byte_table(values: bytes) -> np.ndarray:
    """Whether each byte value is among ``values``."""
    return np.array([b in values for b in range(256)])


# whether each byte value may begin, and may end, the UTF-8 of a whitespace character
_SPACE_FIRST = _byte_table(bytes(c.encode()[0] for c in _SPACES))
_SPACE_LAST = _byte_table(bytes(c.encode()[-1] for c in _SPACES))
_PREFIX, _SUFFIX = FPP_PREFIX.encode(), FPP_SUFFIX.encode()

TAG_BLOCK = 1 << 20  # characters of a tagged file scanned at a time, whole lines


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _holds(data: bytes, at: np.ndarray, pattern: bytes) -> np.ndarray:
    """Whether ``data`` holds ``pattern`` (2 or 4 bytes) at each offset of ``at``:
    one compare per offset, through a view of the integer at every offset."""
    width = len(pattern)
    words = np.ndarray((max(len(data) - width + 1, 0),), dtype=f"<u{width}", buffer=data,
                       strides=(1,))
    return words[at] == int.from_bytes(pattern, "little")


def parse_tagged_file(text: str) -> list[Optional[float]]:
    """Each document's first-person-plural verb ratio, from CoNLL-like input.

    Lines are split on ``\\n`` only, and each is read after ``str.strip``. A
    line that is then empty ends the current document, if one is open; a line
    that then starts with ``#`` is skipped, inside a document too; any other
    line is a token, which must hold exactly one tab: ``surface<TAB>pos``. A
    token with pos ``VERB`` counts as a hit when its surface starts with the
    prefix ن or ends with the suffix نا, applied to the surface form as tagged
    (no morphological disambiguation). A document's ratio is hits / verbs,
    None when it has no VERB. The first line that is not a token, a comment
    or blank is a ``DataError`` naming its line.

    The text is scanned as UTF-8 bytes in blocks of about ``TAG_BLOCK``
    characters cut at line ends, with numpy rather than a loop per line. One
    pass finds the newlines and tabs; a line spans the bytes between two
    newlines, and only a line whose first or last byte may belong to a
    whitespace character is stripped as a string. A line's tabs and each
    document's tokens, verbs and hits are counted with ``bincount``, a line's
    document being the number of blank lines before it. The open document's
    counts and the line number carry over from one block to the next, so
    memory is bounded by the block, not the file.
    """
    docs: list[list[int]] = []  # tokens, verbs and hits of each document
    carried = [0, 0, 0]  # those of the document a block leaves open
    first_line = 1
    start = 0
    while start < len(text):
        stop = text.find("\n", start + TAG_BLOCK - 1) + 1 or len(text)
        data = _utf8(text[start:stop])
        if not data.endswith(b"\n"):
            data += b"\n"
        counts, n_lines = _block_counts(data, first_line)
        counts[:, 0] += carried
        *closed, carried = counts.T.tolist()
        docs += closed
        first_line += n_lines
        start = stop
    return [hits / verbs if verbs else None for tokens, verbs, hits in docs + [carried] if tokens]


def _block_counts(data: bytes, first_line: int) -> tuple[np.ndarray, int]:
    """Tokens, verbs and hits (rows) of each run of lines between blank lines
    (columns) of a block of whole lines, each ending in ``\\n``, whose first
    line is line ``first_line`` of the file, and the block's line count. The
    last run is the one the block leaves open."""
    buf = np.frombuffer(data, dtype=np.uint8)
    at = np.flatnonzero(buf <= 10)  # newlines and tabs, and rarer control bytes
    kind = buf[at]
    newline, is_tab = kind == 10, kind == 9
    ends = at[newline]
    starts = np.concatenate(([0], ends[:-1] + 1))
    n_lines = len(ends)
    tab_line = np.cumsum(newline)[is_tab]
    n_tabs = np.bincount(tab_line, minlength=n_lines)
    tab = np.zeros(n_lines, dtype=np.int64)
    tab[tab_line] = at[is_tab]  # the line's tab, where it has only one
    # the stripped span [lo, hi) of each line
    lo, hi = starts.copy(), ends.copy()
    edged = (hi > lo) & (_SPACE_FIRST[buf[lo]] | _SPACE_LAST[buf[hi - 1]])
    for i in np.flatnonzero(edged).tolist():
        line = data[starts[i]:ends[i]].decode("utf-8", "surrogatepass")
        stripped = line.strip()
        lo[i] += len(_utf8(line[:len(line) - len(line.lstrip())]))
        hi[i] = lo[i] + len(_utf8(stripped))
        n_tabs[i] = stripped.count("\t")
        tab[i] = lo[i] + len(_utf8(stripped.partition("\t")[0]))
    blank = lo == hi
    token = ~blank & (buf[lo] != ord("#"))
    bad = token & (n_tabs != 1)
    if bad.any():
        i = int(np.argmax(bad))
        line = data[starts[i]:ends[i]].decode("utf-8", "surrogatepass")
        raise DataError(f"line {first_line + i}: expected surface<TAB>pos, got {line!r}")
    doc = np.cumsum(blank)[token]
    lo, hi, tab = lo[token], hi[token], tab[token]
    # pos is VERB: its one tab is followed by VERB and the span's end
    verb = hi - tab == 5
    verb[verb] = _holds(data, tab[verb] + 1, b"VERB")
    lo, tab = lo[verb], tab[verb]
    hit = _holds(data, lo, _PREFIX)  # reads no further than the tab
    long = tab - lo >= len(_SUFFIX)
    hit[long] |= _holds(data, tab[long] - len(_SUFFIX), _SUFFIX)
    n_docs = int(blank.sum()) + 1
    counts = np.stack([np.bincount(doc, minlength=n_docs),
                       np.bincount(doc[verb], minlength=n_docs),
                       np.bincount(doc[verb][hit], minlength=n_docs)])
    return counts, n_lines


MEASURES_HEADER = "doc_id,label,J,S,fpp_ratio"


def profile_to_csv(profile: Mapping[Label, Iterable[MeasureVector]]) -> str:
    """``MEASURES_HEADER`` rows; empty last field when undefined. A document id
    holding a comma or a line break is a ``DataError``."""
    lines = [MEASURES_HEADER]
    for label in (Label.FAKE, Label.REAL):
        for vec in profile.get(label, []):
            if "," in vec.doc_id or "\n" in vec.doc_id:
                raise DataError(f"document id {vec.doc_id!r} holds a comma or a line break; "
                                "the measures CSV cannot hold it")
            fpp = "" if vec.fpp_verb_ratio is None else repr(vec.fpp_verb_ratio)
            lines.append(
                f"{vec.doc_id},{label.value},"
                f"{vec.journalistic_register!r},{vec.sentiment_intensity!r},{fpp}"
            )
    return "".join(line + "\n" for line in lines)


def profile_from_csv(text: str) -> dict[Label, list[MeasureVector]]:
    """Inverse of ``profile_to_csv``; blank lines and the ``#`` lines before the
    header are skipped. Each row must be a valid ``MeasureVector``, so a value
    outside [0, 1], NaN or infinite is an error naming its line."""
    rows = [(n, line) for n, line in enumerate(text_lines(text), start=1) if line]
    rows = list(dropwhile(lambda numbered: numbered[1].startswith("#"), rows))
    if not rows or rows[0][1] != MEASURES_HEADER:
        raise DataError(f"expected a measures CSV with header {MEASURES_HEADER}")
    if len(rows) == 1:
        raise DataError("measures CSV has no data rows")
    profile: dict[Label, list[MeasureVector]] = {Label.FAKE: [], Label.REAL: []}
    for lineno, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 5:
            raise DataError(f"line {lineno}: expected 5 fields")
        doc_id, label, j, s, fpp = parts
        vectors = profile[parse_label(label, f"line {lineno}")]
        try:
            vectors.append(MeasureVector(doc_id, float(j), float(s), float(fpp) if fpp else None))
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    return profile
