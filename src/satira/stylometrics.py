"""Per-article stylometric measures.

Three measures per document:

* journalistic register: occurrences of cliche-lexicon phrases normalized
  by the document's token count;
* sentiment intensity: the same ratio over an emotion lexicon;
* first-person-plural verb ratio: share of VERB-tagged tokens carrying the
  Arabic first-person-plural inflection.

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

from ._matching import PhraseIndex, occurrences, phrase_index
from .corpus_io import Document, Label, LabeledCorpus
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
class PosToken:
    surface: str
    pos: str

    def __post_init__(self):
        if not self.surface:
            raise ValueError("PosToken surface must be non-empty")


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


def fpp_verb_ratio(tagged: Sequence[PosToken]) -> Optional[float]:
    """Share of VERB tokens inflected for first person plural.

    A verb counts when its surface starts with the prefix ن or ends with
    the suffix نا, applied to the surface form as tagged (no morphological
    disambiguation). Returns None when there are no VERB tokens.
    """
    verbs = [t for t in tagged if t.pos == "VERB"]
    if not verbs:
        return None
    hits = sum(
        1
        for t in verbs
        if t.surface.startswith(FPP_PREFIX) or t.surface.endswith(FPP_SUFFIX)
    )
    return hits / len(verbs)


def corpus_profile(
    corpus: LabeledCorpus,
    cliches: Lexicon,
    emotions: Lexicon,
    tagged: Optional[Sequence[Sequence[PosToken]]] = None,
) -> dict[Label, list[MeasureVector]]:
    """One MeasureVector per document, grouped by gold label.

    ``tagged`` is order-aligned with the corpus documents; when omitted the
    verb ratio is absent from every vector.
    """
    if tagged is not None and len(tagged) != len(corpus.documents):
        raise DataError(
            f"tagged input has {len(tagged)} documents, corpus has "
            f"{len(corpus.documents)}"
        )
    profile: dict[Label, list[MeasureVector]] = {Label.FAKE: [], Label.REAL: []}
    for i, doc in enumerate(corpus.documents):
        if doc.label is None:
            raise DataError(f"document {doc.id!r} is unlabeled")
        try:
            j = lexicon_score(doc, cliches)
            s = lexicon_score(doc, emotions)
        except ValueError as exc:
            raise DataError(f"document {doc.id!r}: {exc}") from exc
        ratio = fpp_verb_ratio(tagged[i]) if tagged is not None else None
        profile[doc.label].append(MeasureVector(doc.id, j, s, ratio))
    return profile


def parse_tagged_file(text: str) -> list[list[PosToken]]:
    """CoNLL-like input: ``surface<TAB>pos`` per line, blank line between docs."""
    docs: list[list[PosToken]] = []
    current: list[PosToken] = []
    for lineno, line in enumerate(text_lines(text), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if current:
                docs.append(current)
                current = []
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected surface<TAB>pos, got {line!r}")
        current.append(PosToken(surface=parts[0], pos=parts[1]))
    if current:
        docs.append(current)
    return docs


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
    profile: dict[Label, list[MeasureVector]] = {Label.FAKE: [], Label.REAL: []}
    for lineno, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != 5:
            raise DataError(f"line {lineno}: expected 5 fields")
        doc_id, label, j, s, fpp = parts
        try:
            profile[Label(label)].append(
                MeasureVector(doc_id, float(j), float(s), float(fpp) if fpp else None))
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    return profile
