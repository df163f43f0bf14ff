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
from itertools import chain, dropwhile
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
        except ValueError as exc:
            raise DataError(f"document {doc.id!r}: {exc}") from exc
        ratio = fpp_ratios[i] if fpp_ratios is not None else None
        profile[doc.label].append(MeasureVector(doc.id, j, s, ratio))
    return profile


def parse_tagged_file(text: str) -> list[Optional[float]]:
    """Each document's first-person-plural verb ratio, from CoNLL-like input:
    ``surface<TAB>pos`` per line, blank lines between docs, ``#`` lines skipped.

    A VERB counts when its surface starts with the prefix ن or ends with the
    suffix نا, applied to the surface form as tagged (no morphological
    disambiguation). Only the two counts are kept while a document is read;
    its ratio is None when it has no VERB.
    """
    ratios: list[Optional[float]] = []
    verbs = hits = 0
    in_doc = False
    # one more blank line ends the last document
    for lineno, line in enumerate(chain(text_lines(text), [""]), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if in_doc:
                ratios.append(hits / verbs if verbs else None)
                verbs = hits = 0
                in_doc = False
            continue
        parts = stripped.split("\t")
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected surface<TAB>pos, got {line!r}")
        in_doc = True
        surface, pos = parts
        if pos == "VERB":
            verbs += 1
            hits += surface.startswith(FPP_PREFIX) or surface.endswith(FPP_SUFFIX)
    return ratios


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
