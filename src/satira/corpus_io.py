"""Loading, saving and splitting labeled article collections.

A corpus is a flat sequence of documents. A document's tokens are derived
from its text (``text.split()``, computed on first use), so they are never
empty and never hold whitespace. Supported on-disk formats: JSONL (one
object per line, keys ``id``, ``text``, optional ``label``) and CSV with
columns exactly ``id,text,label``, chosen by the file suffix (``.csv``, in
any case, is CSV). Both are UTF-8 without BOM. Lines starting with ``#``
are metadata headers written by the CLI and are skipped on load; in CSV,
only those before the header row, since a later one may hold an id.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import dropwhile
from pathlib import Path
from typing import Iterable, Optional

from .errors import DataError
from .fileio import parse_file, text_lines


class Label(Enum):
    FAKE = "fake"
    REAL = "real"


def parse_label(raw: str, where: str) -> Label:
    """Map the on-disk label string to a Label; anything else is an error."""
    if raw == "fake":
        return Label.FAKE
    if raw == "real":
        return Label.REAL
    raise DataError(f"{where}: unknown label {raw!r}; expected 'fake' or 'real'")


@dataclass(frozen=True)
class Document:
    """One article: id, text and gold label (None when unlabeled)."""

    id: str
    text: str
    label: Optional[Label] = None

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """The whitespace-split ``text``: never empty strings, never whitespace."""
        return tuple(self.text.split())

    @property
    def size(self) -> int:
        """Cardinality of the token multiset."""
        return len(self.tokens)


def make_document(doc_id: str, text: str, label: Optional[Label] = None) -> Document:
    return Document(id=doc_id, text=text, label=label)


@dataclass(frozen=True)
class LabeledCorpus:
    documents: tuple[Document, ...]

    def __post_init__(self):
        ids = set()
        for doc in self.documents:
            if doc.id in ids:
                raise DataError(f"duplicate document id {doc.id!r}")
            ids.add(doc.id)

    @property
    def class_counts(self) -> dict[Label, int]:
        """Labeled documents per class; unlabeled ones are not counted."""
        counts = {Label.FAKE: 0, Label.REAL: 0}
        for doc in self.documents:
            if doc.label is not None:
                counts[doc.label] += 1
        return counts

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def labeled_only(self) -> "LabeledCorpus":
        return LabeledCorpus(tuple(d for d in self.documents if d.label is not None))

    def with_documents(self, documents: Iterable[Document]) -> "LabeledCorpus":
        return LabeledCorpus(tuple(documents))


@dataclass(frozen=True)
class SplitConfig:
    """Train/test split parameters. Defaults give a reproducible 80/20 split;
    every split is stratified by class."""

    test_fraction: float = 0.2
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")


def _round_half_up(x: float) -> int:
    import math

    return int(math.floor(x + 0.5))


def _parse_jsonl(text: str) -> list[Document]:
    docs = []
    for lineno, line in enumerate(text_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {lineno}: malformed JSON record: {exc}") from exc
        if not isinstance(record, dict):
            raise DataError(f"line {lineno}: record is not an object")
        if "id" not in record or "text" not in record:
            missing = [k for k in ("id", "text") if k not in record]
            raise DataError(f"line {lineno}: record missing {missing}")
        label = None
        if record.get("label") is not None:
            label = parse_label(record["label"], where=f"line {lineno}")
        docs.append(make_document(str(record["id"]), str(record["text"]), label))
    return docs


def _parse_csv(text: str) -> list[Document]:
    # the reader runs over the whole text, since a quoted field may hold newlines;
    # its line_num is the file line on which the record just read ends
    reader = csv.reader(io.StringIO(text))
    try:
        # blank lines are skipped, and so are the metadata comment lines before the header
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from exc
    rows = list(dropwhile(lambda numbered: numbered[1][0].startswith("#"), rows))
    if not rows:
        return []
    header_line, header = rows[0]
    if header != ["id", "text", "label"]:
        raise DataError(
            f"line {header_line}: CSV header must be exactly id,text,label, got {header}"
        )
    docs = []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise DataError(f"line {lineno}: expected 3 fields, got {len(row)}")
        doc_id, text_field, label_field = row
        label = parse_label(label_field, where=f"line {lineno}") if label_field else None
        docs.append(make_document(doc_id, text_field, label))
    return docs


def load_corpus(path) -> LabeledCorpus:
    """Load a labeled corpus: CSV when the file suffix is ``.csv`` (in any
    case), JSONL otherwise."""
    parse = _parse_csv if Path(path).suffix.lower() == ".csv" else _parse_jsonl
    return parse_file(path, lambda text: LabeledCorpus(tuple(parse(text))))


def corpus_to_jsonl(corpus: LabeledCorpus) -> str:
    """Serialize to the canonical JSONL form (load/serialize round-trips)."""
    lines = []
    for doc in corpus.documents:
        record: dict = {"id": doc.id, "text": doc.text}
        if doc.label is not None:
            record["label"] = doc.label.value
        lines.append(json.dumps(record, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def save_corpus(corpus: LabeledCorpus, path) -> None:
    """Write canonical JSONL."""
    Path(path).write_text(corpus_to_jsonl(corpus), encoding="utf-8")


def split(corpus: LabeledCorpus, cfg: SplitConfig) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Deterministic train/test partition of a fully labeled corpus.

    The split is stratified: round(class_count * test_fraction) test
    documents per class (half-up rounding). The same corpus, config and
    seed always produce the same partition.
    """
    for doc in corpus.documents:
        if doc.label is None:
            raise DataError(f"document {doc.id!r} is unlabeled; cannot split")

    rng = random.Random(cfg.seed)
    test_ids: set[str] = set()
    for label in (Label.FAKE, Label.REAL):
        members = [d.id for d in corpus.documents if d.label is label]
        if 0 < len(members) < 2:
            raise DataError(
                f"class {label.value!r} has {len(members)} document(s); "
                "stratified split needs at least 2 per class"
            )
        rng.shuffle(members)
        n_test = _round_half_up(len(members) * cfg.test_fraction)
        test_ids.update(members[:n_test])

    train_docs = tuple(d for d in corpus.documents if d.id not in test_ids)
    test_docs = tuple(d for d in corpus.documents if d.id in test_ids)
    return LabeledCorpus(train_docs), LabeledCorpus(test_docs)

