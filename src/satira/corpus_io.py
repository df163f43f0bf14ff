"""Loading, saving and splitting labeled article collections.

A corpus is a flat sequence of documents, each carrying its token multiset.
Supported on-disk formats: JSONL (one object per line, keys ``id``, ``text``,
optional ``label``) and CSV with columns exactly ``id,text,label``. Both are
UTF-8 without BOM. Lines starting with ``#`` are metadata headers written by
the CLI and are skipped on load.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import DataError
from .fileio import read_text, text_lines


class Label(Enum):
    FAKE = "fake"
    REAL = "real"


class CorpusFormat(Enum):
    JSONL = "jsonl"
    CSV = "csv"


def parse_label(raw: str, where: str = "") -> Label:
    """Map the on-disk label string to a Label; anything else is an error."""
    if raw == "fake":
        return Label.FAKE
    if raw == "real":
        return Label.REAL
    suffix = f" ({where})" if where else ""
    raise DataError(f"unknown label {raw!r}; expected 'fake' or 'real'{suffix}")


@dataclass(frozen=True)
class Document:
    """One article: id, raw text, and its token multiset.

    ``tokens`` is the whitespace-split form of ``text`` at load time and is
    replaced by the cleaned token stream after preprocessing. Tokens never
    contain whitespace or empty strings.
    """

    id: str
    text: str
    tokens: tuple[str, ...]
    label: Optional[Label] = None

    def __post_init__(self):
        for t in self.tokens:
            if not t or t.split() != [t]:
                raise DataError(f"document {self.id!r}: invalid token {t!r}")

    @property
    def size(self) -> int:
        """Cardinality of the token multiset."""
        return len(self.tokens)


def make_document(doc_id: str, text: str, label: Optional[Label] = None) -> Document:
    return Document(id=doc_id, text=text, tokens=tuple(text.split()), label=label)


@dataclass(frozen=True)
class LabeledCorpus:
    documents: tuple[Document, ...]
    class_counts: dict[Label, int] = field(default_factory=dict)

    def __post_init__(self):
        ids = set()
        for doc in self.documents:
            if doc.id in ids:
                raise DataError(f"duplicate document id {doc.id!r}")
            ids.add(doc.id)
        counts = {Label.FAKE: 0, Label.REAL: 0}
        for doc in self.documents:
            if doc.label is not None:
                counts[doc.label] += 1
        object.__setattr__(self, "class_counts", counts)

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
    """Train/test split parameters. Defaults give a reproducible 80/20 split."""

    test_fraction: float = 0.2
    seed: int = 42
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")


def _round_half_up(x: float) -> int:
    import math

    return int(math.floor(x + 0.5))


def _parse_jsonl(lines: Iterable[str]) -> list[Document]:
    docs = []
    for lineno, line in enumerate(lines, start=1):
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
    reader = csv.reader(io.StringIO(text))
    rows = [(i, row) for i, row in enumerate(reader, start=1)]
    # drop metadata comment lines that precede the header
    rows = [(i, row) for i, row in rows if row and not row[0].startswith("#")]
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


def load_corpus(path, format: Optional[CorpusFormat] = None) -> LabeledCorpus:
    """Load a labeled corpus from a JSONL or CSV file.

    When ``format`` is omitted it is inferred from the file suffix.
    """
    path = Path(path)
    if format is None:
        suffix = path.suffix.lower()
        if suffix == ".csv":
            format = CorpusFormat.CSV
        else:
            format = CorpusFormat.JSONL
    raw = read_text(path)
    if format is CorpusFormat.JSONL:
        docs = _parse_jsonl(text_lines(raw))
    else:
        docs = _parse_csv(raw)
    return LabeledCorpus(tuple(docs))


def corpus_to_jsonl(corpus: LabeledCorpus) -> str:
    """Serialize to the canonical JSONL form (load/serialize round-trips)."""
    lines = []
    for doc in corpus.documents:
        record: dict = {"id": doc.id, "text": doc.text}
        if doc.label is not None:
            record["label"] = doc.label.value
        lines.append(json.dumps(record, ensure_ascii=False))
    return "".join(line + "\n" for line in lines)


def save_corpus(corpus: LabeledCorpus, path, header: str = "") -> None:
    """Write canonical JSONL, optionally preceded by ``#`` metadata lines."""
    body = corpus_to_jsonl(corpus)
    Path(path).write_text(header + body, encoding="utf-8")


def split(corpus: LabeledCorpus, cfg: SplitConfig) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Deterministic train/test partition of a fully labeled corpus.

    Stratified splits draw round(class_count * test_fraction) test documents
    per class (half-up rounding). The same corpus, config and seed always
    produce the same partition.
    """
    for doc in corpus.documents:
        if doc.label is None:
            raise DataError(f"document {doc.id!r} is unlabeled; cannot split")

    rng = random.Random(cfg.seed)
    test_ids: set[str] = set()
    if cfg.stratified:
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
    else:
        members = [d.id for d in corpus.documents]
        rng.shuffle(members)
        n_test = _round_half_up(len(members) * cfg.test_fraction)
        test_ids.update(members[:n_test])

    train_docs = tuple(d for d in corpus.documents if d.id not in test_ids)
    test_docs = tuple(d for d in corpus.documents if d.id in test_ids)
    return LabeledCorpus(train_docs), LabeledCorpus(test_docs)


def replace_tokens(doc: Document, tokens: Sequence[str]) -> Document:
    """New Document with the given token stream and text rebuilt from it."""
    return replace(doc, text=" ".join(tokens), tokens=tuple(tokens))
