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
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, dropwhile
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

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


def _word_ids(seqs: Sequence[Sequence[str]]) -> tuple[np.ndarray, list[str]]:
    """Dense int32 ids of the tokens of the concatenated sequences, in order of
    first appearance, and the distinct tokens by id."""
    index = {token: i for i, token in enumerate(dict.fromkeys(chain.from_iterable(seqs)))}
    ids = map(index.__getitem__, chain.from_iterable(seqs))
    return np.fromiter(ids, dtype=np.int32, count=sum(map(len, seqs))), list(index)


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

    @cached_property
    def token_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """The id of every token of the documents, concatenated in order, as an
        int32 array, and the distinct tokens by id, as an object array (``_word_ids``
        of each ``doc.tokens``), both read-only and computed on first use. The
        corpus and its documents are frozen, so the ids never go stale; n-gram
        counting shares both arrays instead of numbering the tokens again."""
        ids, tokens = _word_ids([doc.tokens for doc in self.documents])
        table = np.array(tokens, dtype=object)
        ids.flags.writeable = table.flags.writeable = False
        return ids, table

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _round_half_up(x: float) -> int:
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
        for key in ("id", "text"):
            if not isinstance(record.get(key), str):
                got = json.dumps(record[key])[:40] if key in record else "nothing"
                raise DataError(f"line {lineno}: {key!r} must be a string, got {got}")
        label = None
        if record.get("label") is not None:
            label = parse_label(record["label"], where=f"line {lineno}")
        docs.append(make_document(record["id"], record["text"], label))
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


def corpus_to_jsonl(corpus: LabeledCorpus) -> Iterable[str]:
    """The canonical JSONL form (load/serialize round-trips), a line at a time."""
    for doc in corpus.documents:
        record: dict = {"id": doc.id, "text": doc.text}
        if doc.label is not None:
            record["label"] = doc.label.value
        yield json.dumps(record, ensure_ascii=False) + "\n"


def save_corpus(corpus: LabeledCorpus, path) -> None:
    """Write canonical JSONL, a line at a time."""
    with Path(path).open("w", encoding="utf-8") as f:
        f.writelines(corpus_to_jsonl(corpus))


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
        if len(members) < 2:
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

