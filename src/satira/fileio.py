"""Shared file helpers: ``parse_file``, the reader of every input file,
phrase-list and JSON files, the metadata header of every CLI output (tool
version, config hash, a checksum per input file), and the line reader and
float codecs of every serialized artifact.

Artifacts hold one text line per matrix row in one of two float codecs.
``float_rows`` writes each float as its shortest ``repr``, for files meant
to be read by people; ``base64_rows`` writes the base64 of the row's
little-endian float64 bytes, or the single field ``0`` for a row whose
bytes are all zero, for the large CNN matrices. Both read back bit for bit.

Phrase-list files (stop phrases and lexicons alike) are UTF-8 text, one
phrase per line; blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError

TOOL_NAME = "satira"


def tool_version() -> str:
    from . import __version__

    return __version__


def file_checksum(path) -> str:
    """Short sha256 of a file, recorded in output headers for reproducibility."""
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digest[:16]


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def metadata_header(config: dict, input_checksums: dict[str, str]) -> str:
    """Comment block placed at the top of every CLI output file: the tool
    version, the hash of ``config`` and one ``# input <flag> sha256:<checksum>``
    line per input file. A line names the flag, never the path, since
    ``BodyReader`` reads ``key=value`` pairs from these lines and a path may
    hold ``=``."""
    lines = [f"# {TOOL_NAME} {tool_version()}", f"# config-hash {config_hash(config)}"]
    for flag, checksum in sorted(input_checksums.items()):
        lines.append(f"# input {flag} sha256:{checksum}")
    return "".join(line + "\n" for line in lines)


def read_text(path) -> str:
    """UTF-8 text of a file exactly as stored: no newline translation. A file
    that cannot be read or decoded is a ``DataError`` naming its path."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc


def text_lines(text: str) -> list[str]:
    """Lines split on ``\\n`` only, never at ``\\r``, ``\\x85``, U+2028 or another
    line-break character that a feature or a text may hold."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def float_rows(values, sep: str = " ") -> list[str]:
    """One line per leading index of ``values`` (a vector or scalar is one line),
    each float written as the shortest ``repr`` that parses back exactly."""
    rows = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return [sep.join(map(repr, row.ravel().tolist())) for row in rows]


# written for a row whose bytes are all zero; one character is never valid base64
ZERO_ROW = "0"


def base64_rows(values) -> list[str]:
    """One line per leading index of ``values`` (a vector or scalar is one line):
    the base64 of the row's little-endian float64 bytes, or ``ZERO_ROW`` when
    every byte is zero (so ``-0.0`` is written out, not as ``ZERO_ROW``)."""
    rows = np.atleast_2d(np.asarray(values, dtype="<f8"))
    rows = np.ascontiguousarray(rows.reshape(len(rows), int(np.prod(rows.shape[1:]))))
    nonzero = rows.view(np.uint64).any(axis=1).tolist()
    return [
        base64.b64encode(row.tobytes()).decode("ascii") if keep else ZERO_ROW
        for row, keep in zip(rows, nonzero)
    ]


class BodyReader:
    """Reads a serialized file line by line, checking as it goes.

    The first line must be one of the format tags; ``format`` is the tag
    found. ``key=value`` pairs may follow on any comment line (the CLI
    splices its metadata in after the tag). The comment block ends at the
    first line not starting with ``#`` or holding a tab (a row may start
    with a hashtag feature). Blank body lines are skipped; every
    ``DataError`` names the file line.
    """

    def __init__(self, text: str, *format_tags: str):
        self._lines = text_lines(text)
        first = self._lines[0] if self._lines else ""
        if first not in [f"# {tag}" for tag in format_tags]:
            expected = " or ".join(f"'# {tag}'" for tag in format_tags)
            raise DataError(f"unsupported file (expected header {expected})")
        self.format = first[2:]
        self.meta: dict[str, str] = {}
        self._next = 0
        for line in self._lines:
            if not line.startswith("#") or "\t" in line:
                break
            for part in line.lstrip("# ").split(" "):
                if "=" in part:
                    key, value = part.split("=", 1)
                    self.meta[key] = value
            self._next += 1
        self.lineno = self._next  # 1-based number of the line last read

    def error(self, message: str) -> DataError:
        return DataError(f"line {self.lineno}: {message}")

    def meta_count(self, key: str, least: int) -> int:
        """Header ``key=value`` as an integer of at least ``least``."""
        value = self.meta_value(key, int)
        if value < least:
            raise DataError(f"header {key}={value} must be >= {least}")
        return value

    def meta_value(self, key: str, cast):
        """Header ``key=value`` converted by ``cast``."""
        if key not in self.meta:
            raise DataError(f"header lacks {key}=")
        try:
            return cast(self.meta[key])
        except ValueError as exc:
            raise DataError(f"header {key}={self.meta[key]!r} is malformed") from exc

    @property
    def more(self) -> bool:
        while self._next < len(self._lines) and not self._lines[self._next]:
            self._next += 1
        return self._next < len(self._lines)

    def fields(self, what: str, count: int | None = None, sep: str = "\t") -> list[str]:
        """Next line split on ``sep``, optionally checked to hold ``count`` fields."""
        if not self.more:
            raise DataError(f"file ends after line {len(self._lines)}; expected {what}")
        parts = self._lines[self._next].split(sep)
        self._next += 1
        self.lineno = self._next
        if count is not None and len(parts) != count:
            raise self.error(f"{what}: expected {count} fields, got {len(parts)}")
        return parts

    def parse(self, cast, *values) -> list:
        try:
            return list(map(cast, values))
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def _row(self, what: str, count: int, label: str | None, sep: str) -> list[str]:
        """Next line's ``count`` fields after ``label``, if given."""
        if label is None:
            return self.fields(what, count, sep)
        parts = self.fields(f"{what} {label}", count + 1, sep)
        if parts[0] != label:
            raise self.error(f"{what} {parts[0]} where {label} was expected")
        return parts[1:]

    def floats(self, what: str, count: int, label: str | None = None, sep: str = " ",
               out: np.ndarray | None = None) -> np.ndarray:
        """Next line as ``count`` floats after ``label``, if given; inverse of
        ``float_rows``. With ``out``, a zero-filled array of ``count``, the floats
        are stored there and ``out`` is returned."""
        parts = self._row(what, count, label, sep)
        try:
            values = np.array(parts, dtype=np.float64)
        except ValueError as exc:
            raise self.error(str(exc)) from exc
        if out is None:
            return values
        out[:] = values
        return out

    def base64_floats(self, what: str, count: int, label: str | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
        """As ``floats``, for the inverse of ``base64_rows``: the field must be
        ``ZERO_ROW`` or strict base64 of exactly ``8 * count`` bytes. A
        ``ZERO_ROW`` leaves ``out`` untouched, so reading one costs no memory
        however large ``count`` is."""
        (field,) = self._row(what, 1, label, " ")
        if field == ZERO_ROW:
            return np.zeros(count, dtype=np.float64) if out is None else out
        try:
            raw = base64.b64decode(field, validate=True)
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from exc
        if len(raw) != 8 * count:
            raise self.error(f"{what}: expected {count} floats ({8 * count} bytes), "
                             f"got {len(raw)} bytes")
        values = np.frombuffer(raw, dtype="<f8")
        if out is None:
            return values.astype(np.float64)
        out[:] = values
        return out

    @property
    def lines_left(self) -> int:
        """Lines not read yet, blank ones included: no more rows than this can follow."""
        return len(self._lines) - self._next

    def end(self) -> None:
        if self.more:
            self.lineno = self._next + 1
            raise self.error("unexpected line after the last declared entry")


def parse_file(path, parse):
    """``parse`` applied to the text of a UTF-8 input file; its data errors, and
    the ``ValueError`` of a value it rejects, are ``DataError``s prefixed with
    the path, so this is where every input error names its file."""
    text = read_text(path)
    try:
        return parse(text)
    except (DataError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def parse_phrase_file(path, build):
    """``build`` applied to the phrases of a phrase-list file, in file order."""

    def parse(text: str):
        lines = (line.strip() for line in text_lines(text))
        return build([line for line in lines if line and not line.startswith("#")])

    return parse_file(path, parse)


def read_phrase_file(path) -> list[str]:
    return parse_phrase_file(path, list)


def json_object(text: str) -> dict:
    """A JSON object from text whose ``#`` metadata lines are blanked, not
    dropped, so an error names the line of the file."""
    body = "\n".join("" if line.startswith("#") else line for line in text_lines(text))
    try:
        value = json.loads(body)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {exc.lineno}: {exc.msg} (column {exc.colno})") from exc
    if not isinstance(value, dict):
        raise DataError("expected a JSON object")
    return value


def load_json(path) -> dict:
    """A JSON object file such as ``run.json`` or a ``--config`` file."""
    return parse_file(path, json_object)
