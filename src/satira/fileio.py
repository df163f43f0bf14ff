"""Shared file helpers: phrase-list files, checksums, output metadata headers,
and the line reader and float codec of every serialized artifact.

Phrase-list files (stop phrases and lexicons alike) are UTF-8 text, one
phrase per line; blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError

TOOL_NAME = "satira"


def tool_version() -> str:
    from . import __version__

    return __version__


def read_phrase_file(path) -> list[str]:
    phrases = []
    for line in read_text(path).splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        phrases.append(stripped)
    return phrases


def file_checksum(path) -> str:
    """Short sha256 of a file, recorded in output headers for reproducibility."""
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digest[:16]


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def metadata_header(config: dict, lexicon_checksums: dict[str, str] | None = None) -> str:
    """Comment block placed at the top of every CLI output file."""
    lines = [f"# {TOOL_NAME} {tool_version()}", f"# config-hash {config_hash(config)}"]
    for name, checksum in sorted((lexicon_checksums or {}).items()):
        lines.append(f"# lexicon {name} sha256:{checksum}")
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
    """Lines split on ``\\n`` only: ``str.splitlines`` would also cut at ``\\r``,
    ``\\x85``, U+2028 and other characters that a feature or a text may hold."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def float_rows(values, sep: str = " ") -> list[str]:
    """One line per leading index of ``values`` (a vector or scalar is one line),
    each float written as the shortest ``repr`` that parses back exactly."""
    rows = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return [sep.join(map(repr, row.ravel().tolist())) for row in rows]


class BodyReader:
    """Reads a serialized file line by line, checking as it goes.

    The format tag must be the first line; ``key=value`` pairs may follow on
    any comment line (the CLI splices its metadata in after the tag). The
    comment block ends at the first line not starting with ``#`` or holding
    a tab (a row may start with a hashtag feature). Blank body lines are
    skipped; every ``DataError`` names the file line.
    """

    def __init__(self, text: str, format_tag: str):
        self._lines = text_lines(text)
        if not self._lines or self._lines[0] != f"# {format_tag}":
            raise DataError(f"unsupported file (expected header '# {format_tag}')")
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

    def floats(self, what: str, count: int, label: str | None = None, sep: str = " ") -> np.ndarray:
        """Next line as ``count`` floats after ``label``, if given; inverse of ``float_rows``."""
        if label is None:
            parts = self.fields(what, count, sep)
        else:
            parts = self.fields(f"{what} {label}", count + 1, sep)
            if parts[0] != label:
                raise self.error(f"{what} {parts[0]} where {label} was expected")
            del parts[0]
        try:
            return np.array(parts, dtype=np.float64)
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def end(self) -> None:
        if self.more:
            self.lineno = self._next + 1
            raise self.error("unexpected line after the last declared entry")


def parse_file(path, parse):
    """Parse a UTF-8 serialized file; data errors are prefixed with its path."""
    text = read_text(path)
    try:
        return parse(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_json(path) -> dict:
    """Read a JSON file, skipping the leading ``#`` metadata lines."""
    body = "\n".join(l for l in text_lines(read_text(path)) if not l.startswith("#"))
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
