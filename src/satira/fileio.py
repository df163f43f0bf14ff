"""Shared file helpers: phrase-list files, checksums, output metadata headers.

Phrase-list files (stop phrases and lexicons alike) are UTF-8 text, one
phrase per line; blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import DataError

TOOL_NAME = "satira"


def tool_version() -> str:
    from . import __version__

    return __version__


def read_phrase_file(path) -> list[str]:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    phrases = []
    for line in raw.splitlines():
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


def _comment_block(lines: list[str], format_tag: str) -> tuple[dict, int]:
    if not lines or lines[0] != f"# {format_tag}":
        raise DataError(f"unsupported file (expected header '# {format_tag}')")
    meta: dict[str, str] = {}
    for i, line in enumerate(lines):
        # comment lines never hold a tab; a tab-separated row whose first
        # field starts with "#" (a hashtag token or feature) is body
        if not line.startswith("#") or "\t" in line:
            return meta, i
        for part in line.lstrip("# ").split(" "):
            if "=" in part:
                key, value = part.split("=", 1)
                meta[key] = value
    return meta, len(lines)


def split_comment_block(text: str, format_tag: str) -> tuple[dict, list[str]]:
    """Validate the leading comment block and return (meta, body lines).

    The format tag must be the first line; key=value pairs may appear on
    any later comment line (the CLI splices tool/config metadata between
    the tag and the body).
    """
    lines = text.splitlines()
    meta, body_start = _comment_block(lines, format_tag)
    return meta, lines[body_start:]


class BodyReader:
    """Reads the body of a serialized file line by line, checking as it goes.

    The comment block is read as by ``split_comment_block``; blank body
    lines are skipped. Every ``DataError`` raised names the file line, so
    a truncated or corrupted file fails with a usable message.
    """

    def __init__(self, text: str, format_tag: str):
        self._lines = text.splitlines()
        self.meta, self._next = _comment_block(self._lines, format_tag)
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

    def end(self) -> None:
        if self.more:
            self.lineno = self._next + 1
            raise self.error("unexpected line after the last declared entry")


def parse_file(path, parse):
    """Parse a UTF-8 serialized file; data errors are prefixed with its path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_json(path) -> dict:
    """Read a JSON file, skipping the leading ``#`` metadata lines."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = "\n".join(l for l in lines if not l.startswith("#"))
    return json.loads(body)
