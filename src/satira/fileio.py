"""Shared file helpers: ``parse_file``, the reader of every input file, and
``parse_lines``, which reads a file too large to hold whole one block of
lines at a time; phrase-list and JSON files, the metadata header of every
CLI output (tool version, config hash, a checksum per input file), and the
reader and float codecs of every serialized artifact.

``BodyReader`` reads an artifact's header, then its body a line at a time
(``fields``) or, where rows share one shape, a table at a time (``table``).
A ``Table`` is checked and converted a whole column at a time, and its error
names the first faulty line, with the message a line-at-a-time read gives.

Artifacts hold one text line per matrix row in one of two float codecs.
``float_rows`` writes each float as its shortest ``repr``, for files meant
to be read by people; ``base64_rows`` writes the base64 of the row's
little-endian float64 bytes, or the single field ``0`` for a row whose
bytes are all zero, for the large CNN matrices. ``Table.floats`` and
``Table.base64_floats`` read them back bit for bit.

Phrase-list files (stop phrases and lexicons alike) are UTF-8 text, one
phrase per line; blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError

TOOL_NAME = "satira"


def tool_version() -> str:
    from . import __version__

    return __version__


def file_checksum(path) -> str:
    """Short sha256 of a file, recorded in output headers for reproducibility.
    It reads 1 MiB at a time, so a large input is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()[:16]


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


# bytes read at a time by ``parse_lines``, which holds about one block of a file, and
# decoded at a time by ``Table.base64_floats``
LINE_BLOCK = 1 << 20


def _utf8_error(exc: UnicodeDecodeError, offset: int) -> DataError:
    """The ``read_text`` error for ``exc``, raised while decoding bytes that start at
    ``offset`` in the file, so its positions count from the start of the file."""
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end - start == 1
             else f"bytes in position {start}-{end - 1}")
    return DataError(f"not valid UTF-8: '{exc.encoding}' codec can't decode {where}: "
                     f"{exc.reason}")


def _line_blocks(path):
    """The lines of a UTF-8 file as ``text_lines`` splits them, in one list per block
    of ``LINE_BLOCK`` bytes that ends a line. The bytes after a block's last ``\\n``
    are carried over to the next block, so the whole file is never held. The bytes
    are cut before they are decoded: a ``\\n`` byte is never part of a longer UTF-8
    character. Errors are ``DataError``s without the path."""
    offset = 0  # file position of the first byte not yet decoded
    carry: list[bytes] = []  # the start of the line that crosses into the next block

    def decode(data: bytes) -> list[str]:
        try:
            return data.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, offset) from exc

    try:
        with open(path, "rb") as fh:
            while block := fh.read(LINE_BLOCK):
                cut = block.rfind(b"\n") + 1
                if not cut:
                    carry.append(block)
                    continue
                data = b"".join((*carry, memoryview(block)[:cut]))
                lines = decode(data)
                lines.pop()  # the empty text after the last "\n"
                offset += len(data)
                carry = [block[cut:]]
                yield lines
            if tail := b"".join(carry):
                yield decode(tail)
    except OSError as exc:
        raise DataError(str(exc)) from exc


def float_rows(values, sep: str = " ") -> list[str]:
    """One line per leading index of ``values`` (a vector or scalar is one line),
    each float written as the shortest ``repr`` that parses back exactly."""
    rows = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return [sep.join(map(repr, row.ravel().tolist())) for row in rows]


# written for a row whose bytes are all zero; one character is never valid base64
ZERO_ROW = "0"


def base64_rows(values) -> Iterator[str]:
    """One line per leading index of ``values`` (a vector or scalar is one line),
    each made when it is read: the base64 of the row's little-endian float64 bytes,
    or ``ZERO_ROW`` when every byte is zero (``-0.0`` has a non-zero byte)."""
    rows = np.atleast_2d(np.asarray(values, dtype="<f8"))
    rows = np.ascontiguousarray(rows.reshape(len(rows), int(np.prod(rows.shape[1:]))))
    nonzero = rows.view(np.uint64).any(axis=1).tolist()
    return (base64.b64encode(row.tobytes()).decode("ascii") if keep else ZERO_ROW
            for row, keep in zip(rows, nonzero))


class Table:
    """Rows of one shape read by ``BodyReader.table``, each the list of its fields,
    and the first fault found in them.

    A loader checks whole columns, one check at a time, in the order the checks of
    one row run. Each check records the first row it rejects with ``fault``; the
    fault of the lowest row is kept, and of two at one row the one recorded first,
    so ``check`` raises what reading the rows one at a time would have raised at
    the first faulty row. ``ok`` is the number of rows before that fault, so a
    check need look no further, and a value converted from a row at or after it
    is never used.
    """

    def __init__(self, rows: list[list[str]], lines, count: int, error: DataError | None):
        self.rows = rows
        self.ok = len(rows)
        self._lines = lines  # 1-based file line of each row
        self._count = count  # fields per row
        self._error = error  # the fault of the row after the last, if any

    def fault(self, i: int, message: str) -> None:
        if i < self.ok:
            self.ok = i
            self._error = DataError(f"line {self._lines[i]}: {message}")

    def first(self, bad: list, message) -> None:
        """Record ``message(i)`` as the fault of the first row ``i`` flagged in ``bad``."""
        try:
            i = bad.index(True, 0, self.ok)
        except ValueError:
            return
        self.fault(i, message(i))

    def check(self) -> None:
        if self._error is not None:
            raise self._error

    def cast(self, cast, column) -> list:
        """``cast`` of each value of ``column`` (one field of every row), up to the
        first it rejects with a ``ValueError``, whose message is that row's fault."""
        return self._each(cast, column, range(len(column)))

    def _each(self, convert, values, rows, prefix: str = "") -> list:
        """``convert`` of each of ``values``, the one of row ``rows[j]`` at ``j``, up
        to the first it rejects with a ``ValueError``: its message, after ``prefix``,
        is that row's fault."""
        try:
            return list(map(convert, values))
        except ValueError:
            done = []
            for row, value in zip(rows, values):
                try:
                    done.append(convert(value))
                except ValueError as exc:
                    self.fault(row, prefix + str(exc))
                    break
            return done

    def labels(self, what: str, expected: list[str]) -> None:
        """Each row's first field must be its label in ``expected``."""
        found = [row[0] for row in self.rows]
        if found != expected:
            self.first([a != b for a, b in zip(found, expected)],
                       lambda i: f"{what} {found[i]} where {expected[i]} was expected")

    def numbered(self, keys, numbers: list, start: int, message) -> dict:
        """``{key: number}`` over the rows, after recording ``message(i)`` as the
        fault of the first row ``i`` whose number is not ``start + i`` or whose key
        an earlier row holds."""
        n = self.ok
        index = dict(zip(keys[:n], numbers[:n]))
        if len(index) < n or numbers[:n] != list(range(start, start + n)):
            seen = set()
            for i, (key, number) in enumerate(zip(keys[:n], numbers)):
                if number != start + i or key in seen:
                    self.fault(i, message(i))
                    break
                seen.add(key)
        return index

    def floats(self, start: int) -> np.ndarray:
        """Fields ``start:`` of the rows before the first fault as one float64 array
        of a row each, cast as ``np.array`` casts text; inverse of ``float_rows``.
        A row it cannot cast is a fault, and the array ends before it."""
        try:
            values = np.array([v for row in self.rows[:self.ok] for v in row[start:]],
                              dtype=np.float64)
        except ValueError:
            self._each(lambda row: np.array(row[start:], dtype=np.float64),
                       self.rows[:self.ok], range(self.ok))
            values = np.array([v for row in self.rows[:self.ok] for v in row[start:]],
                              dtype=np.float64)
        return values.reshape(self.ok, self._count - start)

    def base64_floats(self, what: str, field: int, out: np.ndarray) -> None:
        """Field ``field`` of each row before the first fault, the inverse of
        ``base64_rows``, decoded into the same row of ``out``, a zero-filled array
        of ``count`` floats a row: ``ZERO_ROW`` leaves the row untouched, so it costs
        no memory however large ``count`` is, and any other field must be strict
        base64 of exactly ``8 * count`` bytes. About ``LINE_BLOCK`` bytes are decoded
        at a time, so no second copy of ``out`` is held."""
        count = out.shape[1]
        step = max(1, LINE_BLOCK // (8 * count))
        decode = partial(binascii.a2b_base64, strict_mode=True)
        for begin in range(0, self.ok, step):
            keep = [i for i in range(begin, min(begin + step, self.ok))
                    if self.rows[i][field] != ZERO_ROW]
            raw = self._each(decode, [self.rows[i][field] for i in keep], keep, f"{what}: ")
            sizes = list(map(len, raw))
            if sizes.count(8 * count) < len(sizes):
                j = next(j for j, size in enumerate(sizes) if size != 8 * count)
                self.fault(keep[j], f"{what}: expected {count} floats ({8 * count} bytes), "
                                    f"got {sizes[j]} bytes")
                del raw[j:]
            if raw:
                decoded = np.frombuffer(b"".join(raw), dtype="<f8")
                out[keep[:len(raw)]] = decoded.reshape(len(raw), count)
                del decoded
            del raw  # so that no two blocks are held at once
            if self.ok < begin + step:
                return


class BodyReader:
    """Reads a serialized file, checking as it goes: a line at a time with
    ``fields``, or a table of rows of one shape at a time with ``table``.

    The format tag must be a line of the leading comment block (the CLI
    writes its metadata lines before it), which ends at the first line not
    starting with ``#`` or holding a tab (a row may start with a hashtag
    feature); ``key=value`` pairs may stand on any of its lines. Blank body
    lines are skipped; every ``DataError`` names the file line.
    """

    def __init__(self, text: str, format_tag: str):
        self._lines = text_lines(text)
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
        if f"# {format_tag}" not in self._lines[:self._next]:
            raise DataError(f"unsupported file (expected header '# {format_tag}')")
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

    def table(self, what, count: int, sep: str = "\t", rows: int | None = None) -> Table:
        """The remaining non-blank lines, or the next ``rows`` of them, each split
        on ``sep``. Each must hold ``count`` fields: the table ends before the first
        that does not, or where the file ends short of ``rows`` lines, and holds the
        error that ``fields`` raises there as that row's fault. ``what`` names a row
        in messages: a string, or a function of the row's index in the table."""
        name = what if callable(what) else lambda i: what
        start = self._next
        lines = self._lines[start:] if rows is None else self._lines[start:start + rows]
        if "" in lines:  # blank lines are skipped, so their rows come from further on
            numbers = [i + 1 for i in range(start, len(self._lines)) if self._lines[i]]
            numbers = numbers[:rows]
            lines = [self._lines[i - 1] for i in numbers]
        else:
            numbers = range(start + 1, start + 1 + len(lines))
        if numbers:
            self._next = self.lineno = numbers[-1]
        parts = [line.split(sep) for line in lines]
        error = None
        if set(map(len, parts)) - {count}:
            k = next(i for i, fields in enumerate(parts) if len(fields) != count)
            error = DataError(f"line {numbers[k]}: {name(k)}: expected {count} fields, "
                              f"got {len(parts[k])}")
            del parts[k:]
        elif rows is not None and len(parts) < rows:
            error = DataError(f"file ends after line {len(self._lines)}; "
                              f"expected {name(len(parts))}")
        return Table(parts, numbers, count, error)

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


def parse_lines(path, parse):
    """As ``parse_file``, for a file too large to hold whole: ``parse`` is given an
    iterator over the file's lines, one list per block read. Every error, reading
    and decoding errors too, is a ``DataError`` prefixed with the path, and a file
    that cannot be read or is not UTF-8 is refused as such, as ``parse_file``
    refuses it, even when ``parse`` stops at an error on an earlier line."""
    blocks = _line_blocks(path)
    try:
        return parse(blocks)
    except (DataError, ValueError) as exc:
        error = exc
    try:
        for _ in blocks:  # the rest of the file, read only to find an unreadable byte
            pass
    except DataError as exc:
        error = exc
    raise DataError(f"{path}: {error}") from error


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
