import hashlib

import numpy as np
import pytest

from satira import DataError
from satira.fileio import (
    LINE_BLOCK,
    BodyReader,
    file_checksum,
    parse_lines,
    read_text,
    text_lines,
)

MIB = 1 << 20  # the block file_checksum reads at a time


@pytest.mark.parametrize("size", [0, 1, MIB, 2 * MIB + 1])
def test_file_checksum_reads_blocks_to_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "input.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert file_checksum(path) == hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def lines_read(path) -> list[str]:
    return parse_lines(path, lambda blocks: [line for block in blocks for line in block])


@pytest.mark.parametrize("block", [1, 7, 64, LINE_BLOCK])
@pytest.mark.parametrize("text", [
    "", "\n", "a", "a\n", "\n\nb", "one\r\ntwo\rthree\n",
    "ق\x85ال خبر\n" * 9 + "no newline at the end",
    "😀" * 40 + "\n" + "x" * 200 + "\n\n",
])
def test_parse_lines_splits_as_text_lines(tmp_path, monkeypatch, block, text):
    # every block size cuts some multi-byte character or line; only "\n" ends a line
    monkeypatch.setattr("satira.fileio.LINE_BLOCK", block)
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    assert lines_read(path) == text_lines(read_text(path))


def test_parse_lines_holds_one_block_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr("satira.fileio.LINE_BLOCK", 64)
    path = tmp_path / "input.txt"
    path.write_text("abcdefghi\n" * 100, encoding="utf-8")
    sizes = parse_lines(path, lambda blocks: [len(block) for block in blocks])
    assert sum(sizes) == 100 and max(sizes) <= 7


@pytest.mark.parametrize("data", [
    b"ok\n\xff\n", b"ok\n" * 40 + b"a\xe2\x82\nb\n", b"ok\n" * 40 + b"tail \xf0\x9f\x98",
    b"ok\n" * 40 + b"\xed\xa0\x80\n",
])
@pytest.mark.parametrize("block", [7, LINE_BLOCK])
def test_invalid_utf8_is_named_as_read_text_names_it(tmp_path, monkeypatch, data, block):
    monkeypatch.setattr("satira.fileio.LINE_BLOCK", block)
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(DataError) as whole:
        read_text(path)
    with pytest.raises(DataError) as streamed:
        lines_read(path)
    assert str(streamed.value) == str(whole.value)
    assert str(streamed.value).startswith(f"{path}: not valid UTF-8: ")


def test_unreadable_file_is_named_as_read_text_names_it(tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(DataError) as whole:
            read_text(path)
        with pytest.raises(DataError) as streamed:
            lines_read(path)
        assert str(streamed.value) == str(whole.value)


def test_a_decoding_error_wins_over_an_error_on_an_earlier_line(tmp_path, monkeypatch):
    # as when the file was read whole before it was parsed
    monkeypatch.setattr("satira.fileio.LINE_BLOCK", 7)
    path = tmp_path / "input.txt"
    path.write_bytes(b"bad line\n" + b"fine\n" * 10 + b"\xff\n")

    def refuse_first_line(blocks):
        next(blocks)
        raise DataError("line 1: refused")

    with pytest.raises(DataError, match=r"input.txt: not valid UTF-8: .*position 59"):
        parse_lines(path, refuse_first_line)
    path.write_bytes(b"bad line\n" + b"fine\n" * 10)
    with pytest.raises(DataError, match=r"input.txt: line 1: refused$"):
        parse_lines(path, refuse_first_line)


def test_a_section_line_is_a_one_row_table():
    r = BodyReader("# tag\na\tb\nc d e\n", "tag")
    first = r.table("first", 2, rows=1)
    first.check()
    assert first.rows == [["a", "b"]] and r.lines_left == 1
    second = r.table("second", None, sep=" ", rows=1)  # no count: any number of fields
    assert second.rows == [["c", "d", "e"]] and r.lines_left == 0
    second.fault(0, "refused")
    with pytest.raises(DataError, match=r"^line 3: refused$"):
        second.check()
    with pytest.raises(DataError, match=r"^file ends after line 3; expected third$"):
        r.table("third", None, rows=1).check()
    r.end()
    with pytest.raises(DataError, match=r"^line 2: first: expected 3 fields, got 2$"):
        BodyReader("# tag\na\tb\n", "tag").table("first", 3, rows=1).check()
    with pytest.raises(DataError, match=r"^line 2: unexpected line after the last declared entry$"):
        BodyReader("# tag\na\tb\n", "tag").end()


@pytest.mark.parametrize("text, line", [
    ("# tag\n\na\tb\n", 2), ("# tag\na\tb\n\nc\td\n", 3), ("# tag\na\tb\n\n", 3)])
def test_a_blank_line_is_a_row(text, line):
    # no writer emits one, so it is refused where it stands, not skipped
    table = BodyReader(text, "tag").table("row", 2)
    assert len(table.rows) == line - 2
    with pytest.raises(DataError, match=rf"^line {line}: row: expected 2 fields, got 1$"):
        table.check()
    r = BodyReader(text, "tag")
    r.table("rows", None, rows=line - 2)
    blank = r.table("row", None, rows=1)
    assert blank.rows == [[""]]
    blank.fault(0, "refused")
    with pytest.raises(DataError, match=rf"^line {line}: refused$"):
        blank.check()
