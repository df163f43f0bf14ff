import hashlib

import numpy as np
import pytest

from satira.fileio import file_checksum

MIB = 1 << 20  # the block file_checksum reads at a time


@pytest.mark.parametrize("size", [0, 1, MIB, 2 * MIB + 1])
def test_file_checksum_reads_blocks_to_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "input.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert file_checksum(path) == hashlib.sha256(path.read_bytes()).hexdigest()[:16]
