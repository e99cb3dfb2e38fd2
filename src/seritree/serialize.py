"""File formats: the two tree formats and the CSV table.

Trees ship in two interchangeable formats:

* CSV with header ``vertex,parent``, one row per vertex >= 1;
* a binary layout: 16-byte header (magic ``SERI-TREE\\0``, version byte, five
  zero bytes), a little-endian uint64 vertex count n, then n little-endian
  uint64 parents for vertices 1..n.

Every other table the CLI writes (degree pmf, fringe histograms, spectrum,
checkpoint and tracked degrees) goes through ``write_table``, from rows the
CLI builds out of its results, so this module needs nothing of the package
but ``growth``.  The CLI writes each run's ``report.json`` and
``manifest.json`` itself, in ``cli._finish``.
"""

from __future__ import annotations

import csv
import os
import struct
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .growth import TreeRecord, first_bad_parent

TREE_MAGIC = b"SERI-TREE\x00"
TREE_BINARY_VERSION = 1


def _put_digits(values: np.ndarray, out: np.ndarray) -> None:
    """ASCII decimal digits of `values`, right-aligned down the rows of `out`.

    The last row holds the ones digits, each row above it the next power of
    ten; rows left of a value's leading digit hold the byte 0.
    """
    q = values
    for i, row in enumerate(out[::-1]):
        rest = q // 10
        np.subtract(q, 10 * rest, out=row, casting="unsafe")
        row += ord("0")
        if i:
            row *= q > 0
        q = rest


_CSV_CHUNK = 65536  # rows of the tree CSV built and written, or read and checked, per block


def write_tree_csv(tree: TreeRecord, path: Union[str, Path]) -> None:
    # the bytes csv.writer wrote: every row, the header included, ends in \r\n
    n = tree.n
    width = len(str(n))
    dtype = np.min_scalar_type(n)  # the narrowest unsigned type that holds 0..n
    # one column per row of the file, as fixed-width bytes with 0 as padding;
    # one matrix of _CSV_CHUNK columns is refilled for each block of rows
    cols = np.empty((2 * width + 3, min(n, _CSV_CHUNK)), dtype=np.uint8)
    cols[width] = ord(",")
    cols[-2], cols[-1] = ord("\r"), ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"vertex,parent\r\n")
        for a in range(1, n + 1, _CSV_CHUNK):
            b = min(a + _CSV_CHUNK, n + 1)
            block = cols[:, : b - a]
            _put_digits(np.arange(a, b, dtype=dtype), block[:width])
            _put_digits(tree.parent[a:b].astype(dtype), block[width + 1 : 2 * width + 1])
            rows = block.T
            fh.write(rows[rows != 0])


def read_tree_csv(path: Union[str, Path]) -> TreeRecord:
    """Read a tree CSV into its parent array; refuses a malformed file with ValueError.

    The rows are parsed as int32 when the file is under 8 GiB: every row
    takes at least 4 bytes, so a file that size holds fewer than 2**31 rows,
    and a larger number in it cannot be a valid vertex or parent (numpy's
    reader refuses it).  Vertex order is checked block by block as the
    parents fill the final int64 array.
    """
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != ["vertex", "parent"]:
            raise ValueError(f"unexpected tree CSV header {header}")
        if not fh.readline().strip():
            raise ValueError("tree CSV holds no vertices")
        size = os.fstat(fh.fileno()).st_size
    # numpy's reader parses the file itself, far faster than from a line iterator
    dtype = np.int32 if size < 8 << 30 else np.int64
    rows = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2, comments=None, skiprows=1)
    if rows.shape[1] != 2:
        raise ValueError(f"tree CSV rows must hold exactly two fields; saw {rows.shape[1]}")
    parent = np.empty(len(rows) + 1, dtype=np.int64)
    parent[0] = -1
    for a in range(0, len(rows), _CSV_CHUNK):
        block = rows[a : a + _CSV_CHUNK]
        out_of_order = np.flatnonzero(block[:, 0] != np.arange(a + 1, a + 1 + len(block)))
        if out_of_order.size:
            row = block[out_of_order[0]].tolist()
            raise ValueError(f"tree CSV rows must be ordered by vertex; saw {row}")
        parent[a + 1 : a + 1 + len(block)] = block[:, 1]
    del rows
    m = first_bad_parent(parent)
    if m:
        raise ValueError(f"parent of vertex {m} must be < {m}")
    return TreeRecord(parent)


def write_tree_binary(tree: TreeRecord, path: Union[str, Path]) -> None:
    header = TREE_MAGIC + bytes([TREE_BINARY_VERSION]) + b"\x00" * 5
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<Q", tree.n))
        # no parent is negative, so its little-endian int64 bytes are its uint64
        # bytes; on a little-endian machine this writes the array itself
        fh.write(np.asarray(tree.parent[1:], dtype="<i8"))


def read_tree_binary(path: Union[str, Path]) -> TreeRecord:
    """Read a tree binary straight into its parent array; refuses a malformed file with ValueError.

    The file size is checked against the header's vertex count before
    anything is allocated, and the parents are checked block by block.
    """
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 24 or head[:10] != TREE_MAGIC:
            raise ValueError("not a tree binary (bad magic)")
        if head[10] != TREE_BINARY_VERSION:
            raise ValueError(f"unsupported tree binary version {head[10]}")
        (n,) = struct.unpack("<Q", head[16:24])
        if os.fstat(fh.fileno()).st_size != 24 + 8 * n:
            raise ValueError("tree binary length does not match the vertex count")
        if n < 1:
            raise ValueError("tree binary holds no edges")
        parent = np.empty(n + 1, dtype="<i8")
        if fh.readinto(parent[1:]) != 8 * n:
            raise ValueError("tree binary length does not match the vertex count")
    parent[0] = -1
    m = first_bad_parent(parent)
    if m:
        # a parent of 2**63 or more reads as a negative int64; report the file's uint64
        raise ValueError(f"tree binary: parent {int(parent[m]) % 2**64} of vertex {m} is not below {m}")
    return TreeRecord(parent)


def write_table(path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table: the header, then the rows, each line ending in \\r\\n."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
