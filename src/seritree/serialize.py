"""File formats: the two tree formats and the CSV table.

Trees ship in two interchangeable formats:

* CSV with header ``vertex,parent``, then the row ``v,p`` of each vertex
  v = 1..n in order.  The writer ends every line in CRLF; the reader takes
  LF or CRLF, refuses every other form with an error that names the line,
  and parses the rows chunk by chunk with a byte kernel on uint64 lanes
  straight into the parent array;
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
import re
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


_CSV_CHUNK = 65536  # rows of the tree CSV built and written per block


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


# The tree CSV reader parses the rows in chunks of the file with a byte kernel
# on uint64 lanes (SWAR).  A word holds the 8 bytes that end a field, so the
# field's last digit is the word's high byte; the kernel XORs 0x30 into every
# byte, clears the bytes left of the field, checks that every byte left is
# 0..9, and folds pairs, quads and octets of digits by one multiply and shift
# each.
_READ_CHUNK = 1 << 18  # bytes of the tree CSV body read into the reused buffer per chunk
_PAD = 8  # zero bytes in front of the buffer, so the 8 bytes ending any field lie inside it
_ROW_CAP = 64  # most bytes of a partial row carried to the next chunk; a valid row has at most 40
_MAX_DIGITS = 19  # a uint64 holds every number of 19 digits
_KEEP = np.array([((1 << 8 * w) - 1) << 8 * (8 - w) for w in range(9)], dtype=np.uint64)  # the high w bytes


def _fold(words: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of the decimal fields ending (exclusive) at buffer offsets `ends`, `widths` bytes wide.

    `words[i]` is the little-endian uint64 of buffer bytes i..i+7.  Returns
    the values (uint64) and whether each field is 1 to 19 ASCII digits whose
    value is below 2**63.  A field wider than 8 digits is folded 8 digits (one
    limb) at a time, the last limb first.
    """
    ok = (widths >= 1) & (widths <= _MAX_DIGITS)
    value = np.zeros(len(ends), dtype=np.uint64)
    for digits in range(0, min(int(widths.max(initial=0)), _MAX_DIGITS), 8):
        y = words[np.maximum(ends - (digits + 8), 0)]
        y ^= 0x3030303030303030  # '0' in every byte
        y &= _KEEP[np.clip(widths - digits, 0, 8)]
        # every byte is a digit 0..9 iff neither it nor it + 6 reaches 16
        ok &= (((y + 0x0606060606060606) | y) & 0xF0F0F0F0F0F0F0F0) == 0
        y *= 2561  # 10 * 2**8 + 1: digit pairs in bytes 0, 2, 4, 6
        y >>= 8
        y &= 0x00FF00FF00FF00FF
        y *= 6553601  # 100 * 2**16 + 1: four-digit groups in 16-bit lanes 0, 2
        y >>= 16
        y &= 0x0000FFFF0000FFFF
        y *= 42949672960001  # 10000 * 2**32 + 1: the limb's value in the high 32 bits
        y >>= 32
        y *= 10**digits
        value += y
    ok &= value < 2**63
    return value, ok


def _row_error(row: bytes, vertex: int) -> ValueError:
    """The error for the row of `vertex` (line end removed) that failed the kernel's checks."""
    line = vertex + 1
    fields = re.fullmatch(rb"(0|[1-9][0-9]*),(0|[1-9][0-9]*)", row)
    if fields is None:
        return ValueError(
            f"tree CSV line {line} is not 'vertex,parent' as two decimal numbers "
            f"without signs, spaces or leading zeros: {row!r}"
        )
    if int(fields[1]) != vertex:
        return ValueError(f"tree CSV rows must be ordered by vertex; line {line} holds vertex {int(fields[1])}")
    return ValueError(f"parent of vertex {vertex} must be < {vertex}")


def _count_rows(fh, buf: bytearray) -> int:
    """Rows left in `fh`: its line feeds, and one more for a last row with no line end."""
    data = np.frombuffer(buf, dtype=np.uint8)
    rows, last = 0, 10
    while got := fh.readinto(memoryview(buf)[:_READ_CHUNK]):
        rows += int(np.count_nonzero(data[:got] == 10))
        last = buf[got - 1]
    return rows + (last != 10)


def _vertex_widths(first: int, count: int) -> np.ndarray:
    """The number of digits of each vertex first..first + count - 1."""
    widths = np.full(count, len(str(first)))
    power = 10 ** len(str(first))
    while power < first + count:
        widths[power - first :] += 1
        power *= 10
    return widths


def _parse_rows(fh, buf: bytearray, parent: np.ndarray) -> None:
    """Parse the rows left in `fh` into parent[1:], chunk by chunk through `buf`."""
    data = np.frombuffer(buf, dtype=np.uint8)
    words = np.ndarray(len(buf) - 7, dtype="<u8", buffer=buf, strides=(1,))
    vertex, carry = 1, 0  # the next row's vertex; its first bytes, already at buf[_PAD:]
    while True:
        got = fh.readinto(memoryview(buf)[_PAD + carry : _PAD + carry + _READ_CHUNK])
        end = _PAD + carry + got
        if got:
            stops = np.flatnonzero(data[_PAD:end] == 10)
            stops += _PAD
        elif carry:
            stops = np.array([end])  # the last row, with no line end
        else:
            break
        rows = len(stops)
        carry = end - (int(stops[-1]) + 1 if rows else _PAD)  # bytes after the last row end
        if rows:
            if vertex + rows > len(parent):
                raise ValueError("tree CSV changed while it was read")
            comma = np.empty_like(stops)  # each row's start, then its comma
            comma[0] = _PAD
            comma[1:] = stops[:-1] + 1
            if got:
                stops -= data[stops - 1] == 13  # a CR before the LF is part of the line end
            vertex_width = _vertex_widths(vertex, rows)
            comma += vertex_width
            # a row too short for its vertex keeps its comma inside it and fails below
            np.minimum(comma, stops - 1, out=comma)
            parent_width = stops - comma - 1
            value, ok = _fold(words, comma, vertex_width)
            ok &= value == np.arange(vertex, vertex + rows, dtype=np.uint64)
            del value
            ok &= data[comma] == 44
            ok &= (parent_width == 1) | (data[comma + 1] != 48)  # no leading zero
            value, parsed = _fold(words, stops, parent_width)
            ok &= parsed
            if not ok.all():
                i = int(np.flatnonzero(~ok)[0])
                start = max(buf.rfind(b"\n", _PAD, stops[i]) + 1, _PAD)
                raise _row_error(bytes(buf[start : min(stops[i], start + _ROW_CAP + 1)]), vertex + i)
            parent[vertex : vertex + rows] = value
            vertex += rows
        if not got:
            break
        if carry > _ROW_CAP:
            raise _row_error(bytes(buf[end - carry : end - carry + _ROW_CAP + 1]), vertex)
        buf[_PAD : _PAD + carry] = buf[end - carry : end]
    if vertex != len(parent):
        raise ValueError("tree CSV changed while it was read")


def read_tree_csv(path: Union[str, Path]) -> TreeRecord:
    """Read a tree CSV into its parent array; refuses a malformed file with ValueError.

    The file is the header ``vertex,parent`` and then the row ``v,p`` of
    every vertex v = 1..n in order, each line ending in LF or CRLF, the last
    one optionally in none.  v and p are decimal numbers without signs,
    spaces or leading zeros (a lone 0 is one), and p < v.  One pass counts
    the rows, so the parent array is allocated once; a second parses them
    chunk by chunk with `_fold`.  The first row that breaks the grammar is
    refused with its line; a parent not below its vertex, after the parse,
    with its vertex (`first_bad_parent`).
    """
    with open(path, "rb") as fh:
        header = fh.readline(len(b"vertex,parent\r\n"))
        if header not in (b"vertex,parent\n", b"vertex,parent\r\n"):
            raise ValueError(f"tree CSV line 1 is not the header 'vertex,parent': {header!r}")
        buf = bytearray(_PAD + _ROW_CAP + _READ_CHUNK)
        n = _count_rows(fh, buf)
        if n == 0:
            raise ValueError("tree CSV holds no vertices")
        parent = np.empty(n + 1, dtype=np.int64)
        parent[0] = -1
        fh.seek(len(header))
        _parse_rows(fh, buf, parent)
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
