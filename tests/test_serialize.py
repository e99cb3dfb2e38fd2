import datetime
import json

import numpy as np
import pytest

import seritree
from seritree.cli import main
from seritree.growth import _CHECK_BLOCK, GrowthParams, TreeRecord, grow
from seritree.serialize import (
    _CSV_CHUNK,
    read_tree_binary,
    read_tree_csv,
    write_table,
    write_tree_binary,
    write_tree_csv,
)


@pytest.fixture
def tree():
    t, _ = grow(GrowthParams(delta=1.0, n_final=500, seed=12))
    return t


def test_tree_csv_roundtrip(tmp_path, tree):
    path = tmp_path / "tree.csv"
    write_tree_csv(tree, path)
    back = read_tree_csv(path)
    assert np.array_equal(back.parent, tree.parent)
    assert np.array_equal(back.degree, tree.degree)
    header = path.read_text().splitlines()[0]
    assert header == "vertex,parent"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    "vertex,parent\r\n",
    "v,p\r\n1,0\r\n",
    "vertex,parent\r\n2,0\r\n1,0\r\n",
    "vertex,parent\r\n1,0,5\r\n",  # a third field
    "vertex,parent\r\n1,0\r\n#2,0\r\n",  # not a comment: a row that is no number
])
def test_tree_csv_rejects_bad_input(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError):
        read_tree_csv(path)


@pytest.mark.parametrize("newline, final", [("\n", "\n"), ("\r\n", ""), ("\n", "")])
def test_tree_csv_reads_other_line_endings(tmp_path, tree, newline, final):
    # LF-only rows, or no newline after the last row, read back as the CRLF file does
    crlf = tmp_path / "tree.csv"
    write_tree_csv(tree, crlf)
    lines = crlf.read_bytes().decode().splitlines()
    other = tmp_path / "other.csv"
    other.write_bytes((newline.join(lines) + final).encode())
    back = read_tree_csv(other)
    assert np.array_equal(back.parent, read_tree_csv(crlf).parent)
    assert np.array_equal(back.parent, tree.parent)


def _string_tree_csv(tree, path):
    """The string-join writer, kept as the byte oracle of `write_tree_csv`."""
    rows = map("{},{}\r\n".format, range(1, tree.n + 1), tree.parent[1:].tolist())
    with open(path, "w", newline="") as fh:
        fh.write("vertex,parent\r\n" + "".join(rows))


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 9999, 10000, 10**5, 131073, 196609])
def test_tree_csv_bytes_match_string_writer(tmp_path, n):
    # the digit-width edges, where a parent can be one digit narrower than n,
    # and trees of several 65,536-row blocks, the last one a single row
    tree, _ = grow(GrowthParams(delta=0.0, n_final=n, seed=n))
    write_tree_csv(tree, tmp_path / "fast.csv")
    _string_tree_csv(tree, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_tree_binary_roundtrip(tmp_path, tree):
    path = tmp_path / "tree.bin"
    write_tree_binary(tree, path)
    raw = path.read_bytes()
    assert raw[:10] == b"SERI-TREE\x00"
    assert len(raw) == 24 + 8 * tree.n
    back = read_tree_binary(path)
    assert np.array_equal(back.parent, tree.parent)


def test_tree_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOT-A-TREE" + b"\x00" * 30)
    with pytest.raises(ValueError):
        read_tree_binary(path)
    path.write_bytes(b"SERI-TREE\x00\x07" + b"\x00" * 13)
    with pytest.raises(ValueError):
        read_tree_binary(path)
    path.write_bytes(b"SERI-TREE\x00\x01" + b"\x00" * 13)  # n = 0: no edges
    with pytest.raises(ValueError):
        read_tree_binary(path)


def test_tree_binary_rejects_bad_parents(tmp_path):
    path = tmp_path / "bad.bin"
    header = b"SERI-TREE\x00\x01" + b"\x00" * 5
    for parents, vertex in (([0, 2**63 + 1, 1], 2), ([0, 1, 3], 3)):
        path.write_bytes(header + np.array([len(parents)] + parents, dtype="<u8").tobytes())
        with pytest.raises(ValueError, match=f"parent {parents[vertex - 1]} of vertex {vertex} "):
            read_tree_binary(path)


def _binary(parents, n=None):
    header = b"SERI-TREE\x00\x01" + b"\x00" * 5
    count = len(parents) if n is None else n
    return header + np.array([count] + list(parents), dtype="<u8").tobytes()


def test_tree_binary_rejects_wrong_lengths(tmp_path, tree):
    path = tmp_path / "tree.bin"
    write_tree_binary(tree, path)
    raw = path.read_bytes()
    for bad in (raw[:-8], raw[:-1], raw + b"\x00", raw + b"\x00" * 8, _binary([0, 0], n=2**40)):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="length does not match"):
            read_tree_binary(path)


def _parents_with_bad_vertex(m):
    """Parents of vertices 1..m+10, a path but for vertex m, whose parent is m."""
    parents = np.arange(m + 10)
    parents[m - 1] = m
    return parents


def test_tree_binary_bad_parent_in_second_check_block(tmp_path):
    m = _CHECK_BLOCK + 3
    path = tmp_path / "bad.bin"
    path.write_bytes(_binary(_parents_with_bad_vertex(m)))
    with pytest.raises(ValueError, match=f"parent {m} of vertex {m} "):
        read_tree_binary(path)


def test_tree_csv_bad_parent_or_order_in_second_block(tmp_path):
    m = _CHECK_BLOCK + 3
    parents = _parents_with_bad_vertex(m)
    path = tmp_path / "bad.csv"
    path.write_text("vertex,parent\n" + "".join(f"{v},{p}\n" for v, p in enumerate(parents.tolist(), 1)))
    with pytest.raises(ValueError, match=f"parent of vertex {m} must be < {m}"):
        read_tree_csv(path)
    with pytest.raises(ValueError, match=f"parent of vertex {m} must be < {m}"):
        TreeRecord.from_parents(parents)
    rows = [f"{v},{v - 1}\n" for v in range(1, _CSV_CHUNK + 10)]
    rows[_CSV_CHUNK + 2], rows[_CSV_CHUNK + 3] = rows[_CSV_CHUNK + 3], rows[_CSV_CHUNK + 2]
    path.write_text("vertex,parent\n" + "".join(rows))
    with pytest.raises(ValueError, match="ordered by vertex"):
        read_tree_csv(path)


@pytest.mark.parametrize("row", ["2,3000000000", "2,-1", "99999999999,0", "2,1.5"])
def test_tree_csv_rejects_out_of_range_numbers(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"vertex,parent\n1,0\n{row}\n")
    with pytest.raises(ValueError):
        read_tree_csv(path)


def test_manifest_roundtrip(tmp_path):
    # the CLI's manifest.json holds the flags that produced the run
    assert main(["grow", "--delta", "0.5", "--seed", "9", "--n", "100", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "manifest.json").read_text())
    timestamp = payload.pop("timestamp")
    assert payload == {
        "command": "grow", "convention": "exact", "delta": 0.5, "format_version": "1",
        "n": 100, "reps": None, "seed": 9, "tool_version": seritree.__version__,
    }
    assert datetime.datetime.fromisoformat(timestamp).tzinfo is not None


def test_write_table(tmp_path):
    # csv quoting: a field holding a comma is quoted, the others are not
    write_table(tmp_path / "t.csv", ["key", "count", "frequency"], [["()", 3, "0.75"], ["(),()", 1, "0.25"]])
    assert (tmp_path / "t.csv").read_bytes() == b'key,count,frequency\r\n(),3,0.75\r\n"(),()",1,0.25\r\n'
