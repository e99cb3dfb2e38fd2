import json

import numpy as np
import pytest

from seritree.growth import GrowthParams, grow
from seritree.limits import DegreePMF, yule_marked_simulate
from seritree.rng import CounterRng
from seritree.serialize import (
    RunManifest,
    read_tree_binary,
    read_tree_csv,
    write_histogram_csv,
    write_pmf_csv,
    write_spectrum_csv,
    write_trajectory_csv,
    write_tree_binary,
    write_tree_csv,
)
from seritree.treeops import FringeHistogram, empirical_fringe_distribution


@pytest.fixture
def tree():
    t, _ = grow(GrowthParams(delta=1.0, n_final=500, seed=12))
    return t


def test_tree_csv_roundtrip(tmp_path, tree):
    path = tmp_path / "tree.csv"
    write_tree_csv(tree, path)
    back = read_tree_csv(path, delta=1.0)
    assert np.array_equal(back.parent, tree.parent)
    assert np.array_equal(back.degree, tree.degree)
    header = path.read_text().splitlines()[0]
    assert header == "vertex,parent"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["vertex,parent\r\n", "v,p\r\n1,0\r\n", "vertex,parent\r\n2,0\r\n1,0\r\n"])
def test_tree_csv_rejects_bad_input(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError):
        read_tree_csv(path)


def test_tree_binary_roundtrip(tmp_path, tree):
    path = tmp_path / "tree.bin"
    write_tree_binary(tree, path)
    raw = path.read_bytes()
    assert raw[:10] == b"SERI-TREE\x00"
    assert len(raw) == 24 + 8 * tree.n
    back = read_tree_binary(path, delta=1.0)
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


def test_manifest_roundtrip(tmp_path):
    m = RunManifest(command="grow", delta=0.5, seed=9, convention="exact", n=100)
    path = tmp_path / "manifest.json"
    m.write(path)
    back = RunManifest.read(path)
    assert back == m
    payload = json.loads(path.read_text())
    assert payload["format_version"] == "1"
    assert payload["tool_version"]
    assert payload["timestamp"]
    # manifests written while `sampler` was a field still load
    assert "sampler" not in payload
    assert RunManifest.from_json(json.dumps({**payload, "sampler": None})) == m


def test_pmf_and_histogram_csv(tmp_path):
    pmf = DegreePMF(p={1: 0.75, 2: 0.25}, n_samples=4, stderr={1: 0.1, 2: 0.1})
    write_pmf_csv(pmf, tmp_path / "pmf.csv")
    lines = (tmp_path / "pmf.csv").read_text().splitlines()
    assert lines[0] == "k,probability,stderr"
    assert len(lines) == 3

    hist = FringeHistogram(counts={"()": 3, "(())": 1}, other=2, total=6, truncation=2)
    write_histogram_csv(hist, tmp_path / "hist.csv")
    lines = (tmp_path / "hist.csv").read_text().splitlines()
    assert lines[0] == "key,count,frequency"
    assert any(line.startswith("(other)") for line in lines)


def test_trajectory_and_spectrum_csv(tmp_path):
    path_obj = yule_marked_simulate(0.0, 2.0, CounterRng(3))
    write_trajectory_csv(path_obj, tmp_path / "traj.csv")
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,Y,D,W"
    assert len(lines) == len(path_obj.t) + 1

    write_spectrum_csv(np.array([-1.0, 0.0, 1.0]), tmp_path / "spec.csv")
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert lines[0] == "eigenvalue"
    assert len(lines) == 4
