"""Golden digests: fixed-seed outputs pinned byte for byte.

A refactor that keeps these digests keeps the random streams, the tree
layout, the file formats and the fringe keys exactly as they were.  A change
that alters a stream on purpose regenerates the affected digest and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from seritree.growth import GrowthParams, grow
from seritree.rng import CounterRng
from seritree.serialize import write_tree_binary, write_tree_csv
from seritree.treeops import bp_fringe_sample, empirical_fringe_distribution

N = 10**4
SEED = 20240611


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parents_digest(tree) -> str:
    return _sha(np.asarray(tree.parent, dtype="<i8").tobytes())


def _json_digest(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


PARENT_DIGESTS = {
    (0.0, "exact"): "c466a18e8761e09aafb1dc55ba2ed90610db2ce94bf2b4725deeb1780b339f9d",
    (1.0, "exact"): "ab043023685789d37d3340c284fdb3b3dd5f1f5ce64f8e5e51fb8bd983acd0a9",
    (2.5, "exact"): "b240a63e7617d4ddc4fa37f73216f80ed49d2c92a3fab76025a07a2eb2094cbf",
    (0.3, "exact"): "f28a5a8d23d7a030c7fab2bf4d70cc906fc8b1489b7bb0851838ae8550e607dc",
    (-0.5, "exact"): "d5a53fafd64c2aaca2aa4e052b8d59880816e526a6afd474f9db7ba11d800234",
    (-0.75, "paper_total"): "7c4a1a78041db3d08a63003485b3baec94bde646f55edffc0d426235327f10e8",
}


@pytest.mark.parametrize("delta,convention", sorted(PARENT_DIGESTS))
def test_grow_parent_digest(delta, convention):
    tree, _ = grow(GrowthParams(delta=delta, n_final=N, seed=SEED, convention=convention))
    assert tree.n == N
    assert _parents_digest(tree) == PARENT_DIGESTS[(delta, convention)]


def test_checkpoints_and_tracked_degrees():
    params = GrowthParams(delta=0.0, n_final=N, seed=SEED)
    _, snaps = grow(params, checkpoints=(1, 7, 100, 1000, N), track_vertices=(0, 1, 5, 500))
    payload = [
        [
            s.n,
            sorted((int(k), int(c)) for k, c in s.degree_counts.items()),
            sorted((int(v), int(d)) for v, d in s.tracked_degrees.items()),
        ]
        for s in snaps
    ]
    assert [s.n for s in snaps] == [1, 7, 100, 1000, N]
    assert _json_digest(payload) == "09467f607c73c026a3f50f8960a9a2be164acbfa984ccd497371bb30c4c70cbb"


def test_tree_file_bytes(tmp_path):
    tree, _ = grow(GrowthParams(delta=0.0, n_final=N, seed=SEED))
    write_tree_csv(tree, tmp_path / "tree.csv")
    write_tree_binary(tree, tmp_path / "tree.bin")
    assert _sha((tmp_path / "tree.csv").read_bytes()) == "efc7eae058113ea957f82562eb25d636aab68c9e1cd330662d08fd314d099d03"
    assert _sha((tmp_path / "tree.bin").read_bytes()) == "fec29577ab12001d4d2108359b6a306cebc896f6ec33b64cb33cf1a242099f9e"


@pytest.mark.parametrize("k,truncation,digest", [
    (0, 4, "242d1756300e6d3e9165f1bc76e1c1c66adc40aafba697d3f4b3b4f76735c52b"),
    (0, 12, "032d3e3ecb0e4bc01c8bd353af20b3f6a52fe784e597a204642bfd23fececf07"),
    (2, 12, "6bc4fc3831a319acd667fd924941c5dda9b2bb52be31ad2beb11861d54dffcea"),
])
def test_fringe_histogram_digest(k, truncation, digest):
    tree, _ = grow(GrowthParams(delta=0.0, n_final=N, seed=SEED))
    hist = empirical_fringe_distribution(tree, k=k, truncation=truncation)
    payload = [sorted(hist.counts.items()), hist.other, hist.total, hist.excluded_shallow]
    assert _json_digest(payload) == digest


def test_bp_fringe_keys_digest():
    rng = CounterRng(SEED)
    keys = [bp_fringe_sample(0.0, rng) for _ in range(200)]
    assert _sha("\n".join(keys).encode()) == "3bbf8a4a04add49a8b8daa269e88c23f82ae18ba874e896d5d9495aa160ee520"
