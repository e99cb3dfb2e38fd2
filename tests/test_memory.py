"""Working-memory bounds of the estimators, tree readers and writers, the child and degree counts, the tail fit and the fringe scan.

tracemalloc sees numpy's buffers, so its peak is the largest amount of
memory the call held at once, whatever the platform's allocator does.
"""

import tracemalloc

import pytest

from seritree.analysis import tail_ccdf, tail_window_sensitivity
from seritree.growth import GrowthParams, TreeRecord, grow, value_counts
from seritree.limits import mc_zeta_hat
from seritree.rng import CounterRng
from seritree.serialize import read_tree_binary, read_tree_csv, write_tree_binary, write_tree_csv
from seritree.treeops import _deflate_leaves, empirical_fringe_distribution


def _peak_mb(fn, *args) -> float:
    """Peak traced memory, in MB, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_mc_zeta_hat_memory_is_one_block():
    # one block of 4096 replicas peaks near 7 MB; all 3.4e6 points at once would take about 85 MB
    assert _peak_mb(mc_zeta_hat, 0.0, 10**5, CounterRng(3)) < 16


def test_write_tree_csv_memory_is_one_block(tmp_path):
    # one 65,536-row block peaks near 3 MB; the whole (2w+3) x n byte matrix and its mask would take about 13 MB
    tree, _ = grow(GrowthParams(delta=0.0, n_final=3 * 10**5, seed=4))
    assert _peak_mb(write_tree_csv, tree, tmp_path / "tree.csv") < 6


@pytest.fixture(scope="module")
def tree_3e5():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=3 * 10**5, seed=4))
    return tree


def test_write_tree_binary_writes_the_parent_array(tmp_path, tree_3e5):
    # the parents are written as they are, with no copy; one copy alone would take 2.4 MB
    assert _peak_mb(write_tree_binary, tree_3e5, tmp_path / "tree.bin") < 1.2


def test_read_tree_binary_memory_is_the_result(tmp_path, tree_3e5):
    # the 2.4 MB parent array plus one check block, near 3.1 MB; a byte copy
    # of the file and an index array beside the result would take 7.2 MB
    write_tree_binary(tree_3e5, tmp_path / "tree.bin")
    assert _peak_mb(read_tree_binary, tmp_path / "tree.bin") < 4.5


def test_read_tree_csv_parses_int32_rows(tmp_path, tree_3e5):
    # int32 rows (2.4 MB) beside the final parents (2.4 MB) peak near 5.5 MB;
    # int64 rows and a copy of the parents would take 9.7 MB
    write_tree_csv(tree_3e5, tmp_path / "tree.csv")
    assert _peak_mb(read_tree_csv, tmp_path / "tree.csv") < 7.5


def test_fringe_scan_k2_memory(tree_3e5):
    # the entries whose k-th ancestor is too large are dropped before the
    # per-entry arrays exist, the per-vertex arrays are int32 and the depths
    # are freed before the classes are labelled: near 4.8 MB, where int64
    # arrays and the depths held to the end took 6.9 MB
    assert _peak_mb(empirical_fringe_distribution, tree_3e5, 2, 12) < 6


def test_degree_counts_in_place(tree_3e5):
    # the 2.4 MB counts alone; `np.bincount` would first copy the read-only
    # parents, 4.8 MB in all
    assert _peak_mb(getattr, TreeRecord(tree_3e5.parent), "degree") < 3.6


def test_deflate_leaves_counts_in_place(tree_3e5):
    # the 1.2 MB int32 child counts beside the internal vertices' arrays,
    # near 3.2 MB; a shifted int64 copy of the parents beside int64 counts
    # would take 4.8 MB
    assert _peak_mb(_deflate_leaves, tree_3e5.parent) < 4.3


def test_value_counts_reads_the_degrees_in_place(tree_3e5):
    # the counts alone, near 0.05 MB; `np.bincount` would first copy the
    # 2.4 MB read-only degrees
    degree = tree_3e5.degree
    assert _peak_mb(value_counts, degree) < 1.2


def test_tail_fit_builds_no_object_per_degree():
    # the delta = -1/2 tail reaches degree 18,168: the fits' arrays of that
    # length peak near 0.65 MB, where (k, p) tuples and a copy of the
    # read-only degrees took 3.3 MB
    tree, _ = grow(GrowthParams(delta=-0.5, n_final=3 * 10**5, seed=4))
    tree.degree

    def fit():
        return tail_window_sensitivity(tail_ccdf(tree), n_samples=tree.n + 1)

    assert _peak_mb(fit) < 1.5
