"""Working-memory bounds of the estimators and writers that stream in blocks.

tracemalloc sees numpy's buffers, so its peak is the largest amount of
memory the call held at once, whatever the platform's allocator does.
"""

import tracemalloc

from seritree.growth import GrowthParams, grow
from seritree.limits import mc_zeta_hat
from seritree.rng import CounterRng
from seritree.serialize import write_tree_csv


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
