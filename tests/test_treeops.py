import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seritree.growth import GrowthParams, TreeRecord, enumerate_histories, grow
from seritree.limits import sample_memory_bp
from seritree.rng import CounterRng
from seritree.treeops import (
    FringeHistogram,
    bp_fringe_sample,
    decode_key,
    degree_counts,
    empirical_fringe_distribution,
    extended_fringe,
    fringe,
    key_size,
    q_count,
    reencode_key,
)


def _brute_isomorphic(children_a, ra, children_b, rb):
    """Backtracking root-preserving isomorphism test (independent oracle)."""
    ca, cb = children_a[ra], children_b[rb]
    if len(ca) != len(cb):
        return False
    if not ca:
        return True
    used = [False] * len(cb)

    def match(i):
        if i == len(ca):
            return True
        for j in range(len(cb)):
            if not used[j] and _brute_isomorphic(children_a, ca[i], children_b, cb[j]):
                used[j] = True
                if match(i + 1):
                    return True
                used[j] = False
        return False

    return match(0)


def _children_from_hist(hist):
    children = [[] for _ in range(len(hist) + 1)]
    for v, p in enumerate(hist, start=1):
        children[p].append(v)
    return children


# --- canonical soundness -----------------------------------------------------

def test_canonical_keys_match_brute_force_iso_up_to_7_vertices():
    # every rooted tree on <= 7 vertices appears among increasing histories
    for n in range(1, 7):  # n edges -> n+1 vertices
        entries = []
        for hist in enumerate_histories(n):
            tree = TreeRecord.from_parents(hist, 0.0)
            entries.append((fringe(tree, 0), _children_from_hist(hist)))
        reps = []  # (key, children) representatives of brute-force classes
        for key, children in entries:
            found = None
            for rkey, rchildren in reps:
                if _brute_isomorphic(children, 0, rchildren, 0):
                    found = rkey
                    break
            if found is None:
                reps.append((key, children))
            else:
                assert key == found, "brute-force isomorphic trees got different keys"
        assert len({k for k, _ in reps}) == len(reps), "distinct classes share a key"


def test_leaf_and_star_keys():
    star = TreeRecord.from_parents([0, 0], 0.0)  # root with 2 children
    assert fringe(star, 1) == "()"
    assert fringe(star, 0) == "(()())"
    assert key_size("(()())") == 3


def test_root_fringe_is_whole_tree_at_n2():
    for hist in ((0, 0), (0, 1)):
        tree = TreeRecord.from_parents(hist, 0.0)
        assert key_size(fringe(tree, 0)) == 3


def test_key_roundtrip_and_decode():
    assert decode_key("()") == []
    assert decode_key("(()(()))") == ["()", "(())"]
    assert reencode_key("(()(()))") == "((())())"  # sorts children, '(' < ')'
    with pytest.raises(ValueError):
        decode_key("(()")
    with pytest.raises(ValueError):
        decode_key(")(")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=8))
def test_key_invariant_under_child_order(seed, n):
    rng = CounterRng(seed)
    hist = [0] + [rng.randbelow(i) for i in range(2, n + 1)]
    tree = TreeRecord.from_parents(hist, 0.0)
    key = fringe(tree, 0)
    assert reencode_key(key) == key
    # relabel children by reversing sibling attachment order: same shape
    children = _children_from_hist(hist)
    relabeled = {0: 0}
    new_hist = {}
    order = [0]
    counter = 1
    for v in order:
        for c in reversed(children[v]):
            relabeled[c] = counter
            new_hist[counter] = relabeled[v]
            counter += 1
            order.append(c)
    hist2 = [new_hist[i] for i in range(1, n + 1)]
    # new labels may not be increasing along edges; sort to a valid history
    tree2_children = [[] for _ in range(n + 1)]
    for v, p in new_hist.items():
        tree2_children[p].append(v)
    keys2, _ = _keys_of_children(tree2_children)
    assert keys2[0] == key


def _keys_of_children(children):
    sizes = [1] * len(children)
    keys = [None] * len(children)
    for v in range(len(children) - 1, -1, -1):
        for c in children[v]:
            sizes[v] += sizes[c]
        keys[v] = "(" + "".join(sorted(keys[c] for c in children[v])) + ")"
    return keys, sizes


# --- extended fringe -----------------------------------------------------------

def test_extended_fringe_basics():
    # path 0 - 1 - 2 - 3, query the leaf
    tree = TreeRecord.from_parents([0, 1, 2], 0.0)
    assert extended_fringe(tree, 3, 0) == [fringe(tree, 3)]
    assert extended_fringe(tree, 3, 3) == ["()", "()", "()", "()"]
    with pytest.raises(ValueError):
        extended_fringe(tree, 3, 4)


def test_extended_fringe_partitions_sizes():
    rng = CounterRng(21)
    tree, _ = grow(GrowthParams(delta=0.0, n_final=60, seed=33))
    parents = [None] + tree.parent[1:].tolist()
    depth = [0] * (tree.n + 1)
    for v in range(1, tree.n + 1):
        depth[v] = depth[parents[v]] + 1
    v = max(range(tree.n + 1), key=lambda u: depth[u])
    k = depth[v]
    parts = extended_fringe(tree, v, k)
    # the k+1 parts partition the subtree of the k-th ancestor
    anc = v
    for _ in range(k):
        anc = parents[anc]
    assert sum(key_size(p) for p in parts) == key_size(fringe(tree, anc))


def test_extended_fringe_against_direct_reconstruction():
    # 0 with children 1 (chain) and 2 (leaf); v = 3 under 1
    tree = TreeRecord.from_parents([0, 0, 1], 0.0)
    f0, f1, f2 = extended_fringe(tree, 3, 2)
    assert f0 == "()"
    assert f1 == "()"         # vertex 1 with the branch to 3 removed
    assert f2 == "(())"       # root + leaf child 2 remaining


# --- Q counts -------------------------------------------------------------------

def test_q_count_examples():
    assert q_count("(()())", "()") == 2
    assert q_count("((()))", "()") == 0
    assert q_count("((()))", "(())") == 1
    assert q_count("()", "()") == 0  # leaf root has no children


def test_q_count_sums_to_root_degree():
    rng = CounterRng(22)
    for _ in range(50):
        n = 2 + rng.randbelow(6)
        hist = [0] + [rng.randbelow(i) for i in range(2, n + 1)]
        tree = TreeRecord.from_parents(hist, 0.0)
        key = fringe(tree, 0)
        subkeys = set(decode_key(key))
        assert sum(q_count(key, t) for t in subkeys) == len(decode_key(key))


# --- histograms -----------------------------------------------------------------

def test_empirical_fringe_star():
    star = TreeRecord.from_parents([0, 0, 0], 0.0)
    hist = empirical_fringe_distribution(star)
    assert hist.counts == {"()": 3, "(()()())": 1}
    assert hist.total == star.n + 1
    assert hist.other == 0


def test_empirical_fringe_truncation_and_merge():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=300, seed=2))
    h = empirical_fringe_distribution(tree, truncation=3)
    assert all(key_size(k) <= 3 for k in h.counts)
    assert sum(h.counts.values()) + h.other == h.total == tree.n + 1
    merged = h.merged(h)
    assert merged.total == 2 * h.total
    assert merged.counts["()"] == 2 * h.counts["()"]
    with pytest.raises(ValueError):
        h.merged(empirical_fringe_distribution(tree, truncation=5))
    with pytest.raises(ValueError):
        FringeHistogram(counts={"()": 2}, other=0, total=3, truncation=4)


def test_extended_histogram_excludes_shallow():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=200, seed=3))
    h = empirical_fringe_distribution(tree, k=1, truncation=6)
    assert h.k == 1
    assert h.total + h.excluded_shallow == tree.n + 1
    assert h.excluded_shallow >= 1  # at least the root
    for key in h.counts:
        assert len(key.split("|")) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=8),
)
def test_histogram_matches_per_vertex_reference(seed, n, k, truncation):
    rng = CounterRng(seed)
    hist = [0] + [rng.randbelow(i) for i in range(2, n + 1)]
    tree = TreeRecord.from_parents(hist, 0.0)
    children = _children_from_hist(hist)
    keys, sizes = _keys_of_children(children)
    parents = [None] + hist
    depth = [0] * (n + 1)
    for v in range(1, n + 1):
        depth[v] = depth[parents[v]] + 1
    scanned = [v for v in range(n + 1) if depth[v] >= k]
    expected = Counter()
    other = 0
    for v in scanned:
        path = [v]
        for _ in range(k):
            path.append(parents[path[-1]])
        parts = [keys[v]] + [
            "(" + "".join(sorted(keys[c] for c in children[u] if c != w)) + ")"
            for w, u in zip(path, path[1:])
        ]
        assert extended_fringe(tree, v, k) == parts
        if sizes[path[-1]] > truncation:
            other += 1
        else:
            expected["|".join(parts)] += 1
    h = empirical_fringe_distribution(tree, k=k, truncation=truncation)
    assert h.counts == dict(expected)
    assert (h.other, h.total, h.excluded_shallow) == (other, len(scanned), n + 1 - len(scanned))


def test_leaf_fraction_near_limit():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=100000, seed=6))
    h = empirical_fringe_distribution(tree)
    assert abs(h.counts["()"] / h.total - (math.e - 2)) <= 0.01


# --- branching-process fringe samples ----------------------------------------------

def test_bp_fringe_keys_are_canonical():
    rng = CounterRng(23)
    for _ in range(300):
        key = bp_fringe_sample(0.0, rng)
        assert reencode_key(key) == key


def test_bp_fringe_single_vertex_probability():
    rng = CounterRng(24)
    n = 20000
    singles = sum(1 for _ in range(n) if bp_fringe_sample(0.0, rng) == "()")
    target = math.e - 2
    assert abs(singles / n - target) <= 3 * math.sqrt(target * (1 - target) / n)


def test_bp_fringe_edge_method_mean_size():
    # edge-process size - 1 replicates the root offspring count (mean 1)
    rng = CounterRng(25)
    sizes = np.array([key_size(bp_fringe_sample(1.0, rng, method="edge")) for _ in range(20000)])
    se = sizes.std(ddof=1) / math.sqrt(len(sizes))
    assert abs((sizes - 1).mean() - 1.0) <= 3 * se


def test_bp_fringe_bad_method():
    with pytest.raises(ValueError):
        bp_fringe_sample(0.0, CounterRng(1), method="bogus")


# --- degree counts ------------------------------------------------------------------

def test_degree_counts_examples():
    star = TreeRecord.from_parents([0, 0, 0], 0.0)
    assert degree_counts(star) == {1: 3, 3: 1}
    edge = TreeRecord.from_parents([0], 0.0)
    assert degree_counts(edge) == {1: 2}
    tree, _ = grow(GrowthParams(delta=1.0, n_final=500, seed=9))
    counts = degree_counts(tree)
    assert sum(counts.values()) == tree.n + 1
    assert sum(k * c for k, c in counts.items()) == 2 * tree.n
