import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seritree.growth import GrowthParams, TreeRecord, enumerate_histories, grow, value_counts
from seritree.limits import sample_memory_bp
from seritree.rng import CounterRng
import seritree.treeops
from seritree.treeops import (
    FringeHistogram,
    _classes,
    _parent_array,
    bp_fringe_sample,
    empirical_fringe_distribution,
    extended_fringes,
    fringe,
    key_size,
)

from oracles import (
    decode_key,
    depth_and_size,
    empirical_fringe_reference,
    extended_fringes_reference,
    reencode_key,
    subtree_keys,
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
            tree = TreeRecord.from_parents(hist)
            entries.append((fringe(tree), _children_from_hist(hist)))
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
    star = TreeRecord.from_parents([0, 0])  # root with 2 children
    assert extended_fringes(star, 0)[1][0] == "()"
    assert fringe(star) == "(()())"
    assert key_size("(()())") == 3


def test_root_fringe_is_whole_tree_at_n2():
    for hist in ((0, 0), (0, 1)):
        tree = TreeRecord.from_parents(hist)
        assert key_size(fringe(tree)) == 3


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
    tree = TreeRecord.from_parents(hist)
    key = fringe(tree)
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
    tree = TreeRecord.from_parents([0, 1, 2])
    assert extended_fringes(tree, 0)[3] == ["()"]
    assert extended_fringes(tree, 3) == {3: ["()", "()", "()", "()"]}
    # no vertex has depth 4
    assert extended_fringes(tree, 4) == {}


def test_extended_fringe_partitions_sizes():
    rng = CounterRng(21)
    tree, _ = grow(GrowthParams(delta=0.0, n_final=60, seed=33))
    parents = [None] + tree.parent[1:].tolist()
    depth = [0] * (tree.n + 1)
    for v in range(1, tree.n + 1):
        depth[v] = depth[parents[v]] + 1
    v = max(range(tree.n + 1), key=lambda u: depth[u])
    k = depth[v]
    parts = extended_fringes(tree, k)[v]
    # the k+1 parts partition the subtree of the k-th ancestor
    anc = v
    for _ in range(k):
        anc = parents[anc]
    assert sum(key_size(p) for p in parts) == key_size(extended_fringes(tree, 0)[anc][0])


def test_extended_fringe_against_direct_reconstruction():
    # 0 with children 1 (chain) and 2 (leaf); v = 3 under 1
    tree = TreeRecord.from_parents([0, 0, 1])
    f0, f1, f2 = extended_fringes(tree, 2)[3]
    assert f0 == "()"
    assert f1 == "()"         # vertex 1 with the branch to 3 removed
    assert f2 == "(())"       # root + leaf child 2 remaining


# --- Q counts -------------------------------------------------------------------

def test_q_count_examples():
    # criterion 8 counts the root children of a key isomorphic to a target as
    # decode_key(key).count(target), which holds because both are canonical
    assert decode_key("(()())").count("()") == 2
    assert decode_key("((()))").count("()") == 0
    assert decode_key("((()))").count("(())") == 1
    assert decode_key("()").count("()") == 0  # leaf root has no children
    rng = CounterRng(22)
    for _ in range(50):
        n = 2 + rng.randbelow(6)
        hist = [0] + [rng.randbelow(i) for i in range(2, n + 1)]
        children = decode_key(fringe(TreeRecord.from_parents(hist)))
        for target in ("()", "(())", "(()())"):
            assert children.count(target) == sum(reencode_key(c) == target for c in children)


# --- histograms -----------------------------------------------------------------

def test_empirical_fringe_star():
    star = TreeRecord.from_parents([0, 0, 0])
    hist = empirical_fringe_distribution(star)
    assert hist.counts == {"()": 3, "(()()())": 1}
    assert hist.total == star.n + 1
    assert hist.other == 0


def test_empirical_fringe_truncation_and_merge():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=300, seed=2))
    h = empirical_fringe_distribution(tree, truncation=3)
    assert all(key_size(k) <= 3 for k in h.counts)
    assert sum(h.counts.values()) + h.other == h.total == tree.n + 1
    # no fringe has 0 vertices, so every vertex overflows
    assert empirical_fringe_distribution(tree, truncation=0).other == tree.n + 1
    with pytest.raises(ValueError):
        FringeHistogram(counts={"()": 2}, other=0, total=3, truncation=4)
    # these used to give the k = 0 histogram labelled k = -1, [f_0], and an
    # all-overflow histogram
    for kwargs in ({"k": -1}, {"truncation": -1}):
        with pytest.raises(ValueError, match=">= 0"):
            empirical_fringe_distribution(tree, **kwargs)
    with pytest.raises(ValueError, match=">= 0"):
        extended_fringes(tree, -1)


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
    tree = TreeRecord.from_parents(hist)
    children = _children_from_hist(hist)
    keys, sizes = _keys_of_children(children)
    parents = [None] + hist
    depth = [0] * (n + 1)
    for v in range(1, n + 1):
        depth[v] = depth[parents[v]] + 1
    scanned = [v for v in range(n + 1) if depth[v] >= k]
    decompositions = extended_fringes(tree, k)
    assert sorted(decompositions) == scanned
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
        assert decompositions[v] == parts
        if sizes[path[-1]] > truncation:
            other += 1
        else:
            expected["|".join(parts)] += 1
    h = empirical_fringe_distribution(tree, k=k, truncation=truncation)
    assert h.counts == dict(expected)
    assert (h.other, h.total, h.excluded_shallow) == (other, len(scanned), n + 1 - len(scanned))


def _per_vertex_histogram(tree, k, truncation):
    """Counts and overflow from one `extended_fringes` call, vertex by vertex.

    A vertex overflows when its k-th ancestor's subtree, sized by
    `depth_and_size`, has more than `truncation` vertices.
    """
    parent = _parent_array(tree)
    _, size = depth_and_size(parent)
    counts, other = Counter(), 0
    for v, parts in extended_fringes(tree, k).items():
        top = v
        for _ in range(k):
            top = parent[top]
        if size[top] > truncation:
            other += 1
        else:
            counts["|".join(parts)] += 1
    return dict(counts), other


def _interleaved_forest():
    """Three grown trees interleaved at random, each keeping its vertex order."""
    trees = [grow(GrowthParams(delta=0.0, n_final=n, seed=seed))[0] for n, seed in ((150, 41), (1, 42), (90, 43))]
    owner = np.repeat(np.arange(3), [t.n + 1 for t in trees])
    np.random.default_rng(44).shuffle(owner)
    forest = np.empty(len(owner), dtype=np.int64)
    for i, tree in enumerate(trees):
        at = np.flatnonzero(owner == i)
        forest[at] = np.where(tree.parent >= 0, at[tree.parent], -1)
    return forest, trees


def _caterpillar(spine=40):
    """A path with one leaf on every path vertex, as a forest."""
    return np.array([-1] + list(range(spine - 1)) + list(range(spine)), dtype=np.int64)


@pytest.mark.parametrize("k,truncation", [(0, 4), (0, 12), (1, 6), (2, 12)])
def test_forest_histogram_is_sum_of_tree_histograms(k, truncation):
    forest, trees = _interleaved_forest()
    # two roots sit in the middle of the forest
    roots = np.flatnonzero(forest < 0)
    assert len(roots) == 3 and roots[-1] > 2
    hist = empirical_fringe_distribution(forest, k=k, truncation=truncation)
    parts = [empirical_fringe_distribution(t, k=k, truncation=truncation) for t in trees]
    assert Counter(hist.counts) == sum((Counter(p.counts) for p in parts), Counter())
    assert [hist.other, hist.total, hist.excluded_shallow] == [
        sum(getattr(p, name) for p in parts) for name in ("other", "total", "excluded_shallow")
    ]


@pytest.mark.parametrize("forest", [[0], [-1, 1], [-1, 0, 3, 1], [-1, -2], [[-1, 0]], []])
def test_forest_refuses_bad_parents(forest):
    with pytest.raises(ValueError, match="forest"):
        empirical_fringe_distribution(np.array(forest, dtype=np.int64))


@pytest.mark.parametrize("seed", [45, 46, 47])
def test_genealogy_keys_match_its_parent_array(seed):
    # `fringe` and `extended_fringes` read a genealogy's parent list directly
    tree = sample_memory_bp(0.0, CounterRng(seed), t_max=6.0)
    parent = _parent_array(tree)
    assert fringe(tree) == fringe(parent)
    for k in (0, 1, 2):
        assert extended_fringes(tree, k) == extended_fringes(parent, k)


@pytest.mark.parametrize("seed", [45, 46, 47])
def test_genealogy_histogram_matches_per_vertex_fringes(seed):
    tree = sample_memory_bp(0.0, CounterRng(seed), t_max=6.0)
    assert tree.size > 20
    for k, truncation in ((0, 4), (0, 12), (1, 6), (2, 12)):
        h = empirical_fringe_distribution(tree, k=k, truncation=truncation)
        counts, other = _per_vertex_histogram(tree, k, truncation)
        assert (h.counts, h.other) == (counts, other)
        assert h.total + h.excluded_shallow == tree.size


def test_deep_extended_histogram_matches_per_vertex_reference():
    # a caterpillar, scanned along root paths far longer than the random
    # trees above have
    forest = _caterpillar()
    for k in (20, 30):
        h = empirical_fringe_distribution(forest, k=k, truncation=len(forest))
        counts, other = _per_vertex_histogram(forest, k, len(forest))
        assert (h.counts, h.other) == (counts, other)
        assert len(h.counts) > 1


def _reference_inputs(max_n=100000):
    """Every kind of input the histogram takes, by name, grown trees up to `max_n` edges."""
    for delta in (-0.5, 0.0, 2.0):
        for n in (n for n in (1, 2, 10, 1000, 100000) if n <= max_n):
            yield f"grown delta={delta} n={n}", grow(GrowthParams(delta=delta, n_final=n, seed=48))[0]
    yield "interleaved forest", _interleaved_forest()[0]
    # lone roots at 2 and at the end, a root with one child at 5
    yield "forest with lone roots", np.array([-1, 0, -1, 1, 1, -1, 5, 0, -1], dtype=np.int64)
    for seed in (45, 46, 47):
        yield f"genealogy seed={seed}", sample_memory_bp(0.0, CounterRng(seed), t_max=6.0)
    yield "caterpillar", _caterpillar()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_histogram_matches_every_vertex_reference(k):
    # the leaf-deflated histogram against the reference that labels every
    # vertex, leaves included
    for name, tree in _reference_inputs():
        for truncation in (0, 1, 2, 4, 6, 12):
            got = empirical_fringe_distribution(tree, k=k, truncation=truncation)
            ref = empirical_fringe_reference(tree, k=k, truncation=truncation)
            assert (got.counts, got.other, got.total, got.excluded_shallow) == (
                ref.counts, ref.other, ref.total, ref.excluded_shallow
            ), (name, truncation)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_extended_fringe_matches_reference_on_every_vertex(k):
    # the cuts from child-key rows against the old cuts of parsed keys
    for name, tree in _reference_inputs(max_n=1000):
        depth, _ = depth_and_size(_parent_array(tree))
        reference = extended_fringes_reference(tree, k)
        assert sorted(reference) == np.flatnonzero(depth >= k).tolist(), name
        assert extended_fringes(tree, k) == reference, name


def _class_inputs():
    for n in range(1, 7):
        for hist in enumerate_histories(n):
            yield f"history {hist}", TreeRecord.from_parents(hist)
    yield from _reference_inputs(max_n=1000)


def test_classes_match_string_keys():
    # the integer classes the spectrum quotient and the fringe keys read:
    # two vertices share one exactly when their string keys are equal, and
    # class 0 is exactly the leaves
    for name, tree in _class_inputs():
        parent = _parent_array(tree).tolist()
        classes, rows = _classes(parent)
        keys = subtree_keys(parent)
        assert len(set(zip(classes, keys))) == len(set(classes)) == len(set(keys)) == len(rows), name
        leaves = set(range(len(parent))) - set(parent)
        assert {v for v, c in enumerate(classes) if c == 0} == leaves, name


def test_extended_fringes_cut_once_per_class_pair(monkeypatch):
    # every edge of a star joins the root's class to the leaf class
    calls, cut = [], seritree.treeops._cut

    def counted(row, child):
        calls.append(child)
        return cut(row, child)

    monkeypatch.setattr(seritree.treeops, "_cut", counted)
    decompositions = extended_fringes(TreeRecord.from_parents([0] * 1000), 1)
    assert calls == ["()"]
    assert decompositions == {v: ["()", "(" + "()" * 999 + ")"] for v in range(1, 1001)}


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


# --- degree counts ------------------------------------------------------------------

def test_degree_counts_examples():
    star = TreeRecord.from_parents([0, 0, 0])
    assert value_counts(star.degree) == {1: 3, 3: 1}
    edge = TreeRecord.from_parents([0])
    assert value_counts(edge.degree) == {1: 2}
    tree, _ = grow(GrowthParams(delta=1.0, n_final=500, seed=9))
    counts = value_counts(tree.degree)
    assert sum(counts.values()) == tree.n + 1
    assert sum(k * c for k, c in counts.items()) == 2 * tree.n
