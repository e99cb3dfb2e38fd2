"""Fringe machinery: canonical rooted-tree encoding and fringe statistics.

Rooted trees are canonicalized AHU-style: the key of a leaf is ``()`` and the
key of an internal vertex wraps the lexicographically sorted keys of its
children, so two trees get the same key exactly when a root-preserving
isomorphism maps one onto the other.  Keys double as the serialization format
for fringe histograms.

All functions accept a grown `TreeRecord`, a `BranchingTree` genealogy or a
forest given as an int64 parent array (-1 at each root).  Each gives every
child a larger index than its parent, so depths and subtree sizes follow from
the parent array without a per-vertex loop.  Isomorphism is decided on
integer classes: one sweep over decreasing indices (`_classes`) labels every
vertex, and the spectrum quotient reads the same classes.  `_class_keys`
builds one key string per class, never one per vertex.  Histograms over all
vertices fold the leaves into their parents first (`_deflate_leaves`): a leaf
has the one-vertex fringe and no structure, and leaves are most of a grown
tree (about 72% at delta = 0).  Depths, sizes and integer fringe classes
(`_ahu_classes`) then come from the internal vertices alone, each with its
leaf count.

No key is ever parsed.  Every key wraps a row of child keys, and a cut key
(an ancestor with the branch toward a vertex removed, `_cut`) is that row
with the branch's key removed once, made once per pair of ancestor class and
branch class by `extended_fringes` and the histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .growth import TreeRecord
from .limits import BranchingTree, sample_memory_bp
from .rng import CounterRng

OTHER_KEY = "(other)"


Tree = Union[TreeRecord, BranchingTree, np.ndarray]


def _parent_array(tree: Tree) -> np.ndarray:
    """Int64 parents with -1 at each root.

    This is the one place where a genealogy's parent list, rooted at None,
    becomes an array.  A parent array given directly is a forest, and every
    entry must be -1 or the index of an earlier vertex.
    """
    if isinstance(tree, BranchingTree):
        return np.array([-1] + tree.parents[1:], dtype=np.int64)
    if isinstance(tree, TreeRecord):
        return tree.parent
    parent = np.asarray(tree, dtype=np.int64)
    if parent.ndim != 1 or not parent.size or ((parent < -1) | (parent >= np.arange(len(parent)))).any():
        raise ValueError("a forest's parents must each be -1 or the index of an earlier vertex")
    return parent


def _parent_list(tree: Tree) -> list[int]:
    """Parents as a Python list with -1 at each root, for the per-vertex sweeps.

    A genealogy's own list is read directly, with no array in between.
    """
    if isinstance(tree, BranchingTree):
        return [-1] + tree.parents[1:]
    return _parent_array(tree).tolist()


def _classes(parent: list[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Integer class of every vertex's descendant subtree and each class's child classes.

    Two vertices share a class exactly when their subtrees are isomorphic as
    rooted trees (AHU labels, Aho, Hopcroft & Ullman 1974): one sweep over
    decreasing indices numbers each vertex's sorted tuple of child classes in
    order of first sight, so class 0 is the leaf and each class exceeds its
    child classes.  Returns the classes and each class's tuple.
    """
    rows: list[list[int]] = [[] for _ in parent]
    table: dict[tuple[int, ...], int] = {(): 0}
    classes = [0] * len(parent)
    for v in range(len(parent) - 1, -1, -1):
        row = rows[v]
        if row:
            row.sort()
            classes[v] = table.setdefault(tuple(row), len(table))
        p = parent[v]
        if p >= 0:
            rows[p].append(classes[v])
    return classes, list(table)


def _class_keys(rows: list) -> tuple[list[str], list[list[str]]]:
    """Key of every class and its sorted row of child keys, from its row of child classes.

    Class 0 is the leaf.  Each other row lists its child classes in any
    order, but only classes smaller than its own, so one pass in class order
    keys every child first.
    """
    keys, key_rows = ["()"], [[]]
    for row in rows[1:]:
        parts = [keys[c] for c in row]
        parts.sort()
        key_rows.append(parts)
        keys.append("(" + "".join(parts) + ")")
    return keys, key_rows


def _cut(row: list[str], child: str) -> str:
    """Key of a vertex with sorted child keys `row` once one child of key `child` is removed."""
    parts = row.copy()
    parts.remove(child)
    return "(" + "".join(parts) + ")"


def key_size(key: str) -> int:
    """Vertex count encoded by a canonical key."""
    if len(key) % 2 or not key:
        raise ValueError(f"malformed key {key!r}")
    return len(key) // 2


def fringe(tree: Tree) -> str:
    """Canonical key of the descendant subtree of vertex 0, the whole tree for a tree or genealogy."""
    classes, rows = _classes(_parent_list(tree))
    return _class_keys(rows)[0][classes[0]]


def extended_fringes(tree: Tree, k: int) -> dict[int, list[str]]:
    """Keys (f_0, ..., f_k) of the fringe decomposition of every vertex of depth >= k.

    f_0 is the descendant subtree of v; f_i is the subtree hanging off the
    i-th vertex on the path to the root once the branch containing v is
    removed.  A cut depends only on the classes of the vertex and of the
    removed branch, so it is made once per distinct pair of classes and
    shared by every edge with that pair.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    parent = _parent_list(tree)
    classes, rows = _classes(parent)
    keys, key_rows = _class_keys(rows)
    pairs = {(classes[u], classes[w]) for w, u in enumerate(parent) if u >= 0} if k else ()
    cuts = {(a, c): _cut(key_rows[a], keys[c]) for a, c in pairs}
    decompositions = {}
    for v in range(len(parent)):
        parts, w = [keys[classes[v]]], v
        while len(parts) <= k and parent[w] >= 0:
            parts.append(cuts[classes[parent[w]], classes[w]])
            w = parent[w]
        if len(parts) > k:
            decompositions[v] = parts
    return decompositions


@dataclass
class FringeHistogram:
    """Counts of canonical fringe keys, with an overflow bin for large fringes."""

    counts: dict[str, int]
    other: int
    total: int
    truncation: int
    k: int = 0
    excluded_shallow: int = 0

    def __post_init__(self):
        if sum(self.counts.values()) + self.other != self.total:
            raise ValueError("counts + other must equal total")

    def frequency(self, key: str) -> float:
        if key == OTHER_KEY:
            return self.other / self.total
        return self.counts.get(key, 0) / self.total


def _deflate_leaves(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forest of internal vertices (those with a child) and their leaf counts.

    Returns the parents of the internal vertices, relabelled 0..m-1 in vertex
    order with -1 at each root, and each one's number of leaf children.  The
    parent of an internal vertex is internal, so it has a new label too, and
    every child still comes after its parent.  Both arrays are int32 while
    the forest has fewer than 2^31 vertices, as are the depths, sizes and
    classes derived from them.
    """
    index = np.int32 if len(parent) < 2**31 else np.int64
    # `np.add.at` counts in place, where `np.bincount(parent + 1)` would hold
    # a shifted copy of the parents beside the counts; the last slot takes
    # the roots' -1.  Its fast loop needs the added value in the counts'
    # type: a Python 1 into int32 counts is about 20 times slower.
    one = index(1)
    kids = np.zeros(len(parent) + 1, dtype=index)
    np.add.at(kids, parent, one)
    inner = np.flatnonzero(kids[:-1])
    leaves = np.zeros(len(inner) + 1, dtype=index)  # the last slot takes the roots' -1
    leaves[:-1] = kids[inner]
    del kids
    # the last vertex has no child, so label[-1] stays -1 and roots keep -1
    label = np.full(len(parent), -1, dtype=index)
    label[inner] = np.arange(len(inner), dtype=index)
    up = label[parent[inner]]
    del label, inner
    np.subtract.at(leaves, up, one)  # less the internal children
    return up, leaves[:-1]


def _depths_and_sizes(up: np.ndarray, leaves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth of every internal vertex and size of its descendant subtree.

    Depths come from pointer jumping (each round doubles the hop length);
    sizes start at 1 + the leaf count and are summed into parents level by
    level, deepest level first.
    """
    depth = (up >= 0).astype(up.dtype)
    hop = np.maximum(up, 0)
    while hop.any():
        depth += depth[hop]
        hop = hop[hop]
    del hop
    max_depth = int(depth.max(initial=0))
    # a stable sort of integers of at most 16 bits is a radix sort
    order = np.argsort(depth.astype(np.min_scalar_type(max_depth)), kind="stable")
    bounds = np.searchsorted(depth[order], np.arange(max_depth + 2))
    size = leaves + 1
    for d in range(max_depth, 0, -1):
        level = order[bounds[d] : bounds[d + 1]]
        np.add.at(size, up[level], size[level])
    return depth, size


def _ahu_classes(
    up: np.ndarray, size: np.ndarray, leaves: np.ndarray, truncation: int
) -> tuple[np.ndarray, list[list[int]]]:
    """Integer fringe class of every internal vertex of at most `truncation` vertices.

    AHU labels (Aho, Hopcroft & Ullman 1974), level by subtree size; class 0
    is the leaf.  The internal children of the size-s vertices are smaller,
    so they already have classes.  Each size-s vertex's row of sorted
    internal child classes is folded, position by position, into int64 codes
    (prefix state * width + child class) that `np.unique` renumbers from 1,
    so rows are compared exactly, and every distinct row gets a new class.
    The leaf children need no place in the row: two size-s rows with the same
    internal children have the same number of leaves, s - 1 minus the
    children's sizes, and a row of leaves alone keeps state 0.  Larger
    vertices keep -1.  `rows[i]` lists the child classes of class i, taken
    once from one vertex of the class: its sorted internal child classes,
    then one 0 per leaf child, the row `_class_keys` keys.
    """
    ids = np.full(len(up), -1, dtype=up.dtype)
    rows: list[list[int]] = [[]]
    # the vertices and the children of vertices with at most `truncation`
    # vertices, in the index type of `up`, each with that size in the
    # narrowest type that holds the largest
    small = np.flatnonzero(size <= truncation).astype(up.dtype)
    level = size[small]
    narrow = np.min_scalar_type(level.max(initial=0))
    level = level.astype(narrow)
    child = np.flatnonzero(up >= 0).astype(up.dtype)
    child = child[size[up[child]] <= truncation]
    child_level = size[up[child]].astype(narrow)
    # stable sorts keep each level's rows in vertex order
    order = np.argsort(level, kind="stable")
    small, level = small[order], level[order]
    order = np.argsort(child_level, kind="stable")
    child, child_level = child[order], child_level[order]
    del order
    sizes = np.unique(level)
    starts, ends = np.searchsorted(level, sizes), np.searchsorted(level, sizes, "right")
    lo, hi = np.searchsorted(child_level, sizes), np.searchsorted(child_level, sizes, "right")
    del level, child_level
    for a, b, c, d in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
        vertex, width = small[a:b], len(rows)
        owner, kid = up[child[c:d]], ids[child[c:d]]
        order = np.argsort(owner.astype(np.int64) * width + kid)
        owner, kid = owner[order], kid[order]
        new_row = np.diff(owner, prepend=-1) != 0
        rank = np.arange(len(owner)) - np.flatnonzero(new_row)[np.cumsum(new_row) - 1]
        row = np.searchsorted(vertex, owner)
        state, offset = np.zeros(len(vertex), dtype=np.int64), 1
        for j in range(int(rank.max(initial=-1)) + 1):
            at = rank == j
            r = row[at]
            distinct, inverse = np.unique(state[r] * width + kid[at], return_inverse=True)
            state[r] = inverse + offset
            offset += len(distinct)
        distinct, label = np.unique(state, return_inverse=True)
        ids[vertex] = label + width
        rep = np.empty(len(distinct), dtype=np.int64)  # one vertex of each class
        rep[label] = vertex
        begin, end = np.searchsorted(owner, rep), np.searchsorted(owner, rep, "right")
        for v, i, j in zip(rep.tolist(), begin.tolist(), end.tolist()):
            rows.append(kid[i:j].tolist() + [0] * int(leaves[v]))
    return ids, rows


def empirical_fringe_distribution(tree: Tree, k: int = 0, truncation: int = 12) -> FringeHistogram:
    """Histogram of (extended) fringe keys over all vertices of the tree.

    The key of a vertex is the '|'-joined decomposition (f_0|...|f_k), for
    k = 0 its fringe key.  Vertices of depth < k are excluded and counted in
    `excluded_shallow` (their padded decompositions carry o(1) mass), and
    those whose k-th ancestor has more than `truncation` descendants, itself
    included, go to the overflow bin.

    The leaves are folded into their parents (`_deflate_leaves`): depths,
    sizes and AHU classes (`_ahu_classes`) come from the internal vertices
    alone, and key strings are built only for the distinct classes.  Each
    internal vertex is counted once, by its path of classes up to its k-th
    ancestor; the leaf children of an internal vertex u share one path
    (the leaf class, then u's path up to its (k-1)-th ancestor) and are
    counted together, as many as u has.
    """
    if k < 0 or truncation < 0:
        raise ValueError(f"k and truncation must be >= 0, got k={k}, truncation={truncation}")
    parent = _parent_array(tree)
    up, leaves = _deflate_leaves(parent)
    depth, size = _depths_and_sizes(up, leaves)
    # one entry per scanned internal vertex and one per group of sibling
    # leaves whose k-th ancestor has at most `truncation` vertices: the class
    # it starts with, how many vertices it stands for, and the vertex above.
    # Which entries count follows from the depths and sizes alone, so the
    # depths are freed before the classes are labelled.
    if k == 0:
        scanned = len(parent)
    else:
        # the (k-1)-th ancestor of an internal vertex is the k-th ancestor of
        # its leaf children and of its internal children
        deep = np.flatnonzero(depth >= k - 1)
        top = deep
        for _ in range(k - 1):
            top = up[top]
        fits = np.zeros(len(up), dtype=bool)
        fits[deep] = size[top] <= truncation
        scanned = int(leaves[deep].sum())
        del deep, top
        inner = depth >= k
        scanned += int(np.count_nonzero(inner))
        inner &= fits[up]  # a root's -1 reads the last entry, but a root has depth 0 < k
        twigs = fits & (leaves > 0)
        del fits
    del depth
    ids, rows = _ahu_classes(up, size, leaves, truncation)
    keys, key_rows = _class_keys(rows)
    del size
    if k == 0:
        # every leaf, a lone root too, has class 0 and size 1, and an
        # internal vertex has a class when it has at most `truncation` vertices
        inside = np.append(ids >= 0, truncation >= 1)
        code = np.append(ids, 0)[inside]
        weight = np.append(np.ones(len(up), dtype=leaves.dtype), len(parent) - len(up))[inside]
        del inside
    else:
        inner, twigs = np.flatnonzero(inner), np.flatnonzero(twigs)
        code = np.concatenate([ids[inner], np.zeros(len(twigs), dtype=np.int64)])
        weight = np.concatenate([np.ones(len(inner), dtype=leaves.dtype), leaves[twigs]])
        w = np.concatenate([up[inner], twigs])  # the vertex above each entry
        del inner, twigs
    # the decomposition of v and the classes on its path up to the k-th
    # ancestor determine each other, so count the paths of classes, folded
    # step by step into one code per entry as `_ahu_classes` folds its rows;
    # each new code's label is its previous code's label and the cut of the
    # new ancestor's row by the previous top class (for k = 0 the codes are
    # the classes, and every class is made from a vertex, so occurs)
    width, labels, top_class = len(keys), keys, range(len(keys))
    for j in range(k):
        if j:
            w = up[w]
        distinct, code = np.unique(code * width + ids[w], return_inverse=True)
        prev, anc = (x.tolist() for x in np.divmod(distinct, width))
        labels = [labels[p] + "|" + _cut(key_rows[a], keys[top_class[p]]) for p, a in zip(prev, anc)]
        top_class = anc
    found = np.bincount(code, weights=weight).astype(np.int64)
    counts = dict(zip(labels, found.tolist()))
    return FringeHistogram(
        counts=counts,
        other=scanned - int(weight.sum()),
        total=scanned,
        truncation=truncation,
        k=k,
        excluded_shallow=len(parent) - scanned,
    )


def bp_fringe_sample(delta: float, rng: CounterRng) -> str:
    """One sample from the limiting fringe law, as a canonical key.

    Runs the memory branching process up to an independent exp(1) horizon
    and returns the canonical key of its genealogy.
    """
    return fringe(sample_memory_bp(delta, rng, exp1=True))
