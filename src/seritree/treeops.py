"""Fringe machinery: canonical rooted-tree encoding and fringe statistics.

Rooted trees are canonicalized AHU-style: the key of a leaf is ``()`` and the
key of an internal vertex wraps the lexicographically sorted keys of its
children, so two trees get the same key exactly when a root-preserving
isomorphism maps one onto the other.  Keys double as the serialization format
for fringe histograms.

All functions accept a grown `TreeRecord`, a `BranchingTree` genealogy or a
forest given as an int64 parent array (-1 at each root).  Each gives every
child a larger index than its parent, so depths and subtree sizes follow from
the parent array without a per-vertex loop.  The key of one vertex comes from
one sweep over decreasing indices (`_keys`).  Histograms over all vertices
label the fringe classes with integers instead (`_class_ids`) and build one
key string per distinct class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .growth import TreeRecord
from .limits import BranchingTree, sample_memory_bp
from .rng import CounterRng

LEAF_KEY = "()"
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


def _keys(parent: list[int], vertices: Iterable[int]) -> dict[int, str]:
    """Canonical keys of `vertices`, built bottom-up in one sweep.

    `vertices` must come in decreasing order and hold every child of each of
    its members.
    """
    keys: dict[int, str] = {}
    pending: dict[int, list[str]] = {}
    for u in vertices:
        kids = pending.pop(u, None)
        key = keys[u] = "(" + "".join(sorted(kids)) + ")" if kids else LEAF_KEY
        p = parent[u]
        if p in pending:
            pending[p].append(key)
        else:
            pending[p] = [key]
    return keys


def _cut(key: str, child: str) -> str:
    """`key` with one root child of key `child` removed."""
    parts = decode_key(key)
    parts.remove(child)
    return "(" + "".join(parts) + ")"


def _depth_and_size(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth of every vertex and size of its descendant subtree.

    Depths come from pointer jumping (each round doubles the hop length);
    sizes are summed into parents level by level, deepest level first.
    """
    depth = (parent >= 0).astype(np.int64)
    up = np.maximum(parent, 0)
    while up.any():
        depth += depth[up]
        up = up[up]
    max_depth = int(depth.max())
    # a stable sort of integers of at most 16 bits is a radix sort
    order = np.argsort(depth.astype(np.min_scalar_type(max_depth)), kind="stable")
    bounds = np.searchsorted(depth[order], np.arange(max_depth + 2))
    size = np.ones(len(parent), dtype=np.int64)
    for d in range(max_depth, 0, -1):
        level = order[bounds[d] : bounds[d + 1]]
        np.add.at(size, parent[level], size[level])
    return depth, size


def key_size(key: str) -> int:
    """Vertex count encoded by a canonical key."""
    if len(key) % 2 or not key:
        raise ValueError(f"malformed key {key!r}")
    return len(key) // 2


def decode_key(key: str) -> list[str]:
    """Top-level child keys of a canonical key (empty list for a leaf)."""
    if not key.startswith("(") or not key.endswith(")"):
        raise ValueError(f"malformed key {key!r}")
    inner = key[1:-1]
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                parts.append(inner[start : i + 1])
            if depth < 0:
                raise ValueError(f"malformed key {key!r}")
        else:
            raise ValueError(f"malformed key {key!r}")
    if depth != 0:
        raise ValueError(f"malformed key {key!r}")
    return parts


def fringe(tree: Tree, v: int) -> str:
    """Canonical key of the subtree of all descendants of v, rooted at v."""
    parent = _parent_array(tree).tolist()
    if not 0 <= v < len(parent):
        raise IndexError(f"vertex {v} not in tree")
    return _keys(parent, range(len(parent) - 1, v - 1, -1))[v]


def extended_fringe(tree: Tree, v: int, k: int) -> list[str]:
    """Keys (f_0, ..., f_k) of the fringe decomposition along the root path.

    f_0 is the descendant subtree of v; f_i is the subtree hanging off the
    i-th vertex on the path to the root once the branch containing v is
    removed.  Requires depth(v) >= k >= 0.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    parent = _parent_array(tree).tolist()
    if not 0 <= v < len(parent):
        raise IndexError(f"vertex {v} not in tree")
    path = [v]
    while len(path) <= k:
        p = parent[path[-1]]
        if p < 0:
            raise ValueError(f"vertex {v} has depth {len(path) - 1} < k={k}")
        path.append(p)
    keys = _keys(parent, range(len(parent) - 1, path[-1] - 1, -1))
    return [keys[v]] + [_cut(keys[u], keys[w]) for w, u in zip(path, path[1:])]


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


def _class_ids(parent: np.ndarray, size: np.ndarray, truncation: int) -> tuple[np.ndarray, list[str]]:
    """Integer fringe class of every vertex whose fringe has <= `truncation` vertices.

    AHU labels (Aho, Hopcroft & Ullman 1974), level by subtree size.  Leaves
    get id 0.  The children of the size-s vertices are smaller, so they
    already have ids; each size-s vertex's sorted row of child ids is folded,
    position by position, into int64 codes (prefix state * width + child id)
    that `np.unique` renumbers, so rows are compared exactly, and every
    distinct row gets a new id.  Larger vertices keep -1.  `keys[i]` is the
    canonical key of id i, built once from one vertex of the class.
    """
    ids = np.where(size == 1, 0, -1)
    keys = [LEAF_KEY]
    child = np.flatnonzero(parent >= 0)
    level = size[parent[child]]
    keep = level <= truncation
    child, level = child[keep], level[keep]
    order = np.argsort(level.astype(np.min_scalar_type(level.max(initial=0))), kind="stable")
    child, level = child[order], level[order]
    bounds = np.flatnonzero(np.diff(level, prepend=-1, append=-1))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        up, kid = parent[child[a:b]], ids[child[a:b]]
        order = np.argsort(up * len(keys) + kid)
        up, kid = up[order], kid[order]
        new_row = np.diff(up, prepend=-1) != 0
        first = np.flatnonzero(new_row)
        row = np.cumsum(new_row) - 1
        rank = np.arange(len(up)) - first[row]
        state = np.zeros(len(first), dtype=np.int64)
        width, offset = len(keys), 0
        for j in range(int(rank.max()) + 1):
            at = rank == j
            r = row[at]
            distinct, inverse = np.unique(state[r] * width + kid[at], return_inverse=True)
            state[r] = inverse + offset
            offset += len(distinct)
        distinct, label = np.unique(state, return_inverse=True)
        ids[up[first]] = label + width
        rep = np.empty(len(distinct), dtype=np.int64)  # one row of each class
        rep[label] = np.arange(len(first))
        last = np.append(first[1:], len(up))
        for i in rep.tolist():
            keys.append("(" + "".join(sorted(keys[c] for c in kid[first[i] : last[i]].tolist())) + ")")
    return ids, keys


def empirical_fringe_distribution(tree: Tree, k: int = 0, truncation: int = 12) -> FringeHistogram:
    """Histogram of (extended) fringe keys over all vertices of the tree.

    The key of a vertex is the '|'-joined decomposition (f_0|...|f_k), for
    k = 0 its fringe key.  Vertices of depth < k are excluded and counted in
    `excluded_shallow` (their padded decompositions carry o(1) mass), and
    those whose k-th ancestor has more than `truncation` descendants, itself
    included, go to the overflow bin.  The rest are counted by class ids
    (`_class_ids`), and key strings are built only for the distinct ones.
    """
    if k < 0 or truncation < 0:
        raise ValueError(f"k and truncation must be >= 0, got k={k}, truncation={truncation}")
    parent = _parent_array(tree)
    depth, size = _depth_and_size(parent)
    ids, keys = _class_ids(parent, size, truncation)
    scanned = np.flatnonzero(depth >= k)
    top = scanned
    for _ in range(k):
        top = parent[top]
    inside = scanned[size[top] <= truncation]
    # the decomposition of v and the classes on its path up to the k-th
    # ancestor determine each other, so count the paths of class ids, folded
    # step by step into one code per vertex as `_class_ids` folds its rows;
    # every code occurs (for k = 0 they are the ids, each made from a vertex)
    width = len(keys)
    code, w = ids[inside], inside
    for _ in range(k):
        w = parent[w]
        _, code = np.unique(code * width + ids[w], return_inverse=True)
    found = np.bincount(code).tolist()
    rep = np.empty(len(found), dtype=np.int64)
    rep[code] = inside
    path = [ids[rep]]
    for _ in range(k):
        rep = parent[rep]
        path.append(ids[rep])
    path = np.stack(path, axis=1)
    pair, cut_at = np.unique(path[:, 1:] * width + path[:, :-1], return_inverse=True)
    cuts = [_cut(keys[u], keys[c]) for u, c in zip(*(x.tolist() for x in np.divmod(pair, width)))]
    counts = {
        "|".join([keys[f0]] + [cuts[i] for i in at]): c
        for f0, at, c in zip(path[:, 0].tolist(), cut_at.reshape(len(path), k).tolist(), found)
    }
    return FringeHistogram(
        counts=counts,
        other=len(scanned) - len(inside),
        total=len(scanned),
        truncation=truncation,
        k=k,
        excluded_shallow=len(parent) - len(scanned),
    )


def bp_fringe_sample(delta: float, rng: CounterRng) -> str:
    """One sample from the limiting fringe law, as a canonical key.

    Runs the memory branching process up to an independent exp(1) horizon
    and returns the canonical key of its genealogy.
    """
    return fringe(sample_memory_bp(delta, rng, exp1=True), 0)
