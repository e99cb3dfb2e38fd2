"""Fringe machinery: canonical rooted-tree encoding and fringe statistics.

Rooted trees are canonicalized AHU-style: the key of a leaf is ``()`` and the
key of an internal vertex wraps the lexicographically sorted keys of its
children, so two trees get the same key exactly when a root-preserving
isomorphism maps one onto the other.  Keys double as the serialization format
for fringe histograms.

All functions accept either a grown `TreeRecord` or a `BranchingTree`
genealogy.  Both give every child a larger index than its parent, so one
sweep over decreasing indices builds keys bottom-up, and depths and subtree
sizes follow from the int64 parent array without a per-vertex loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .growth import TreeRecord, value_counts
from .limits import BranchingTree, sample_edge_bp, sample_memory_bp
from .rng import CounterRng

LEAF_KEY = "()"
OTHER_KEY = "(other)"


def _parent_array(tree: Union[TreeRecord, BranchingTree]) -> np.ndarray:
    """Int64 parents with -1 at the root.

    This is the one place where a genealogy's parent list, rooted at None,
    becomes an array.
    """
    if isinstance(tree, BranchingTree):
        return np.array([-1] + tree.parents[1:], dtype=np.int64)
    return tree.parent


def _keys(
    parent: list[int], vertices: Iterable[int], leaf_children: Optional[Sequence[int]] = None
) -> dict[int, str]:
    """Canonical keys of `vertices`, built bottom-up in one sweep.

    `vertices` must come in decreasing order and hold every non-leaf child
    of each of its members.  Leaf children may be left out and counted in
    `leaf_children` instead: the leaf key sorts after every other key, since
    "(" < ")", so they close the sorted child list.
    """
    keys: dict[int, str] = {}
    pending: dict[int, list[str]] = {}
    for u in vertices:
        kids = pending.pop(u, None)
        inner = "".join(sorted(kids)) if kids else ""
        if leaf_children is not None:
            inner += LEAF_KEY * leaf_children[u]
        key = keys[u] = "(" + inner + ")"
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
    order = np.argsort(depth, kind="stable")
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


def reencode_key(key: str) -> str:
    """Canonical fixed point: decode and rebuild the key (validates it)."""
    return "(" + "".join(sorted(reencode_key(c) for c in decode_key(key))) + ")"


def fringe(tree: Union[TreeRecord, BranchingTree], v: int) -> str:
    """Canonical key of the subtree of all descendants of v, rooted at v."""
    parent = _parent_array(tree).tolist()
    if not 0 <= v < len(parent):
        raise IndexError(f"vertex {v} not in tree")
    return _keys(parent, range(len(parent) - 1, v - 1, -1))[v]


def extended_fringe(tree: Union[TreeRecord, BranchingTree], v: int, k: int) -> list[str]:
    """Keys (f_0, ..., f_k) of the fringe decomposition along the root path.

    f_0 is the descendant subtree of v; f_i is the subtree hanging off the
    i-th vertex on the path to the root once the branch containing v is
    removed.  Requires depth(v) >= k.
    """
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


def q_count(s: str, t: str) -> int:
    """Number of root-children subtrees of s isomorphic to t."""
    t_canon = reencode_key(t)
    return sum(1 for c in decode_key(s) if reencode_key(c) == t_canon)


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

    def frequencies(self) -> dict[str, float]:
        out = {key: c / self.total for key, c in self.counts.items()}
        if self.other:
            out[OTHER_KEY] = self.other / self.total
        return out

    def merged(self, other: "FringeHistogram") -> "FringeHistogram":
        """Associative, commutative merge of two compatible histograms."""
        if (self.truncation, self.k) != (other.truncation, other.k):
            raise ValueError("histograms must share truncation and k")
        counts = dict(self.counts)
        for key, c in other.counts.items():
            counts[key] = counts.get(key, 0) + c
        return FringeHistogram(
            counts=counts,
            other=self.other + other.other,
            total=self.total + other.total,
            truncation=self.truncation,
            k=self.k,
            excluded_shallow=self.excluded_shallow + other.excluded_shallow,
        )


def empirical_fringe_distribution(
    tree: Union[TreeRecord, BranchingTree], k: int = 0, truncation: int = 12
) -> FringeHistogram:
    """Histogram of (extended) fringe keys over all vertices of the tree.

    For k = 0 every vertex is binned: leaves and fringes larger than
    `truncation` vertices (the overflow bin) by counting, the rest by their
    canonical keys, built once bottom-up.  For k >= 1 the key is the
    '|'-joined decomposition (f_0|...|f_k); vertices of depth < k are
    excluded and counted in `excluded_shallow` (their padded decompositions
    carry o(1) mass).
    """
    parent = _parent_array(tree)
    depth, size = _depth_and_size(parent)
    small = size <= truncation
    leaf = small & (size == 1)
    leaf_children = np.bincount(parent[leaf & (parent >= 0)], minlength=len(parent))
    parent_list = parent.tolist()
    keys = _keys(parent_list, np.flatnonzero(small & ~leaf)[::-1].tolist(), leaf_children.tolist())
    if k == 0:
        counts = dict(Counter(keys.values()))
        if leaf.any():
            counts[LEAF_KEY] = int(np.count_nonzero(leaf))
        return FringeHistogram(
            counts=counts, other=int(np.count_nonzero(~small)), total=len(parent), truncation=truncation
        )
    scanned = np.flatnonzero(depth >= k)
    top = scanned
    for _ in range(k):
        top = parent[top]
    inside = scanned[size[top] <= truncation]
    found = []
    cuts: dict[tuple[str, str], str] = {}
    for v in inside.tolist():
        w, key_w = v, keys.get(v, LEAF_KEY)
        parts = [key_w]
        for _ in range(k):
            u = parent_list[w]
            key_u = keys[u]
            cut = cuts.get((key_u, key_w))
            if cut is None:
                cut = cuts[key_u, key_w] = _cut(key_u, key_w)
            parts.append(cut)
            w, key_w = u, key_u
        found.append("|".join(parts))
    return FringeHistogram(
        counts=dict(Counter(found)),
        other=len(scanned) - len(inside),
        total=len(scanned),
        truncation=truncation,
        k=k,
        excluded_shallow=len(parent) - len(scanned),
    )


def bp_fringe_sample(
    delta: float,
    rng: CounterRng,
    method: str = "nested",
    max_nodes: int = 10_000_000,
) -> str:
    """One sample from the limiting fringe law, as a canonical key.

    Runs the memory branching process up to an independent exp(1) horizon
    and returns the canonical key of its genealogy.  ``method="edge"``
    substitutes the edge branching process, which matches in population size
    but not necessarily in genealogy; it is exposed for cross-validation of
    size statistics only.
    """
    if method == "nested":
        bp = sample_memory_bp(delta, rng, exp1=True, max_nodes=max_nodes)
    elif method == "edge":
        bp = sample_edge_bp(delta, rng, exp1=True, max_nodes=max_nodes)
    else:
        raise ValueError("method must be 'nested' or 'edge'")
    return fringe(bp, 0)


def degree_counts(tree: TreeRecord) -> dict[int, int]:
    """Empirical degree counts N_k: how many vertices have degree exactly k."""
    return value_counts(tree.degree)
