"""Growth engine for self-reinforced preferential attachment trees.

The tree starts as an isolated vertex v0; v1 attaches to v0 at time 1.  At
time n+1 a new vertex attaches to vertex i with probability proportional to
the integrated weight

    theta(v_i, n) = sum_{m=i}^{n} (deg(v_i, m) + delta),      delta > -1,

i.e. the cumulative sum over all past times of the vertex's affine degree.
The weight admits an exact event decomposition: every edge born at time t
contributes (n+1-t) to each endpoint, and the delta term of vertex i is an
arithmetic function of its birth time.  That decomposition is what makes the
O(1)-per-step token sampler that `grow` uses possible (`_fast_target_int`,
`_fast_target_float`; `selftest` runs the blocked one on every draw of a step
through `token_counts`).  The O(n) reference sampler and the literal replay
of the weight sum are kept beside the tests, in `tests/oracles.py`.

Two normalization conventions are supported:

* ``exact``: the literal weights; vertex i accrues delta from its birth step
  onward, so its delta part at time n is delta*(n+1-i).  The total weight is
  n(n+1) + delta*(n+1)*(n+2)/2.
* ``paper_total``: every vertex starts accruing delta one step after birth
  (delta part delta*(n-i)), which makes the total weight exactly
  n(n+1)(1+delta/2).  The two totals differ by delta*(n+1) for every n.

Exact (rational) arithmetic is supported by passing a `fractions.Fraction`
delta; this is intended for oracle tests at small n, not production runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isfinite, isqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .rng import CounterRng, drive_blocks, lemire

_UNIT = 1.1102230246251565e-16  # 2**-53, as in CounterRng.random

CONVENTIONS = ("exact", "paper_total")


def _check_convention(delta, convention: str) -> None:
    """Refuse an unknown convention, and ``exact`` below delta = -1/2."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    # under the literal weights v0 starts at theta(v0,1) = 1 + 2*delta and
    # all increments are >= 1 + delta, so delta >= -1/2 keeps every weight
    # nonnegative; paper_total is positive for all delta > -1
    if convention == "exact" and delta < -0.5:
        raise ValueError("exact convention requires delta >= -1/2 (v0 weight would go negative)")


@dataclass(frozen=True)
class GrowthParams:
    """Validated parameters of a growth run."""

    delta: float
    n_final: int
    seed: int = 0
    convention: str = "exact"

    def __post_init__(self):
        if not self.delta > -1:
            raise ValueError(f"delta must be > -1, got {self.delta}")
        if self.n_final < 1:
            raise ValueError(f"n_final must be >= 1, got {self.n_final}")
        _check_convention(self.delta, self.convention)
        if not 0 <= int(self.seed) <= (1 << 64) - 1:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        # CounterRng.randbelow draws one 64-bit word; a larger bound would
        # be sampled with a bias, and the blocked sampler cannot hold it
        if token_bound(self.delta, self.n_final, self.convention) >= 1 << 64:
            raise ValueError(
                f"n_final = {self.n_final} is too large at delta = {self.delta}: "
                "the sampler's token bound reaches 2^64"
            )


def token_bound(delta, n_final: int, convention: str) -> int:
    """Largest `randbelow` bound of a growth to n_final, drawn at n = n_final - 1.

    With 2*delta integral the token draw is below c2*n(n+1)/2 plus v0's
    delta mass 2*delta*(n+1) under ``exact``, where c2 = 4 + 2*delta (the
    total weight, scaled by 2 like the tokens); otherwise the float path
    draws the edge index below n(n+1)/2.
    """
    n = n_final - 1
    t_tri = n * (n + 1) // 2
    if not _is_half_integer(delta):
        return t_tri
    d2 = int(2 * delta)
    return (4 + d2) * t_tri + (d2 * (n + 1) if convention == "exact" else 0)


_CHECK_BLOCK = 1 << 16  # parents checked per block by `first_bad_parent`


def first_bad_parent(parent: np.ndarray) -> int:
    """The first vertex m >= 1 whose parent[m] is not in [0, m), or 0 if there is none.

    Checks `parent[1:]` in blocks of `_CHECK_BLOCK`, so the check holds no
    array of the tree's size beside it.
    """
    for a in range(1, len(parent), _CHECK_BLOCK):
        block = parent[a : a + _CHECK_BLOCK]
        bad = np.flatnonzero((block < 0) | (block >= np.arange(a, a + len(block))))
        if bad.size:
            return a + int(bad[0])
    return 0


@dataclass(frozen=True, eq=False)
class TreeRecord:
    """A grown tree: one int64 parent array, read-only.

    Vertex m (m >= 1) is born at time m and carries edge m = (m, parent[m]);
    parent[0] = -1 marks the root v0.  The constructor takes a parent array
    that is already valid.  Outside input goes through `from_parents`, which
    checks it.  The degrees are derived from the parents on first use and
    kept (`degree`).  The attachment law's delta is not part of the tree:
    the weight functions below take it as an argument.
    """

    parent: np.ndarray

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        parent.flags.writeable = False
        object.__setattr__(self, "parent", parent)

    @cached_property
    def degree(self) -> np.ndarray:
        """Degree of every vertex, read-only, computed once on first use.

        `np.add.at` counts the children in place: `np.bincount` would copy the
        read-only parents first.
        """
        degree = np.ones(len(self.parent) + 1, dtype=np.int64)  # the edge up, but at the root
        degree[0] = 0
        np.add.at(degree, self.parent, 1)  # the last slot takes the root's -1
        degree = degree[:-1]
        degree.flags.writeable = False
        return degree

    @classmethod
    def from_parents(cls, parents: Sequence[int]) -> "TreeRecord":
        """Check the parent choices of vertices 1..n and build the record."""
        chosen = np.asarray(parents, dtype=np.int64)
        if chosen.ndim != 1 or chosen.size < 1 or chosen[0] != 0:
            raise ValueError("history must start with parent[1] = 0")
        parent = np.empty(chosen.size + 1, dtype=np.int64)
        parent[0] = -1
        parent[1:] = chosen
        m = first_bad_parent(parent)
        if m:
            raise ValueError(f"parent of vertex {m} must be < {m}")
        return cls(parent)

    @property
    def n(self) -> int:
        return len(self.parent) - 1


def count_values(values: np.ndarray) -> np.ndarray:
    """How often each of 0..max occurs in a nonempty array of nonnegative integers.

    `np.add.at` counts in place: `np.bincount` would copy a read-only input,
    such as `TreeRecord.degree`, first.
    """
    if values.min() < 0:
        raise ValueError("values to count must be >= 0")
    counts = np.zeros(int(values.max()) + 1, dtype=np.int64)
    np.add.at(counts, values, 1)
    return counts


def value_counts(values: np.ndarray) -> dict[int, int]:
    """How often each nonnegative integer occurs, as a dict sorted by value."""
    counts = count_values(values)
    seen = np.flatnonzero(counts)
    return dict(zip(seen.tolist(), counts[seen].tolist()))


def _delta_part(delta, birth: int, n: int, convention: str):
    """Delta accrual of a vertex born at `birth`, evaluated at time n."""
    if convention == "exact":
        return delta * (n + 1 - birth)
    if convention == "paper_total":
        return delta * (n - birth)
    raise ValueError(f"unknown convention {convention!r}")


def _edge_time_sums(tree: TreeRecord) -> list[int]:
    """Sum of the birth times of the edges at each vertex, as Python ints.

    Edge m is born at time m, so vertex i collects its own birth time (none
    for v0) and those of its children; the degree part of its weight at
    time n is (n+1)*degree[i] minus this sum.
    """
    born = np.arange(1, len(tree.parent))
    sums = np.zeros(len(tree.parent), dtype=np.int64)
    np.add.at(sums, tree.parent[1:], born)
    sums[1:] += born
    return sums.tolist()


def total_weight_closed(n: int, delta, convention: str = "exact"):
    """Closed form of the total weight at time n under either convention."""
    if convention == "exact":
        return n * (n + 1) + delta * (n + 1) * (n + 2) / (Fraction(2) if isinstance(delta, Fraction) else 2)
    if convention == "paper_total":
        return n * (n + 1) + delta * n * (n + 1) / (Fraction(2) if isinstance(delta, Fraction) else 2)
    raise ValueError(f"unknown convention {convention!r}")


def _thetas(tree: TreeRecord, delta, convention: str) -> list:
    """All vertex weights at time n from the degrees and edge-time sums.

    Python ints keep Fraction deltas exact (numpy int64 / int64 is a float).
    """
    n = tree.n
    return [
        (n + 1) * d - t + _delta_part(delta, i, n, convention)
        for i, (d, t) in enumerate(zip(tree.degree.tolist(), _edge_time_sums(tree)))
    ]


def attach_probabilities(tree: TreeRecord, delta, convention: str = "exact") -> list:
    """Attachment distribution over vertices 0..n: theta_i / sum theta_j."""
    if tree.n < 1:
        raise ValueError("attachment probabilities require n >= 1")
    thetas = _thetas(tree, delta, convention)
    if min(thetas) < 0:
        raise ValueError(
            "negative attachment weight; the exact convention requires delta >= -1/2"
        )
    total = sum(thetas)
    probs = [t / total for t in thetas]
    s = sum(probs)
    if not (s == 1 if isinstance(delta, Fraction) else abs(s - 1.0) <= 1e-12):
        raise AssertionError(f"attachment probabilities sum to {s}")
    return probs


def _triangular_index(r: int) -> int:
    """Smallest K >= 1 with K(K+1)/2 > r, by exact integer CDF inversion."""
    k = (isqrt(8 * r + 1) - 1) // 2 + 1
    while k * (k + 1) // 2 <= r:  # integer-verified; corrects at most +-1
        k += 1
    while k >= 2 and (k - 1) * k // 2 > r:
        k -= 1
    return k


def _is_half_integer(delta) -> bool:
    d2 = 2 * delta
    return d2 == int(d2)


def _fast_target_int(parent, n, d2, convention, rng: CounterRng) -> int:
    """One fast-sampler draw with integer token weights (2*delta integral).

    Token decomposition (all weights scaled by 2 so half-integer delta stays
    integral): for each past time m, the edge (m, parent[m]) carries endpoint
    tokens of weight 2*(n+1-m) each; the delta mass delta*(n+1-m) goes to v_m
    under ``exact`` and to v_{m-1} under ``paper_total``; under ``exact`` v0
    additionally carries delta*(n+1).

    Negative delta lays the tokens out in this order: under ``paper_total``
    -delta for each of v_1..v_n; then edges m = n..2, whose child token
    (1+delta)(n+1-m) carries v_m's delta mass beside its degree part; then
    edge 1, v1's token (1+delta)n and v0's n plus v0's delta mass, the one
    delta mass with no birth edge to absorb it.
    """
    t_tri = n * (n + 1) // 2
    c2 = 4 + d2
    extra2 = d2 * (n + 1) if convention == "exact" else 0
    r = rng.randbelow(c2 * t_tri + extra2)
    if d2 >= 0:
        if r < extra2:
            return 0
        big_r, s = divmod(r - extra2, c2)
        m = n + 1 - _triangular_index(big_r)
        if s < 2:
            return m
        if s < 4:
            return parent[m]
        return m if convention == "exact" else m - 1
    uniform2 = 0 if convention == "exact" else -d2 * n
    if r < uniform2:
        return r // -d2 + 1
    r -= uniform2
    edges2 = c2 * (t_tri - n)
    if r >= edges2:
        return 1 if r - edges2 < (2 + d2) * n else 0
    big_r, s = divmod(r, c2)
    m = n + 1 - _triangular_index(big_r)
    return m if s < 2 + d2 else parent[m]


def _fast_target_float(parent, n, delta, convention, rng: CounterRng) -> int:
    """Float fallback of the fast sampler for non-half-integer delta.

    The first draw picks the region of the tokens; on an edge other than
    edge 1 two more draw the edge and the endpoint.  Distribution matches
    `attach_probabilities` to ~1e-12 relative (float threshold comparisons
    replace the exact integer draws).
    """
    t_tri = n * (n + 1) // 2
    two_plus = 2.0 + delta
    extra = delta * (n + 1) if convention == "exact" else 0.0
    u = rng.random() * (two_plus * t_tri + extra)
    if delta >= 0:
        if u < extra:
            return 0
        m = n + 1 - _triangular_index(rng.randbelow(t_tri))
        v = rng.random() * two_plus
        if v < 1.0:
            return m
        if v < 2.0:
            return parent[m]
        return m if convention == "exact" else m - 1
    uniform = 0.0 if convention == "exact" else -delta * n
    if u < uniform:
        return min(int(u / -delta), n - 1) + 1
    u -= uniform
    edges = two_plus * (t_tri - n)
    if u >= edges:
        return 1 if u - edges < (1.0 + delta) * n else 0
    m = n + 1 - _triangular_index(rng.randbelow(t_tri - n))
    v = rng.random() * two_plus
    return m if v < 1.0 + delta else parent[m]


@dataclass
class GrowthSnapshot:
    """Degree statistics captured at one checkpoint of a growth run."""

    n: int
    degree_counts: dict[int, int]
    tracked_degrees: dict[int, int] = field(default_factory=dict)


def _tri(k: np.ndarray) -> np.ndarray:
    """k(k+1)/2 of a uint64 array, without forming the product k(k+1)."""
    return ((k + 1) >> 1) * (k | 1)


def _triangular_indices(r: np.ndarray) -> np.ndarray:
    """`_triangular_index` of every entry of a uint64 array.

    The float value of sqrt(2r + 1/4) + 1/2, whose floor is the answer, is
    off by less than 2^-19 for every 64-bit r.  Taken 2^-10 low and floored,
    it gives the answer or one less, and one integer-checked step up makes
    it exact.  The check compares k(k+1)/2 = ceil(k/2)*(k|1) with r by
    dividing r, so nothing overflows.
    """
    x = r * 2.0
    x += 0.25
    np.sqrt(x, out=x)
    x += 0.5 - 2.0**-10
    k = x.astype(np.uint64)
    k += (k + 1) >> 1 <= r // (k | 1)
    return k


def _copy_parents(parent: np.ndarray, i: int, target: np.ndarray, copy: np.ndarray) -> None:
    """Replace target[k] by the parent of vertex target[k] wherever copy[k].

    Slot k is vertex i+k.  Parents of vertices below i are read from
    `parent`; a copy of a vertex in the block follows the chain of copies
    back to a drawn value by pointer jumping.
    """
    k = copy.nonzero()[0]
    src = target[k]
    target[k] = parent[src]  # final unless src >= i
    inner = src >= i
    if inner.any():
        k = k[inner]
        ptr = np.arange(target.size)
        ptr[k] = src[inner] - i
        while True:
            hop = ptr[ptr[k]]
            if np.array_equal(hop, ptr[k]):
                break
            ptr[k] = hop
        target[k] = target[ptr[k]]


def _token_targets(parent: np.ndarray, r: np.ndarray, n1: np.ndarray, d2: int, convention: str) -> np.ndarray:
    """The vertex that token draw r[k] picks at step n1[k] = n + 1, for uint64 arrays.

    `_fast_target_int` past its draw, for either sign of 2*delta.  The steps
    are n1[0], n1[0] + 1, ... of a growth whose parents below n1[0] are in
    `parent`, or all the step after the finished tree `parent`.
    """
    c2 = np.uint64(4 + d2)
    exact = convention == "exact"
    if d2 >= 0:
        extra = np.uint64(d2 if exact else 0)  # v0's delta mass per unit of n + 1
        if extra:
            low_mass = extra * n1
            low = r < low_mass
            big_r, s = np.divmod(r - np.minimum(r, low_mass), c2)
        else:
            big_r, s = np.divmod(r, c2)
        target = (n1 - _triangular_indices(big_r)).astype(np.int64)
        copy = s >> 1 == 1  # s in {2, 3}
        if not exact:
            target -= s >= 4
        if extra:
            copy &= ~low
            target[low] = 0
    else:
        neg = np.uint64(-d2)
        n = n1 - np.uint64(1)
        uniform = (np.uint64(0) if exact else neg) * n  # -d2 for each of v_1..v_n
        low = r < uniform
        rest = r - np.minimum(r, uniform)
        big_r, s = np.divmod(rest, c2)
        target = (n1 - _triangular_indices(big_r)).astype(np.int64)
        edges = c2 * (_tri(n) - n)
        last = rest >= edges  # edge 1: v1's token, then v0's
        target[last] = rest[last] - edges[last] < np.uint64(2 + d2) * n[last]
        target[low] = r[low] // neg + 1
        copy = (s >= 2 + d2) & ~last & ~low
    _copy_parents(parent, int(n1[0]), target, copy)
    return target


def token_counts(tree: TreeRecord, delta, convention: str) -> np.ndarray:
    """How many of the token draws at the step after `tree` pick each of its vertices.

    Runs the blocked sampler's target map on every draw below `token_bound`
    at step n + 1 (2*delta integral), so counts / bound is the law `grow`
    samples there; `selftest` holds it equal to `attach_probabilities`.
    """
    if not _is_half_integer(delta):
        raise ValueError(f"token counts need 2*delta integral, got delta = {delta}")
    n1 = tree.n + 1
    bound = token_bound(delta, n1, convention)
    r = np.arange(bound, dtype=np.uint64)
    target = _token_targets(tree.parent, r, np.full(bound, n1, dtype=np.uint64), int(2 * delta), convention)
    return np.bincount(target, minlength=n1)


def _int_block(parent: np.ndarray, d2: int, convention: str):
    """`_fast_target_int` for a block of steps, one word each (`drive_blocks`).

    A step is irregular when its word is rejected, or when its bound is 1,
    where ``randbelow(1)`` reads no word: v0 weighs 0 at n = 1 under
    ``exact`` with delta = -1/2.
    """
    c2 = np.uint64(4 + d2)
    # v0's delta mass per unit of n + 1, by its size: a negative 2*delta
    # cannot multiply a uint64 array, so `token_bound` cannot serve here
    v0 = np.uint64(abs(d2) if convention == "exact" else 0)

    def block(i: int, words: np.ndarray):
        n1 = np.arange(i, i + words.size, dtype=np.uint64)  # n + 1 at step i
        edges = c2 * _tri(n1 - np.uint64(1))
        bound = edges + v0 * n1 if d2 >= 0 else edges - v0 * n1
        r, irregular = lemire(words, bound)
        irregular |= bound == 1
        return _token_targets(parent, r, n1, d2, convention), irregular

    return block


def _float_block(parent: np.ndarray, delta: float, convention: str):
    """`_fast_target_float` for a block of steps, three words each.

    A step is irregular when it reads another number of words: its first
    draw lands off the edges whose endpoint takes two more draws (on v0's
    delta mass for nonnegative delta; in the uniform region or on edge 1
    for negative delta), which takes one word; its edge draw has a bound of
    1, where ``randbelow(1)`` takes none; or its bounded draw is rejected.
    """
    two_plus = 2.0 + delta
    v0_delta = delta if convention == "exact" else 0.0  # per unit of n + 1

    def block(i: int, words: np.ndarray):
        w = words.reshape(-1, 3)
        n1 = np.arange(i, i + len(w), dtype=np.uint64)  # n + 1 at step i
        n = n1 - np.uint64(1)
        t_tri = _tri(n)
        edge_draws = t_tri if delta >= 0 else t_tri - n
        r, irregular = lemire(w[:, 1], edge_draws)
        irregular |= edge_draws == 1
        if v0_delta or delta < 0:
            low_mass = v0_delta * n1.astype(np.float64)
            u = (w[:, 0] >> np.uint64(11)) * _UNIT * (two_plus * t_tri + low_mass)
            if delta >= 0:
                irregular |= u < low_mass
            else:
                uniform = 0.0 if convention == "exact" else -delta * n.astype(np.float64)
                irregular |= (u < uniform) | (u - uniform >= two_plus * (t_tri - n))
        target = (n1 - _triangular_indices(r)).astype(np.int64)
        v = (w[:, 2] >> np.uint64(11)) * _UNIT * two_plus
        if delta >= 0:
            copy = (v >= 1.0) & (v < 2.0)
            if convention == "paper_total":
                target -= v >= 2.0
        else:
            copy = v >= 1.0 + delta
        _copy_parents(parent, i, target, copy)
        return target, irregular

    return block


def grow(
    params: GrowthParams,
    checkpoints: Sequence[int] = (),
    rng: Optional[CounterRng] = None,
    track_vertices: Sequence[int] = (),
) -> tuple[TreeRecord, list[GrowthSnapshot]]:
    """Run the attachment dynamics to n_final with the O(1) token sampler.

    The steps run as numpy blocks (`drive_blocks`); a step whose draw reads
    another number of words than usual runs through `_fast_target_int` or
    `_fast_target_float` on `rng` itself, so the parents and the words
    consumed are those of calling the scalar sampler at every step.

    The returned snapshots hold degree counts and the degrees of
    `track_vertices` at each distinct checkpoint time; they are read off the
    final parent array, since the degree of v at time n counts only the
    children born by n; the snapshot at n_final reads `tree.degree`.
    """
    cps = sorted(set(checkpoints))
    if cps and (cps[0] < 1 or cps[-1] > params.n_final):
        raise ValueError("checkpoints must lie in [1, n_final]")
    if any(v < 0 for v in track_vertices):
        raise ValueError("tracked vertices must be >= 0")
    if rng is None:
        rng = CounterRng(params.seed)
    convention = params.convention
    parent = np.zeros(params.n_final + 1, dtype=np.int64)
    parent[:2] = (-1, 0)
    if _is_half_integer(params.delta):
        draw, delta = _fast_target_int, int(2 * params.delta)
        words, block = 1, _int_block(parent, delta, convention)
    else:
        draw, delta = _fast_target_float, float(params.delta)
        words, block = 3, _float_block(parent, delta, convention)

    def fixup(m: int) -> int:
        return draw(parent, m - 1, delta, convention, rng)

    drive_blocks(rng, parent, 2, words, block, fixup)
    tree = TreeRecord(parent)

    snapshots = []
    for n in cps:
        degree = (tree if n == params.n_final else TreeRecord(tree.parent[: n + 1])).degree
        tracked = {v: int(degree[v]) for v in track_vertices if v <= n}
        snapshots.append(GrowthSnapshot(n=n, degree_counts=value_counts(degree), tracked_degrees=tracked))
    return tree, snapshots


def enumerate_histories(n: int) -> Iterator[tuple[int, ...]]:
    """All attachment histories (parent tuples for vertices 1..n)."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def rec(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        # vertices 0..len(prefix) are present; the next one picks any of them
        for p in range(len(prefix) + 1):
            yield from rec(prefix + (p,))

    yield from rec((0,))
