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
`_fast_target_float`); the O(n) reference sampler (`sample_target_naive`) is
kept as an oracle.

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
from math import isfinite, isqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .rng import CounterRng, drive_blocks, lemire

_UNIT = 1.1102230246251565e-16  # 2**-53, as in CounterRng.random

CONVENTIONS = ("exact", "paper_total")


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
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        # under the literal weights v0 starts at theta(v0,1) = 1 + 2*delta and
        # all increments are >= 1 + delta, so delta >= -1/2 keeps every weight
        # nonnegative; paper_total is positive for all delta > -1
        if self.convention == "exact" and self.delta < -0.5:
            raise ValueError("exact convention requires delta >= -1/2 (v0 weight would go negative)")
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

    With 2*delta integral the token draw is below c2*n(n+1)/2 plus the mass
    below the tokens (`_low_rate`), scaled by 2 like the tokens, where
    c2 = 4 + 2*delta; otherwise the float path draws the edge index below
    n(n+1)/2.  v0's thinning bound for negative delta is smaller.
    """
    n = n_final - 1
    t_tri = n * (n + 1) // 2
    if not _is_half_integer(delta):
        return t_tri
    d2 = int(2 * delta)
    return (4 + d2) * t_tri + _low_rate(d2, convention) * (n + 1)


def _low_rate(delta, convention: str):
    """Mass that the token sampler puts below the tokens, per unit of n+1.

    It is v0's delta mass under ``exact`` and the uniform proposal for
    negative delta under ``paper_total``; delta may be scaled by 2.
    """
    return max(delta if convention == "exact" else -delta, 0)


@dataclass
class WeightView:
    """Integrated weight of one vertex, split into its two components."""

    vertex: int
    theta: float
    degree_part: float
    delta_part: float


@dataclass(frozen=True, eq=False)
class TreeRecord:
    """A grown tree: one int64 parent array and what it determines.

    Vertex m (m >= 1) is born at time m and carries edge m = (m, parent[m]);
    parent[0] = -1 marks the root v0.  The constructor takes a parent array
    that is already valid and derives `degree[i]` and `edge_time_sum[i]`
    (sum of birth times of edges incident to i) from it once, so every vertex
    weight is O(1) to evaluate: degree part = (n+1)*degree[i] - edge_time_sum[i].
    Outside input goes through `from_parents`, which checks it.
    """

    parent: np.ndarray
    delta: float | Fraction = 0.0
    degree: np.ndarray = field(init=False)
    edge_time_sum: np.ndarray = field(init=False)

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        chosen = parent[1:]
        born = np.arange(1, len(parent))
        degree = np.bincount(chosen, minlength=len(parent))
        degree[1:] += 1
        edge_time_sum = np.zeros(len(parent), dtype=np.int64)
        np.add.at(edge_time_sum, chosen, born)
        edge_time_sum[1:] += born
        for name, a in (("parent", parent), ("degree", degree), ("edge_time_sum", edge_time_sum)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_parents(cls, parents: Sequence[int], delta: float | Fraction = 0.0) -> "TreeRecord":
        """Check the parent choices of vertices 1..n and build the record."""
        chosen = np.asarray(parents, dtype=np.int64)
        if chosen.ndim != 1 or chosen.size < 1 or chosen[0] != 0:
            raise ValueError("history must start with parent[1] = 0")
        bad = np.flatnonzero((chosen < 0) | (chosen >= np.arange(1, chosen.size + 1)))
        if bad.size:
            m = int(bad[0]) + 1
            raise ValueError(f"parent of vertex {m} must be < {m}")
        return cls(np.concatenate(([-1], chosen)), delta)

    @property
    def n(self) -> int:
        return len(self.parent) - 1

    def check_invariants(self) -> None:
        n = self.n
        if n < 1:
            raise AssertionError("tree must contain at least one edge")
        if self.parent[0] != -1 or self.parent[1] != 0:
            raise AssertionError("parent[0] must be -1 and parent[1] must be 0")
        chosen = self.parent[1:]
        bad = np.flatnonzero((chosen < 0) | (chosen > np.arange(n)))
        if bad.size:
            m = int(bad[0]) + 1
            raise AssertionError(f"parent[{m}] = {chosen[bad[0]]} violates parent[m] < m")
        if int(self.degree.sum()) != 2 * n:
            raise AssertionError("degree sum must equal 2n")
        if self.degree.min() < 1:
            raise AssertionError("all degrees must be >= 1")


def value_counts(values: np.ndarray) -> dict[int, int]:
    """How often each nonnegative integer occurs, as a dict sorted by value."""
    counts = np.bincount(values)
    seen = np.flatnonzero(counts)
    return dict(zip(seen.tolist(), counts[seen].tolist()))


def _delta_part(delta, birth: int, n: int, convention: str):
    """Delta accrual of a vertex born at `birth`, evaluated at time n."""
    if convention == "exact":
        return delta * (n + 1 - birth)
    if convention == "paper_total":
        return delta * (n - birth)
    raise ValueError(f"unknown convention {convention!r}")


def _replay_weight(tree: TreeRecord, i: int, convention: str):
    """Literal double sum over times m = i..n of (deg(v_i, m) + delta)."""
    n = tree.n
    delta = tree.delta
    times = ([i] if i >= 1 else []) + np.flatnonzero(tree.parent == i).tolist()
    total = 0 * delta
    deg = 0
    t_idx = 0
    for m in range(i, n + 1):
        while t_idx < len(times) and times[t_idx] <= m:
            deg += 1
            t_idx += 1
        total += deg
        if convention == "exact" or m > i:
            total += delta
    return total


def vertex_weight(tree: TreeRecord, i: int, convention: str = "exact") -> WeightView:
    """Integrated weight theta(v_i, n), computed two independent ways.

    (a) by replaying the degree history and summing deg + delta over time,
    (b) by the event identity sum_{e at i} (n+1 - t_e) + delta part.
    The two must agree (exactly in rational mode, else to 1e-12 relative)
    before the event-identity view is returned.
    """
    n = tree.n
    if n < 1:
        raise ValueError("weights are defined only for n >= 1")
    if not 0 <= i <= n:
        raise IndexError(f"vertex {i} out of range 0..{n}")
    degree_part = (n + 1) * int(tree.degree[i]) - int(tree.edge_time_sum[i])
    delta_part = _delta_part(tree.delta, i, n, convention)
    theta = degree_part + delta_part
    replay = _replay_weight(tree, i, convention)
    if isinstance(tree.delta, Fraction) or float(tree.delta) * 2 == int(float(tree.delta) * 2):
        agree = replay == theta
    else:
        agree = abs(replay - theta) <= 1e-12 * max(1.0, abs(theta))
    if not agree:
        raise AssertionError(f"weight identity broken at vertex {i}: {replay} != {theta}")
    return WeightView(vertex=i, theta=theta, degree_part=degree_part, delta_part=delta_part)


def total_weight_closed(n: int, delta, convention: str = "exact"):
    """Closed form of the total weight at time n under either convention."""
    if convention == "exact":
        return n * (n + 1) + delta * (n + 1) * (n + 2) / (Fraction(2) if isinstance(delta, Fraction) else 2)
    if convention == "paper_total":
        return n * (n + 1) + delta * n * (n + 1) / (Fraction(2) if isinstance(delta, Fraction) else 2)
    raise ValueError(f"unknown convention {convention!r}")


def _thetas(tree: TreeRecord, convention: str) -> list:
    """All vertex weights at time n from the per-vertex bookkeeping.

    Python ints keep Fraction deltas exact (numpy int64 / int64 is a float).
    """
    n = tree.n
    return [
        (n + 1) * d - t + _delta_part(tree.delta, i, n, convention)
        for i, (d, t) in enumerate(zip(tree.degree.tolist(), tree.edge_time_sum.tolist()))
    ]


def total_weight(tree: TreeRecord, convention: str = "exact"):
    """Total weight at time n; equals the sum of all vertex weights.

    Under ``paper_total`` this is n(n+1)(1+delta/2); under ``exact`` it is
    n(n+1) + delta(n+1)(n+2)/2.  The gap is delta*(n+1) for every n >= 1.
    """
    n = tree.n
    if n < 1:
        raise ValueError("total weight is defined only for n >= 1")
    closed = total_weight_closed(n, tree.delta, convention)
    # recompute from per-vertex bookkeeping as a cross-check
    summed = sum(_thetas(tree, convention))
    if isinstance(tree.delta, Fraction):
        agree = summed == closed
    else:
        agree = abs(summed - closed) <= 1e-9 * max(1.0, abs(closed))
    if not agree:
        raise AssertionError(f"vertex weights sum to {summed}, closed form gives {closed}")
    return closed


def attach_probabilities(tree: TreeRecord, convention: str = "exact") -> list:
    """Attachment distribution over vertices 0..n: theta_i / sum theta_j."""
    if tree.n < 1:
        raise ValueError("attachment probabilities require n >= 1")
    thetas = _thetas(tree, convention)
    if min(thetas) < 0:
        raise ValueError(
            "negative attachment weight; the exact convention requires delta >= -1/2"
        )
    total = sum(thetas)
    probs = [t / total for t in thetas]
    s = sum(probs)
    if not (s == 1 if isinstance(tree.delta, Fraction) else abs(s - 1.0) <= 1e-12):
        raise AssertionError(f"attachment probabilities sum to {s}")
    return probs


def sample_target_naive(tree: TreeRecord, rng: CounterRng, convention: str = "exact") -> int:
    """Reference O(n) sampler: one pass over the maintained vertex weights."""
    n = tree.n
    if n < 1:
        raise ValueError("sampling requires n >= 1")
    delta = float(tree.delta)
    degree = tree.degree.tolist()
    tsum = tree.edge_time_sum.tolist()
    np1 = n + 1
    if convention == "exact":
        total = n * np1 + delta * np1 * (n + 2) / 2
        shift = np1
    else:
        total = n * np1 * (1 + delta / 2)
        shift = n
    u = rng.random() * total
    acc = 0.0
    for i in range(np1):
        acc += np1 * degree[i] - tsum[i] + delta * (shift - i)
        if u < acc:
            return i
    return n  # guard against float roundoff at the right edge


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


def _fast_target_int(parent, n, d2, convention, rng: CounterRng, deg0, tsum0) -> int:
    """One fast-sampler draw with integer token weights (2*delta integral).

    Token decomposition (all weights scaled by 2 so half-integer delta stays
    integral): for each past time m, the edge (m, parent[m]) carries endpoint
    tokens of weight 2*(n+1-m) each; the delta mass delta*(n+1-m) goes to v_m
    under ``exact`` and to v_{m-1} under ``paper_total``; under ``exact`` v0
    additionally carries delta*(n+1).  Negative delta folds the child's delta
    mass into its endpoint token and handles v0 by rejection against the
    nonnegative proposal (deg0/tsum0 are v0's degree and edge-time sum,
    passed in so the draw stays O(1)).
    """
    t_tri = n * (n + 1) // 2
    if d2 >= 0:
        c2 = 4 + d2
        extra2 = d2 * (n + 1) if convention == "exact" else 0
        r = rng.randbelow(c2 * t_tri + extra2)
        if r < extra2:
            return 0
        big_r, s = divmod(r - extra2, c2)
        m = n + 1 - _triangular_index(big_r)
        if s < 2:
            return m
        if s < 4:
            return parent[m]
        return m if convention == "exact" else m - 1
    # delta in (-1, 0): child token absorbs its own delta mass
    c2 = 4 + d2  # = 2*(2 + delta) scaled, still positive
    child2 = 2 + d2  # = 2*(1 + delta)
    uniform2 = (-d2) * (n + 1) if convention == "paper_total" else 0
    while True:
        r = rng.randbelow(c2 * t_tri + uniform2)
        if r < uniform2:
            target = r // (-d2)
        else:
            big_r, s = divmod(r - uniform2, c2)
            m = n + 1 - _triangular_index(big_r)
            target = m if s < child2 else parent[m]
        if target != 0:
            return target
        # v0 proposal dominates its true weight; accept with theta0/proposal0
        q0_2 = 2 * ((n + 1) * deg0 - tsum0)
        if convention == "paper_total":
            q0_2 -= d2
        if rng.randbelow(q0_2) < q0_2 + d2 * (n + 1):
            return 0


def _fast_target_float(parent, n, delta, convention, rng: CounterRng, deg0, tsum0) -> int:
    """Float fallback of the fast sampler for non-half-integer delta.

    Distribution matches `attach_probabilities` to ~1e-12 relative (float
    threshold comparisons replace the exact integer draws).
    """
    t_tri = n * (n + 1) // 2
    two_plus = 2.0 + delta
    if delta >= 0:
        extra = delta * (n + 1) if convention == "exact" else 0.0
        total = two_plus * t_tri + extra
        u = rng.random() * total
        if u < extra:
            return 0
        m = n + 1 - _triangular_index(rng.randbelow(t_tri))
        v = rng.random() * two_plus
        if v < 1.0:
            return m
        if v < 2.0:
            return parent[m]
        return m if convention == "exact" else m - 1
    uniform_mass = -delta * (n + 1) if convention == "paper_total" else 0.0
    while True:
        u = rng.random() * (two_plus * t_tri + uniform_mass)
        if u < uniform_mass:
            target = min(int(u / -delta), n)
        else:
            m = n + 1 - _triangular_index(rng.randbelow(t_tri))
            v = rng.random() * two_plus
            target = m if v < 1.0 + delta else parent[m]
        if target != 0:
            return target
        q0 = (n + 1) * deg0 - tsum0
        if convention == "paper_total":
            q0 -= delta
        if rng.random() * q0 < q0 + delta * (n + 1):
            return 0


def token_probability_vector(tree: TreeRecord, convention: str = "exact") -> list:
    """Attachment distribution induced analytically by the fast sampler.

    Accumulates the token weights the fast sampler draws from (including the
    rejection correction used for negative delta) and normalizes.  With a
    Fraction delta everything is exact; equality with `attach_probabilities`
    is the sampler-correctness oracle.
    """
    n = tree.n
    delta = tree.delta
    parent = tree.parent.tolist()
    zero = 0 * delta
    w = [zero] * (n + 1)
    if delta >= 0:
        if convention == "exact":
            w[0] = delta * (n + 1)
        for m in range(1, n + 1):
            k = n + 1 - m
            w[m] += k
            w[parent[m]] += k
            if convention == "exact":
                w[m] += delta * k
            else:
                w[m - 1] += delta * k
    else:
        # proposal weights; v0 then gets thinned down to its true weight
        for m in range(1, n + 1):
            k = n + 1 - m
            w[m] += (1 + delta) * k
            w[parent[m]] += k
        if convention == "paper_total":
            for i in range(n + 1):
                w[i] += -delta
        theta0 = w[0] + delta * (n + 1)
        if not 0 <= theta0 <= w[0]:
            raise AssertionError("v0 rejection dominance violated")
        w[0] = theta0
    total = sum(w)
    return [x / total for x in w]


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


def _int_block(parent: np.ndarray, d2: int, convention: str):
    """`_fast_target_int` for a block of steps, one word each (`drive_blocks`).

    A step is irregular when its word is rejected, or, for negative delta,
    when it proposes v0 and so pays for a thinning draw.
    """
    c2 = np.uint64(4 + d2)
    low_rate = np.uint64(_low_rate(d2, convention))

    def block(i: int, words: np.ndarray):
        n1 = np.arange(i, i + words.size, dtype=np.uint64)  # n + 1 at step i
        low_mass = low_rate * n1
        r, irregular = lemire(words, c2 * _tri(n1 - 1) + low_mass)
        if low_rate:
            low = r < low_mass
            big_r, s = np.divmod(r - np.minimum(r, low_mass), c2)
        else:
            big_r, s = np.divmod(r, c2)
        target = (n1 - _triangular_indices(big_r)).astype(np.int64)
        if d2 >= 0:
            copy = s >> 1 == 1  # s in {2, 3}
            if convention == "paper_total":
                target -= s >= 4
        else:
            copy = s >= 2 + d2
        if low_rate:
            copy &= ~low
            # v0 under exact; the uniform proposal r // -d2 under paper_total
            target[low] = r[low] // low_rate if d2 < 0 else 0
        _copy_parents(parent, i, target, copy)
        if d2 < 0:
            irregular |= target == 0
        return target, irregular

    return block


def _float_block(parent: np.ndarray, delta: float, convention: str):
    """`_fast_target_float` for a block of steps, three words each.

    A step is irregular when it reads another number of words: its first
    draw lands in the mass below the tokens, which takes one word; n = 1,
    where ``randbelow(1)`` takes none; or its bounded draw is rejected.  For
    negative delta a step that proposes v0 is irregular too.
    """
    two_plus = 2.0 + delta
    low_rate = float(_low_rate(delta, convention))

    def block(i: int, words: np.ndarray):
        w = words.reshape(-1, 3)
        n1 = np.arange(i, i + len(w), dtype=np.uint64)  # n + 1 at step i
        t_tri = _tri(n1 - 1)
        r, irregular = lemire(w[:, 1], t_tri)
        irregular |= t_tri == 1
        if low_rate:
            low_mass = low_rate * n1.astype(np.float64)
            u = (w[:, 0] >> np.uint64(11)) * _UNIT * (two_plus * t_tri + low_mass)
            irregular |= u < low_mass
        target = (n1 - _triangular_indices(r)).astype(np.int64)
        v = (w[:, 2] >> np.uint64(11)) * _UNIT * two_plus
        if delta >= 0:
            copy = (v >= 1.0) & (v < 2.0)
            if convention == "paper_total":
                target -= v >= 2.0
        else:
            copy = v >= 1.0 + delta
        _copy_parents(parent, i, target, copy)
        if delta < 0:
            irregular |= target == 0
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
    children born by n.
    """
    cps = sorted(set(checkpoints))
    if cps and (cps[0] < 1 or cps[-1] > params.n_final):
        raise ValueError("checkpoints must lie in [1, n_final]")
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
    # the samplers read v0's degree and edge-time sum only for negative
    # delta, and then every v0 target comes through fixup
    deg0 = tsum0 = 1

    def fixup(m: int) -> int:
        nonlocal deg0, tsum0
        target = draw(parent, m - 1, delta, convention, rng, deg0, tsum0)
        if target == 0:
            deg0 += 1
            tsum0 += m
        return target

    drive_blocks(rng, parent, 2, words, block, fixup)
    tree = TreeRecord(parent, params.delta)

    snapshots = []
    for n in cps:
        degree = np.bincount(tree.parent[1 : n + 1], minlength=n + 1)
        degree[1:] += 1
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


def history_probability(parents: Sequence[int], delta, convention: str = "exact"):
    """Exact probability of one attachment history under the growth law."""
    prob = 1 if isinstance(delta, Fraction) else 1.0
    for n in range(1, len(parents)):
        probs = attach_probabilities(TreeRecord.from_parents(parents[:n], delta), convention)
        prob *= probs[parents[n]]
    return prob
