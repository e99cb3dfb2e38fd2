"""References that only the tests call.

Each is the literal, slow form of something the package computes another
way: the replayed weight sum behind `growth._thetas`, the O(n) sampler
behind the token sampler, history probabilities by repeated
`attach_probabilities`, the tree invariants, the drift matrix whose
spectrum `exponents` gives in closed form, the O(k) hazard sum behind the
O(1) recurrence in `limits._arrivals`, the thinning generators and the
callback genealogy loop that drew each proposal through `rng.exponential`
and `rng.random` behind the buffer-reading loops of `limits._arrivals`,
`sample_edge_bp` and `sample_memory_bp`, the arrival lists (with their
`max_arrivals` stop) whose counts `limit_degree_pmf` takes, the per-path
marked Yule chain behind `yule_marked_ensemble`, every thinning point of
`mc_zeta_hat` drawn at once behind its blocks of replicas, the list-based
degree ccdf and tail fits behind the array-native `tail_ccdf`,
`fit_power_tail` and `tail_window_sensitivity`, the key parser
`decode_key` and the canonical key rebuilt from its parts, every vertex's
key built string by string behind the integer classes of
`treeops._classes`, the fringe decomposition and the fringe histogram that
cut parsed keys, behind `extended_fringes` and the leaf-deflated
`empirical_fringe_distribution` (the histogram reference also labels every
vertex, leaves included);
beside them, the two-sample chi-square that compares samplers in law.
Test files import them with ``from oracles import ...``.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy import stats

from seritree.analysis import TAIL_MIN_POINTS, TAIL_QUANTILE, TailFit
from seritree.growth import TreeRecord, _edge_time_sums, attach_probabilities
from seritree.limits import (
    NODE_CAP,
    BranchingTree,
    ExponentPack,
    NodeCapExceeded,
    _check_delta,
    _mark_probability,
    exponents,
)
from seritree.rng import CounterRng
from seritree.treeops import FringeHistogram, Tree, _parent_array

LEAF_KEY = "()"


def replay_weight(tree: TreeRecord, i: int, delta, convention: str):
    """Literal double sum over times m = i..n of (deg(v_i, m) + delta)."""
    n = tree.n
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


def sample_target_naive(tree: TreeRecord, rng: CounterRng, delta: float, convention: str = "exact") -> int:
    """Reference O(n) sampler: one pass over the vertex weights."""
    n = tree.n
    if n < 1:
        raise ValueError("sampling requires n >= 1")
    delta = float(delta)
    degree = tree.degree.tolist()
    tsum = _edge_time_sums(tree)
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


def history_probability(parents: Sequence[int], delta, convention: str = "exact"):
    """Exact probability of one attachment history under the growth law."""
    prob = 1 if isinstance(delta, Fraction) else 1.0
    for n in range(1, len(parents)):
        probs = attach_probabilities(TreeRecord.from_parents(parents[:n]), delta, convention)
        prob *= probs[parents[n]]
    return prob


def check_tree_invariants(tree: TreeRecord) -> None:
    """Raise AssertionError unless `tree` is a tree grown from v0 by increasing parents."""
    n = tree.n
    if n < 1:
        raise AssertionError("tree must contain at least one edge")
    if tree.parent[0] != -1 or tree.parent[1] != 0:
        raise AssertionError("parent[0] must be -1 and parent[1] must be 0")
    chosen = tree.parent[1:]
    bad = np.flatnonzero((chosen < 0) | (chosen > np.arange(n)))
    if bad.size:
        m = int(bad[0]) + 1
        raise AssertionError(f"parent[{m}] = {chosen[bad[0]]} violates parent[m] < m")
    if int(tree.degree.sum()) != 2 * n:
        raise AssertionError("degree sum must equal 2n")
    if tree.degree.min() < 1:
        raise AssertionError("all degrees must be >= 1")


def drift_matrix(pack: ExponentPack) -> np.ndarray:
    """The drift matrix [[g, -g], [g, -(1+g)]], g = `pack.gamma`, whose spectrum `exponents` states."""
    g = pack.gamma
    return np.array([[g, -g], [g, -(1.0 + g)]])


def hazard(sigmas: Sequence[float], x: float, delta: float) -> float:
    """Hazard rate, at elapsed time x, of the next arrival after sigma_1..sigma_{k-1}.

    The root contributes (1+delta)/(1+delta/2) * (1 - e^-(sigma_{k-1} + x)),
    which is (1+delta)/(1+delta/2) * (1-e^-x) for the first arrival, and each
    previous arrival a (1 - e^-(sigma_{k-1} - sigma_j + x))/(1+delta/2) term.
    The value always lies in [0, (k+delta)/(1+delta/2)).  This is the
    definition; `limits._arrivals` evaluates the same sum in O(1) by a recurrence.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    a = (1.0 + delta) / (1.0 + 0.5 * delta)
    b = 1.0 / (1.0 + 0.5 * delta)
    s_prev = sigmas[-1] if sigmas else 0.0
    h = a * (1.0 - math.exp(-(x + s_prev)))
    for sj in sigmas:
        h += b * (1.0 - math.exp(-(s_prev - sj + x)))
    return h


def _exp1_horizon(rng: CounterRng, t_max: Optional[float], exp1: bool) -> Optional[float]:
    """`t_max`, or with ``exp1=True`` an exponential(1) horizon drawn from `rng`.

    ``exp1=True`` together with a `t_max` is refused before a word is drawn.
    """
    if not exp1:
        return t_max
    if t_max is not None:
        raise ValueError("exp1=True draws the horizon; pass t_max or exp1, not both")
    return rng.exponential()


def sample_arrivals(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    max_arrivals: Optional[int] = None,
    exp1: bool = False,
) -> list[float]:
    """The increasing arrival times of the limit point process, as a list.

    The times come from `arrivals`.  Stop at `t_max`, after
    `max_arrivals` (by `itertools.islice`, which asks for no arrival past
    the last one, so no word past it is drawn), or (with ``exp1=True``) at
    an exponential(1) horizon drawn from `rng` first, in place of `t_max`.
    """
    _check_delta(delta)
    t_max = _exp1_horizon(rng, t_max, exp1)
    if t_max is None and max_arrivals is None:
        raise ValueError("need a stop rule: t_max, max_arrivals, or exp1")
    if t_max is None:
        t_max = math.inf
    elif not t_max >= 0 or (t_max == math.inf and max_arrivals is None):  # NaN fails too
        raise ValueError("t_max must be >= 0, and finite without max_arrivals")
    return list(itertools.islice(arrivals(delta, rng, t_max), max_arrivals))


def arrivals(delta: float, rng: CounterRng, t_max: float, birth: float = 0.0) -> Iterator[float]:
    """Arrival times, birth + age, of one individual's offspring up to t_max.

    The thinning of `limits._arrivals` as a generator that draws each
    proposal through `rng.exponential(bound)` and `rng.random()`.
    """
    a = (1.0 + delta) / (1.0 + 0.5 * delta)
    b = 1.0 / (1.0 + 0.5 * delta)
    k, s, e = 0, 0.0, 0.0
    while True:
        bound = (k + 1 + delta) * b
        x = 0.0
        while True:
            x += rng.exponential(bound)
            t = birth + s + x
            if t > t_max:
                return  # proposals only increase; nothing left before the horizon
            decay = math.exp(-x)
            if rng.random() * bound <= a * (1.0 - math.exp(-(x + s))) + b * (k - decay * e):
                break
        k += 1
        s += x
        e = e * decay + 1.0
        yield t


def genealogy(
    rng: CounterRng, t_max: Optional[float], exp1: bool, max_nodes: int,
    offspring: Callable[[int, float, float], Iterable[float]],
) -> BranchingTree:
    """The genealogy up to a horizon of individuals that reproduce independently.

    `offspring(i, birth, t_max)` yields the birth times of individual i's
    children up to t_max.  The genealogy at a horizon does not depend on the
    order in which births are simulated, so the individuals are visited in
    index order, which is breadth first, and each one's children are appended
    as they come.  Raises `NodeCapExceeded` rather than silently truncating.
    """
    t_max = _exp1_horizon(rng, t_max, exp1)
    if t_max is None:
        raise ValueError("need a stop rule: t_max or exp1")
    if not 0.0 <= t_max < math.inf:
        raise ValueError("t_max must be finite and >= 0")
    parents: list[Optional[int]] = [None]
    births = [0.0]
    for i, birth in enumerate(births):  # reaches the children appended below too
        for t in offspring(i, birth, t_max):
            if len(parents) >= max_nodes:
                raise NodeCapExceeded(f"branching realization exceeded {max_nodes} nodes")
            parents.append(i)
            births.append(t)
    return BranchingTree(parents=parents, birth_times=births)


def sample_edge_bp_reference(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    exp1: bool = False,
    max_nodes: int = NODE_CAP,
) -> BranchingTree:
    """`limits.sample_edge_bp` as a thinning generator per individual, run through `genealogy`."""
    _check_delta(delta)
    c_root = (1.0 + delta) / (1.0 + 0.5 * delta)
    c_other = 1.0 / (1.0 + 0.5 * delta)

    def children(i: int, birth: float, horizon: float) -> Iterator[float]:
        c = c_root if i == 0 else c_other
        age = 0.0
        while True:
            age += rng.exponential(c)
            t = birth + age
            if t > horizon:
                return  # proposals only increase; nothing left before the horizon
            if rng.random() < 1.0 - math.exp(-age):
                yield t

    return genealogy(rng, t_max, exp1, max_nodes, children)


def sample_memory_bp_reference(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    exp1: bool = False,
    max_nodes: int = NODE_CAP,
) -> BranchingTree:
    """`limits.sample_memory_bp` with each individual's children from `arrivals`, run through `genealogy`."""
    _check_delta(delta)
    return genealogy(
        rng, t_max, exp1, max_nodes, lambda i, birth, horizon: arrivals(delta, rng, horizon, birth)
    )


@dataclass
class YulePath:
    """Trajectory of (Y, D, W) at jump times of the marked Yule process."""

    t: np.ndarray
    y: np.ndarray
    d: np.ndarray
    w: np.ndarray


def yule_marked_simulate(delta: float, t_max: float, rng: CounterRng) -> YulePath:
    """Simulate the rate-1 Yule process with degree marks up to time t_max.

    Starts from Y(0)=2 with one marked individual (mark time 0, so W(0)=2).
    Births occur at rate Y; each new individual is marked with probability
    gamma*((D+delta)/(Y+1) - W/(Y(Y+1))).  On a mark, W increases by the
    post-birth population.  The jump chain is exact in distribution
    (exponential holding times with mean 1/Y).
    """
    _check_delta(delta)
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    t, y, d, w = 0.0, 2, 1, 2.0
    ts, ys, ds, ws = [t], [y], [d], [w]
    while True:
        t += rng.exponential(y)
        if t > t_max:
            break
        p = _mark_probability(y, d, w, delta)
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise AssertionError(f"mark probability {p} outside [0, 1]")
        marked = rng.random() < p
        y += 1
        if marked:
            d += 1
            w += y
        ts.append(t)
        ys.append(y)
        ds.append(d)
        ws.append(w)
    return YulePath(t=np.array(ts), y=np.array(ys), d=np.array(ds), w=np.array(ws))


def mc_zeta_hat_reference(delta: float, reps: int, rng: CounterRng) -> np.ndarray:
    """`mc_zeta_hat` with all reps' thinning points drawn and summed at once."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    pack = exponents(delta)
    lam, c = pack.lam, pack.gamma
    horizon = math.log(c / (lam * 1e-9)) / lam
    gen = rng.numpy_rng()
    counts = gen.poisson(c * horizon, size=reps)
    total = int(counts.sum())
    t = gen.random(total)
    t *= horizon
    keep = gen.standard_exponential(total) < t
    t = t[keep]
    np.exp(np.multiply(t, -lam, out=t), out=t)  # e^(-lam t), in place
    rep_idx = np.repeat(np.arange(reps), counts)[keep]
    return np.bincount(rep_idx, weights=t, minlength=reps)


def tail_ccdf_reference(tree: TreeRecord) -> list[tuple[int, float]]:
    """`tail_ccdf` as a list of (k, P(deg >= k)) tuples, one per degree."""
    degrees = np.asarray(tree.degree, dtype=np.int64)
    if degrees.size == 0:
        raise ValueError("empty degree sample")
    if degrees.min() < 1:
        raise ValueError("degrees must be >= 1")
    counts = np.bincount(degrees)
    total = degrees.size
    # vertices of degree >= k, for k = 1..max
    tails = total - np.concatenate(([0], np.cumsum(counts[1:-1])))
    return [(k, tail / total) for k, tail in enumerate(tails.tolist(), start=1)]


def fit_power_tail_reference(
    ccdf: Sequence[tuple[int, float]],
    n_samples: Optional[int] = None,
    window: Optional[tuple[int, int]] = None,
) -> TailFit:
    """`fit_power_tail` on a list of (k, p) rows, picking the window and the points with list comprehensions."""
    pairs = [(k, p) for k, p in ccdf if p > 0]
    if window is not None:
        k_lo, k_hi = window
    else:
        if n_samples is None:
            raise ValueError("n_samples is required for the default window policy")
        k_lo = next((k for k, p in pairs if p <= TAIL_QUANTILE), None)
        k_hi = max((k for k, p in pairs if p * n_samples >= 50), default=None)
        if k_lo is None or k_hi is None:
            raise ValueError("tail window is empty under the default policy")
    sel = [(k, p) for k, p in pairs if k_lo <= k <= k_hi]
    if len(sel) < TAIL_MIN_POINTS:
        raise ValueError(f"window [{k_lo}, {k_hi}] holds {len(sel)} points; need >= {TAIL_MIN_POINTS}")
    x = np.log([k for k, _ in sel])
    y = np.log([p for _, p in sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    r2 = min(1.0, max(0.0, r2))
    return TailFit(
        slope=float(slope),
        intercept=float(intercept),
        k_min=int(k_lo),
        k_max=int(k_hi),
        r_squared=r2,
        n_tail_points=len(sel),
    )


def tail_window_sensitivity_reference(
    ccdf: Sequence[tuple[int, float]], n_samples: int
) -> list[TailFit]:
    """`tail_window_sensitivity` over `fit_power_tail_reference`."""
    base = fit_power_tail_reference(ccdf, n_samples=n_samples)
    fits = [base]
    for k_lo, k_hi in (
        (max(1, base.k_min // 2), base.k_max),
        (base.k_min * 2, base.k_max),
    ):
        try:
            fits.append(fit_power_tail_reference(ccdf, window=(k_lo, k_hi)))
        except ValueError:
            pass
    return fits


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


def subtree_keys(parent: list[int]) -> list[str]:
    """Canonical key of every vertex's descendant subtree, built string by string.

    One sweep over decreasing indices keys every child before its parent and
    wraps each vertex's sorted child keys, with no integer classes between.
    """
    keys = [LEAF_KEY] * len(parent)
    rows: list[list[str]] = [[] for _ in parent]
    for u in range(len(parent) - 1, -1, -1):
        if rows[u]:
            keys[u] = "(" + "".join(sorted(rows[u])) + ")"
        if parent[u] >= 0:
            rows[parent[u]].append(keys[u])
    return keys


def cut_key(key: str, child: str) -> str:
    """`key` with one root child of key `child` removed."""
    parts = decode_key(key)
    parts.remove(child)
    return "(" + "".join(parts) + ")"


def extended_fringes_reference(tree: Tree, k: int) -> dict[int, list[str]]:
    """Keys (f_0, ..., f_k) of the fringe decomposition of every vertex of depth >= k.

    f_0 is the descendant subtree of v; f_i is the subtree hanging off the
    i-th vertex on the path to the root once the branch containing v is
    removed, cut from the i-th vertex's key by `cut_key`.  A key depends on
    the descendants alone, so one string sweep (`subtree_keys`) keys every
    vertex, and each vertex's cut of its parent is made once and shared by
    every path through it.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    parent = _parent_array(tree).tolist()
    keys = subtree_keys(parent)
    cuts = {w: cut_key(keys[u], keys[w]) for w, u in enumerate(parent) if u >= 0} if k else {}
    decompositions = {}
    for v in range(len(parent)):
        path = [v]
        while len(path) <= k and parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        if len(path) > k:
            decompositions[v] = [keys[v]] + [cuts[w] for w in path[:-1]]
    return decompositions


def reencode_key(key: str) -> str:
    """Canonical fixed point: decode and rebuild the key (validates it)."""
    return "(" + "".join(sorted(reencode_key(c) for c in decode_key(key))) + ")"


def depth_and_size(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def class_ids(parent: np.ndarray, size: np.ndarray, truncation: int) -> tuple[np.ndarray, list[str]]:
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


def empirical_fringe_reference(tree: Tree, k: int = 0, truncation: int = 12) -> FringeHistogram:
    """Histogram of (extended) fringe keys over all vertices of the tree.

    The key of a vertex is the '|'-joined decomposition (f_0|...|f_k), for
    k = 0 its fringe key.  Vertices of depth < k are excluded and counted in
    `excluded_shallow` (their padded decompositions carry o(1) mass), and
    those whose k-th ancestor has more than `truncation` descendants, itself
    included, go to the overflow bin.  The rest are counted by class ids
    (`class_ids`), and key strings are built only for the distinct ones.
    """
    if k < 0 or truncation < 0:
        raise ValueError(f"k and truncation must be >= 0, got k={k}, truncation={truncation}")
    parent = _parent_array(tree)
    depth, size = depth_and_size(parent)
    ids, keys = class_ids(parent, size, truncation)
    scanned = np.flatnonzero(depth >= k)
    top = scanned
    for _ in range(k):
        top = parent[top]
    inside = scanned[size[top] <= truncation]
    # the decomposition of v and the classes on its path up to the k-th
    # ancestor determine each other, so count the paths of class ids, folded
    # step by step into one code per vertex as `class_ids` folds its rows;
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
    cuts = [cut_key(keys[u], keys[c]) for u, c in zip(*(x.tolist() for x in np.divmod(pair, width)))]
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


def same_law_p(a: Counter, b: Counter) -> float:
    """Chi-square p-value of the hypothesis that two samples, as counts by value, share one law."""
    support = sorted(set(a) | set(b))
    table = np.array([[a[k] for k in support], [b[k] for k in support]])
    return stats.chi2_contingency(table)[1]
