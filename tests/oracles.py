"""References that only the tests call.

Each is the literal, slow form of something the package computes another
way: the replayed weight sum behind `growth._thetas`, the O(n) sampler
behind the token sampler, history probabilities by repeated
`attach_probabilities`, the tree invariants, the per-path marked Yule chain
behind `yule_marked_ensemble`, and the canonical key rebuilt from its parts;
beside them, the two-sample chi-square that compares samplers in law.  Test
files import them with ``from oracles import ...``.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import stats

from seritree.growth import TreeRecord, _edge_time_sums, attach_probabilities
from seritree.limits import _check_delta, _check_variant, _mark_probability
from seritree.rng import CounterRng
from seritree.treeops import decode_key


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


@dataclass
class YulePath:
    """Trajectory of (Y, D, W) at jump times of the marked Yule process."""

    t: np.ndarray
    y: np.ndarray
    d: np.ndarray
    w: np.ndarray


def yule_marked_simulate(
    delta: float,
    t_max: float,
    rng: CounterRng,
    variant: str = "exact_chain",
) -> YulePath:
    """Simulate the rate-1 Yule process with degree marks up to time t_max.

    Starts from Y(0)=2 with one marked individual (mark time 0, so W(0)=2).
    Births occur at rate Y; each new individual is marked with probability
    gamma*((D+delta)/(Y+1) - W/(Y(Y+1))) for the exact chain, or with Y in
    place of Y+1 for the simplified variant.  On a mark, W increases by the
    post-birth population.  The jump chain is exact in distribution
    (exponential holding times with mean 1/Y).
    """
    _check_delta(delta)
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    _check_variant(variant)
    t, y, d, w = 0.0, 2, 1, 2.0
    ts, ys, ds, ws = [t], [y], [d], [w]
    while True:
        t += rng.exponential(y)
        if t > t_max:
            break
        p = _mark_probability(y, d, w, delta, variant)
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


def reencode_key(key: str) -> str:
    """Canonical fixed point: decode and rebuild the key (validates it)."""
    return "(" + "".join(sorted(reencode_key(c) for c in decode_key(key))) + ")"


def same_law_p(a: Counter, b: Counter) -> float:
    """Chi-square p-value of the hypothesis that two samples, as counts by value, share one law."""
    support = sorted(set(a) | set(b))
    table = np.array([[a[k] for k in support], [b[k] for k in support]])
    return stats.chi2_contingency(table)[1]
