"""Limiting objects of the self-reinforced attachment dynamics.

This module simulates and evaluates the continuum limits that the grown tree
converges to locally:

* the memory-driven offspring point process, specified through hazard rates
  for its inter-arrival times and drawn by `_arrivals`;
* the edge branching process, in which the root reproduces at rate
  (1+delta)/(1+delta/2) * (1-e^-t) and every other individual at rate
  (1-e^-age)/(1+delta/2); its population size matches the offspring count
  plus one in distribution (`sample_edge_bp`);
* the memory branching process, whose individuals each reproduce like the
  offspring point process (`sample_memory_bp`);
* both branching processes visit their individuals in index order, which
  is breadth first, with no priority queue;
* every one of these rates is bounded by a constant, so each process is
  drawn by thinning (Lewis & Shedler 1979), with no root-finding; the
  thinning loops read their words straight from the `CounterRng` buffer
  (`CounterRng._words`), so a proposal costs no Python call but `math.log`
  and `math.exp`;
* closed-form growth/tail exponents and the drift-matrix spectrum
  (`exponents`);
* discounted offspring integrals and their cumulants (`zeta_hat_cumulant`,
  `mc_zeta_hat`);
* the limiting degree distribution (`limit_degree_pmf`), which counts the
  offspring process's arrivals before an exp(1) time, and its p(1) as a
  fast-converging series (`p1_quadrature`);
* exact discrete and limiting densities of marked neighborhoods
  (`marked_neighborhood_log_prob`, `limit_neighborhood_density`, which
  checks its two closed forms against each other);
* the marked Yule process tracking a fixed vertex's degree in continuous
  time, for many replicas at once (`yule_marked_ensemble`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .growth import _check_convention, _delta_part, total_weight_closed
from .rng import CounterRng

NODE_CAP = 10_000_000


class NodeCapExceeded(RuntimeError):
    """A branching-process realization outgrew the configured node cap."""


# ---------------------------------------------------------------------------
# closed-form exponents

@dataclass(frozen=True)
class ExponentPack:
    """Growth/tail exponents and drift-matrix spectrum for one delta."""

    delta: float
    phi: float          # tail exponent; typical degrees scale as n^(1/phi)
    lam: float          # Malthusian rate of the edge process, = 1/phi
    gamma: float        # 2/(2+delta)
    eigen_plus: float   # principal drift eigenvalue, equals lam
    eigen_minus: float  # secondary (negative) drift eigenvalue
    v2: float           # second coordinate of the principal left-eigenvector


def _check_delta(delta: float) -> None:
    """Refuse a delta outside the model: it must be finite and > -1."""
    if not -1.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > -1, got {delta}")


def exponents(delta: float) -> ExponentPack:
    """Evaluate the closed forms and verify their internal identities.

    phi = (1+delta/2)/2 * (1 + sqrt(1 + 4/(1+delta/2))), lam = 1/phi solves
    lam^2 + lam = 1/(1+delta/2), and the drift matrix [[g,-g],[g,-(1+g)]]
    with g = 2/(2+delta) has eigenvalues (+-sqrt(1+4g)-1)/2, the positive one
    equal to lam.
    """
    _check_delta(delta)
    half = 1.0 + 0.5 * delta
    gamma = 1.0 / half
    phi = 0.5 * half * (1.0 + math.sqrt(1.0 + 4.0 * gamma))
    lam = 1.0 / phi
    root = math.sqrt(1.0 + 4.0 * gamma)
    eigen_plus = 0.5 * (root - 1.0)
    eigen_minus = -0.5 * (root + 1.0)
    v2 = (eigen_plus - gamma) / gamma
    if not (
        abs(lam * lam + lam - gamma) <= 1e-12
        and abs(eigen_plus - lam) <= 1e-12
        and phi < 2.0 + delta
        and eigen_minus < 0.0
        and -1.0 < v2 < 0.0
    ):
        raise AssertionError(f"exponent identities fail at delta={delta}")
    return ExponentPack(
        delta=delta, phi=phi, lam=lam, gamma=gamma,
        eigen_plus=eigen_plus, eigen_minus=eigen_minus, v2=v2,
    )


# ---------------------------------------------------------------------------
# the offspring point process with memory

def rate_nonroot(age: float, delta: float) -> float:
    """Reproduction rate of a non-root edge-process individual at given age."""
    return (1.0 - math.exp(-age)) / (1.0 + 0.5 * delta)


def _arrivals(
    delta: float, rng: CounterRng, t_max: float, birth: float, times: list[float], max_nodes: float
) -> int:
    """Append one individual's offspring arrival times, birth + age, up to t_max to `times`.

    Returns how many it appended.  An arrival that finds `max_nodes` entries
    in `times` raises `NodeCapExceeded`, after the words of its proposal.

    Thinning (Lewis & Shedler 1979): the k-th arrival is proposed against the
    constant bound (k+delta)/(1+delta/2), which its hazard approaches but
    never attains, so acceptance probabilities stay in [0, 1) and the sampled
    survival function is exp(-integral of the hazard) with no discretization
    error.

    The hazard at elapsed time x after k arrivals, the last at age s, is
    the root's a(1 - e^-(s+x)) plus one b(1 - e^-(s - sigma_j + x)) per
    earlier arrival sigma_j, with a = (1+delta)/(1+delta/2) and
    b = 1/(1+delta/2).  That is a(1 - e^-(s+x)) + b(k - e^-x E) with
    E = sum_j e^-(s - sigma_j), and an arrival at x sets E to E e^-x + 1,
    so each proposal costs O(1).  `tests/oracles.py` keeps the O(k) sum.

    A proposal reads its gap and its uniform from `rng`'s buffer as
    `rng.exponential(bound)` and `rng.random()` would: the same words, the
    same floats.  `tests/oracles.py` keeps the generator that made those
    two calls.
    """
    a = (1.0 + delta) / (1.0 + 0.5 * delta)
    b = 1.0 / (1.0 + 0.5 * delta)
    log, exp = math.log, math.exp
    buf, j, end = rng._words(rng._idx)
    k, s, e = 0, 0.0, 0.0
    while True:
        bound = (k + 1 + delta) * b
        x = 0.0
        while True:
            if j == end:
                buf, j, end = rng._words(j)
            x += -log(1.0 - (buf[j] >> 11) * 2**-53) / bound
            j += 1
            t = birth + s + x
            if t > t_max:
                rng._idx = j
                return k  # proposals only increase; nothing left before the horizon
            decay = exp(-x)
            if j == end:
                buf, j, end = rng._words(j)
            u = (buf[j] >> 11) * 2**-53
            j += 1
            if u * bound <= a * (1.0 - exp(-(x + s))) + b * (k - decay * e):
                break
        if len(times) >= max_nodes:
            rng._idx = j
            raise NodeCapExceeded(f"branching realization exceeded {max_nodes} nodes")
        k += 1
        s += x
        e = e * decay + 1.0
        times.append(t)


# ---------------------------------------------------------------------------
# branching processes

@dataclass
class BranchingTree:
    """A continuous-time branching realization (genealogy plus birth times).

    Individuals are numbered breadth first, so every child has a larger
    index than its parent; birth times increase along each line of descent
    but are not sorted across the tree.
    """

    parents: list[Optional[int]]
    birth_times: list[float]

    @property
    def size(self) -> int:
        return len(self.parents)

    def check_invariants(self) -> None:
        if self.parents[0] is not None or self.birth_times[0] != 0.0:
            raise AssertionError("root must be unparented and born at 0")
        for i in range(1, self.size):
            p = self.parents[i]
            if p is None or not p < i or not self.birth_times[i] > self.birth_times[p]:
                raise AssertionError("children must come after, and be born after, their parents")


def _check_stop_rule(t_max: Optional[float], exp1: bool, max_nodes: int) -> None:
    """Refuse a genealogy's stop rule or node cap before a word is drawn.

    The stop rule is a finite `t_max` >= 0, or ``exp1=True`` alone, which
    draws an exponential(1) horizon; the cap is at least one node.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    if exp1:
        if t_max is not None:
            raise ValueError("exp1=True draws the horizon; pass t_max or exp1, not both")
    elif t_max is None:
        raise ValueError("need a stop rule: t_max or exp1")
    elif not 0.0 <= t_max < math.inf:
        raise ValueError("t_max must be finite and >= 0")


def sample_edge_bp(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    exp1: bool = False,
    max_nodes: int = NODE_CAP,
) -> BranchingTree:
    """Simulate the edge branching process up to a time horizon.

    Each individual's children are drawn by thinning: proposals come at the
    rate bound c (c_root for the root), and one at age a is kept with
    probability 1 - e^-a, which makes the children a Poisson process of rate
    c(1 - e^-a).  The genealogy at a horizon does not depend on the order in
    which births are simulated, so the individuals are visited in index
    order, which is breadth first, and each one's children are appended as
    they come.  A proposal reads its gap and its uniform from `rng`'s buffer
    as `rng.exponential(c)` and `rng.random()` would.  Raises
    `NodeCapExceeded` rather than silently truncating.
    """
    _check_delta(delta)
    _check_stop_rule(t_max, exp1, max_nodes)
    c_root = (1.0 + delta) / (1.0 + 0.5 * delta)
    c_other = 1.0 / (1.0 + 0.5 * delta)
    log, exp = math.log, math.exp
    buf, j, end = rng._words(rng._idx)
    if exp1:  # the horizon, as rng.exponential() draws it
        t_max = -log(1.0 - (buf[j] >> 11) * 2**-53)
        j += 1
    parents: list[Optional[int]] = [None]
    births = [0.0]
    for i, birth in enumerate(births):  # reaches the children appended below too
        c = c_root if i == 0 else c_other
        age = 0.0
        while True:
            if j == end:
                buf, j, end = rng._words(j)
            age += -log(1.0 - (buf[j] >> 11) * 2**-53) / c
            j += 1
            t = birth + age
            if t > t_max:
                break  # proposals only increase; nothing left before the horizon
            if j == end:
                buf, j, end = rng._words(j)
            u = (buf[j] >> 11) * 2**-53
            j += 1
            if u < 1.0 - exp(-age):
                if len(parents) >= max_nodes:
                    rng._idx = j
                    raise NodeCapExceeded(f"branching realization exceeded {max_nodes} nodes")
                parents.append(i)
                births.append(t)
    rng._idx = j
    return BranchingTree(parents=parents, birth_times=births)


def sample_memory_bp(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    exp1: bool = False,
    max_nodes: int = NODE_CAP,
) -> BranchingTree:
    """Simulate the branching process whose individuals reproduce with memory.

    Every individual carries its own copy of the limit offspring point
    process: the hazard of its k-th child depends on the ages at which its
    previous children arrived.  The individuals are visited in index order,
    as in `sample_edge_bp`, and `_arrivals` appends each one's children.
    This is the process whose genealogy, stopped at an independent exp(1)
    time, gives the limiting fringe law.  Raises `NodeCapExceeded` rather
    than silently truncating.
    """
    _check_delta(delta)
    _check_stop_rule(t_max, exp1, max_nodes)
    if exp1:
        t_max = rng.exponential()
    parents: list[Optional[int]] = [None]
    births = [0.0]
    for i, birth in enumerate(births):  # reaches the children appended below too
        parents += [i] * _arrivals(delta, rng, t_max, birth, births, max_nodes)
    return BranchingTree(parents=parents, birth_times=births)


# ---------------------------------------------------------------------------
# discounted offspring integrals

def zeta_hat_cumulant(delta: float, order: int) -> float:
    """Cumulant of the discounted offspring integral: c / (l*lam*(l*lam+1)).

    The first cumulant is 1 for every delta because the discount rate is
    Malthusian (lam^2 + lam = c).
    """
    if order < 1:
        raise ValueError("cumulant order must be >= 1")
    pack = exponents(delta)
    c = pack.gamma
    ll = order * pack.lam
    return c / (ll * (ll + 1.0))


_ZETA_CHUNK = 4096  # replicas per block of mc_zeta_hat's thinning draws


def _skip_words(gen: np.random.Generator, words: int) -> None:
    """Move the Philox-backed `gen` `words` 64-bit words ahead, as random_raw(words) would.

    The words still waiting in Philox's 4-word buffer go first, then whole
    blocks of four by `advance`, then the rest one by one.
    """
    bits = gen.bit_generator
    state = bits.state
    head = min(words, 4 - state["buffer_pos"])
    state["buffer_pos"] += head
    bits.state = state
    words -= head
    if words:
        bits.advance(words // 4)
        bits.random_raw(words % 4)


def mc_zeta_hat(delta: float, reps: int, rng: CounterRng) -> np.ndarray:
    """Monte Carlo samples of the discounted integral over the offspring process.

    Each sample is sum_j e^(-lam * t_j) over the points t_j of a Poisson
    process with the non-root rate c(1 - e^-t); points beyond the horizon T
    contribute at most (c/lam) e^(-lam T) in expectation, which is kept below
    1e-9.  The points come by thinning: Poisson(c T) uniform points on
    [0, T], each kept when a standard exponential draw falls below it, which
    happens with probability 1 - e^-t.

    One Philox stream gives the Poisson counts, then one word per uniform
    (all the uniforms, in replica order), then the exponentials.  Two
    cursors read it in blocks of _ZETA_CHUNK replicas: the generator itself
    reads a block's uniforms, and a copy moved past every uniform reads its
    exponentials.  The words, the arithmetic and the order in which each
    replica's points are summed are those of drawing all points at once, so
    the output is the same bit for bit, while the working memory stays that
    of one block.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    pack = exponents(delta)
    lam, c = pack.lam, pack.gamma
    horizon = math.log(c / (lam * 1e-9)) / lam
    gen = rng.numpy_rng()
    counts = gen.poisson(c * horizon, size=reps)
    ahead = copy.deepcopy(gen)
    _skip_words(ahead, int(counts.sum()))
    out = np.empty(reps)
    for a in range(0, reps, _ZETA_CHUNK):
        block = counts[a : a + _ZETA_CHUNK]
        total = int(block.sum())
        t = gen.random(total)
        t *= horizon
        keep = ahead.standard_exponential(total) < t
        t = t[keep]
        np.exp(np.multiply(t, -lam, out=t), out=t)  # e^(-lam t), in place
        rep_idx = np.repeat(np.arange(len(block)), block)[keep]
        out[a : a + len(block)] = np.bincount(rep_idx, weights=t, minlength=len(block))
    return out


# ---------------------------------------------------------------------------
# limiting degree distribution

@dataclass
class DegreePMF:
    """Probability mass function over degrees k >= 1 with its Monte Carlo standard errors."""

    p: dict[int, float]
    stderr: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        total = sum(self.p.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf must sum to 1, got {total}")
        if any(v < 0 for v in self.p.values()):
            raise ValueError("pmf entries must be nonnegative")


def limit_degree_pmf(delta: float, reps: int, rng: CounterRng) -> DegreePMF:
    """Monte Carlo estimate of the limiting degree pmf.

    p(k) is the fraction of replicas in which the offspring process produced
    exactly k-1 arrivals before an independent exp(1) time.  Each replica
    draws its horizon, then its arrivals up to it.
    """
    _check_delta(delta)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    counts: dict[int, int] = {}
    for _ in range(reps):
        k = 1 + _arrivals(delta, rng, rng.exponential(), 0.0, [], math.inf)
        counts[k] = counts.get(k, 0) + 1
    p = {k: c / reps for k, c in sorted(counts.items())}
    stderr = {k: math.sqrt(v * (1.0 - v) / reps) for k, v in p.items()}
    return DegreePMF(p=p, stderr=stderr)


def p1_quadrature(delta: float) -> float:
    """p(1), the first-arrival survival function integrated, as a series.

    p(1) = int_0^inf e^-t exp(-a (t - 1 + e^-t)) dt with
    a = (1+delta)/(1+delta/2).  Substituting x = e^-t turns it into
    e^a a^-(a+1) Gamma(a+1) P(a+1, a), where P is the regularized lower
    incomplete gamma function, and P's power series makes that
    sum_{j>=0} a^j / ((a+1)(a+2)...(a+j+1)).  Since 0 < a < 2 each term is
    below 2/(j+3) times the one before it, and the sum stops when a term no
    longer changes it, after 22 terms or fewer.  At delta = 0 it is e - 2.
    """
    _check_delta(delta)
    a = (1.0 + delta) / (1.0 + 0.5 * delta)
    total, term, j = 0.0, 1.0 / (a + 1.0), 2.0
    while total + term != total:
        total += term
        term *= a / (a + j)
        j += 1.0
    return total


# ---------------------------------------------------------------------------
# marked neighborhoods: exact discrete probability and its limit density

@dataclass(frozen=True)
class MarkedTree:
    """Ulam-Harris rooted tree with marks in (0,1] and/or discrete times.

    Vertices are indexed in birth order (index 0 is the root), so marks and
    times are strictly increasing with the index and sibling order coincides
    with arrival order.
    """

    parents: tuple[Optional[int], ...]
    marks: Optional[tuple[float, ...]] = None
    times: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        v = len(self.parents)
        if v == 0 or self.parents[0] is not None:
            raise ValueError("vertex 0 must be the root (parent None)")
        for i in range(1, v):
            p = self.parents[i]
            if p is None or not 0 <= p < i:
                raise ValueError("parents must satisfy parent[i] < i")
        if self.marks is not None:
            if len(self.marks) != v:
                raise ValueError("one mark per vertex required")
            if not all(0.0 < a <= 1.0 for a in self.marks):
                raise ValueError("marks must lie in (0, 1]")
            for i in range(1, v):
                if not self.marks[i] > self.marks[i - 1]:
                    raise ValueError("marks must increase with the vertex index")
        if self.times is not None:
            if len(self.times) != v:
                raise ValueError("one time per vertex required")
            if self.times[0] < 1:
                raise ValueError("root time must be >= 1")
            for i in range(1, v):
                if not self.times[i] > self.times[i - 1]:
                    raise ValueError("times must increase with the vertex index")

    @property
    def size(self) -> int:
        return len(self.parents)

    def children(self, u: int) -> list[int]:
        return [i for i in range(1, self.size) if self.parents[i] == u]

    def with_times(self, n: int) -> "MarkedTree":
        """Attach discrete times tau = ceil(n * mark) for horizon n."""
        if self.marks is None:
            raise ValueError("marks required to derive discrete times")
        times = tuple(math.ceil(n * a) for a in self.marks)
        return MarkedTree(parents=self.parents, marks=self.marks, times=times)


def random_marked_tree(rng: CounterRng, max_vertices: int) -> MarkedTree:
    """A random increasing tree of 1..max_vertices vertices with sorted marks.

    Marks are uniform order statistics, floored at 1e-6 and nudged apart
    where they tie; used to exercise the density identities.
    """
    size = 1 + rng.randbelow(max_vertices)
    parents = [None] + [rng.randbelow(i) for i in range(1, size)]
    marks = sorted(rng.random() for _ in range(size))
    marks = [max(m, 1e-6) for m in marks]
    for i in range(1, size):
        if marks[i] <= marks[i - 1]:
            marks[i] = marks[i - 1] + 1e-9
    return MarkedTree(parents=tuple(parents), marks=tuple(marks))


def _neighborhood_weight(tree: MarkedTree, v: int, u: int, delta: float, convention: str) -> float:
    """Integrated weight at time u of neighborhood vertex v, given only t's edges."""
    born = tree.times[v]
    w = (u + 1 - born)  # the birth edge
    for c in tree.children(v):
        tc = tree.times[c]
        if tc <= u:
            w += u + 1 - tc
    return w + _delta_part(delta, born, u, convention)


def marked_neighborhood_log_prob(
    n: int, tree: MarkedTree, delta: float, convention: str = "exact"
) -> float:
    """Log probability that the forward neighborhood of vertex tau_root is exactly `tree`.

    The event fixes every attachment listed in the tree at its recorded time
    and forbids any other vertex from attaching to the neighborhood up to
    time n.  The first factor group covers the listed edges
    (W_parent / total weight at the step), the second the excluded
    attachments (1 - sum of neighborhood weights / total weight).
    Cost O(n * |V(tree)|).  An unknown convention, or ``exact`` below
    delta = -1/2, raises ValueError, as in `GrowthParams`.
    """
    _check_delta(delta)
    _check_convention(delta, convention)
    if tree.times is None:
        raise ValueError("discrete times required")
    if tree.times[-1] > n:
        raise ValueError("all attachment times must be <= n")
    logp = 0.0
    for v in range(1, tree.size):
        s = tree.times[v]
        u = tree.parents[v]
        w = _neighborhood_weight(tree, u, s - 1, delta, convention)
        d_tot = float(total_weight_closed(s - 1, delta, convention))
        if w <= 0:
            return -math.inf
        logp += math.log(w) - math.log(d_tot)
    time_set = set(tree.times)
    root_time = tree.times[0]
    for s in range(root_time + 1, n + 1):
        if s in time_set:
            continue
        w_sum = 0.0
        for v in range(tree.size):
            if tree.times[v] < s:
                w_sum += _neighborhood_weight(tree, v, s - 1, delta, convention)
        d_tot = float(total_weight_closed(s - 1, delta, convention))
        if w_sum >= d_tot:  # neighborhood holds all the weight; exclusion impossible
            return -math.inf
        logp += math.log1p(-w_sum / d_tot)
    return logp


def _density_product_form(tree: MarkedTree, delta: float) -> float:
    """Closed-form limit density: per-edge polynomial factors times an exponential."""
    half = 1.0 + 0.5 * delta
    log_prod = 0.0
    expo = 0.0
    for u in range(tree.size):
        a_u = tree.marks[u]
        kid_marks = [tree.marks[c] for c in tree.children(u)]
        prev = [a_u]
        for a_k in kid_marks:
            num = delta * (a_k - a_u) + sum(a_k - a_m for a_m in prev)
            log_prod += math.log(num) - math.log(half * a_k * a_k)
            prev.append(a_k)
        g = lambda x: (x - 1.0) - math.log(x)
        expo += delta * g(a_u) + sum(g(x) for x in prev)
    return math.exp(log_prod - expo / half)


def _density_hazard_form(tree: MarkedTree, delta: float) -> float:
    """Same density via per-edge hazards and integrated hazards on the log scale."""
    a_coef = (1.0 + delta) / (1.0 + 0.5 * delta)
    b_coef = 1.0 / (1.0 + 0.5 * delta)
    log_dens = 0.0
    for u in range(tree.size):
        a_u = tree.marks[u]
        kid_marks = [tree.marks[c] for c in tree.children(u)]

        def lam_at(a: float, prev_kids: list[float]) -> float:
            val = a_coef * (1.0 - a_u / a)
            for a_m in prev_kids:
                val += b_coef * (1.0 - a_m / a)
            return val

        def big_lambda(a_from: float, a_to: float, prev_kids: list[float]) -> float:
            # integral of the hazard between log a_from and log a_to
            span = math.log(a_to / a_from)
            val = a_coef * (span + a_u / a_to - a_u / a_from)
            for a_m in prev_kids:
                val += b_coef * (span + a_m / a_to - a_m / a_from)
            return val

        prev_kids: list[float] = []
        a_last = a_u
        for a_k in kid_marks:
            log_dens += math.log(lam_at(a_k, prev_kids)) - math.log(a_k)
            log_dens -= big_lambda(a_last, a_k, prev_kids)
            prev_kids.append(a_k)
            a_last = a_k
        log_dens -= big_lambda(a_last, 1.0, prev_kids)
    return math.exp(log_dens)


def limit_neighborhood_density(tree: MarkedTree, delta: float) -> float:
    """Limit density of a marked neighborhood, evaluated via both closed forms.

    Both the product/exponential expression and the hazard-product expression
    are computed and must agree to 1e-10 relative; the product form's value
    is returned.
    """
    _check_delta(delta)
    if tree.marks is None:
        raise ValueError("continuous marks required")
    d1 = _density_product_form(tree, delta)
    d2 = _density_hazard_form(tree, delta)
    if abs(d1 - d2) > 1e-10 * max(1.0, abs(d1), abs(d2)):
        raise AssertionError(f"density forms disagree: {d1} vs {d2}")
    return d1


# ---------------------------------------------------------------------------
# marked Yule process

def _mark_probability(
    y: float | np.ndarray, d: float | np.ndarray, w: float | np.ndarray, delta: float
) -> float | np.ndarray:
    """Mark probability of the birth at pre-birth population y; all may be replica arrays."""
    gamma = 2.0 / (2.0 + delta)
    return gamma * ((d + delta) / (y + 1.0) - w / (y * (y + 1.0)))


def _check_mark_probability(p: np.ndarray, q: np.ndarray) -> None:
    """Refuse a mark probability outside [0, q], q <= 1 being its bound."""
    if ((p < -1e-12) | (p > q + 1e-12)).any():
        raise AssertionError("mark probability outside [0, 1]")


def yule_marked_ensemble(delta: float, t_grid: Sequence[float], reps: int, rng: CounterRng) -> np.ndarray:
    """Marked-individual counts D(t) on a time grid for many replicas.

    The process is a rate-1 Yule process Y from Y(0) = 2, with one marked
    individual (D(0) = 1, W(0) = 2).  A birth at pre-birth population y is
    marked with probability p = gamma*((D+delta)/(y+1) - W/(y(y+1))), and a
    mark adds the post-birth population to W.  `tests/oracles.py` keeps its
    jump chain, path by path, as the reference.

    This is an exact skip-ahead.  Y is a pure Yule process, so Y at the grid
    times comes first: Y(t') - Y(t) given Y(t) = y is NegBin(y, e^-(t'-t))
    (Kendall 1948).  The births taken by t_g are those whose pre-birth
    population is below Y(t_g).  Between marks D and W are fixed, and the
    mark probability p is at most q = min(1, gamma*(D+delta)/(y+1)), which
    does not increase in y.  So the next candidate birth is a geometric(q)
    skip, accepted with probability p/q (discrete thinning; Lewis & Shedler
    1979), and q is recomputed after every candidate.  A replica stops at
    the first candidate past its last grid time.  p must lie in [0, 1] at
    every birth taken: it is checked against [0, q] at each candidate and at
    the first birth after each mark, which suffices because (D+delta)y - W
    increases in y.  Returns an array of shape (len(t_grid), reps).
    """
    _check_delta(delta)
    grid = np.asarray(t_grid, dtype=float)
    n_grid = len(grid)
    if grid.ndim != 1 or n_grid == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must be a strictly increasing sequence")
    if not (np.isfinite(grid).all() and grid[0] >= 0):
        raise ValueError("t_grid must be finite and nonnegative")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    gen = rng.numpy_rng()
    # Y at each grid time (2 up to time 0), then a population no birth reaches
    pop = np.full((n_grid + 1, reps), np.iinfo(np.int64).max)
    y_t, t = np.full(reps, 2), 0.0
    for g, t_g in enumerate(grid):
        if t_g > t:
            y_t = y_t + gen.negative_binomial(y_t, math.exp(t - t_g))
            t = t_g
        pop[g] = y_t
    gamma = 2.0 / (2.0 + delta)
    out = np.empty((n_grid, reps))
    # the running replicas: replica number, pre-birth population of the next
    # birth, D, W, grid times recorded, Y at the next and at the last of them
    idx, y, d, w = np.arange(reps), np.full(reps, 2.0), np.ones(reps), np.full(reps, 2.0)
    gi, nxt, last = np.zeros(reps, dtype=np.int64), pop[0], pop[n_grid - 1]
    opens = last > 2  # the next birth is taken and opens a gap between marks
    while idx.size:
        q = np.minimum(gamma * (d + delta) / (y + 1.0), 1.0)
        if opens.any():
            p = _mark_probability(y[opens], d[opens], w[opens], delta)
            _check_mark_probability(p, q[opens])
        y += gen.geometric(q) - 1  # the next candidate
        while (hit := y >= nxt).any():  # grid times before the candidate
            out[gi[hit], idx[hit]] = d[hit]
            gi += hit
            nxt = pop[gi, idx]
            if (gi[hit] == n_grid).any():
                live = gi < n_grid
                idx, y, d, w, gi, nxt, last, q = (
                    a[live] for a in (idx, y, d, w, gi, nxt, last, q))
        p = _mark_probability(y, d, w, delta)
        _check_mark_probability(p, q)
        marked = gen.random(idx.size) * q < p
        d += marked
        w += marked * (y + 1.0)
        y += 1.0
        opens = marked & (y < last)
    return out
