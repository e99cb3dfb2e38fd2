"""Limiting objects of the self-reinforced attachment dynamics.

This module simulates and evaluates the continuum limits that the grown tree
converges to locally:

* the memory-driven offspring point process, specified through hazard rates
  for its inter-arrival times (`hazard`, `sample_arrivals`);
* the edge branching process, in which the root reproduces at rate
  (1+delta)/(1+delta/2) * (1-e^-t) and every other individual at rate
  (1-e^-age)/(1+delta/2); its population size matches the offspring count
  plus one in distribution (`sample_edge_bp`);
* closed-form growth/tail exponents and the drift-matrix spectrum
  (`exponents`);
* discounted offspring integrals and their cumulants (`zeta_hat_cumulant`,
  `mc_zeta_hat`);
* the limiting degree distribution (`limit_degree_pmf`, `p1_quadrature`);
* exact discrete and limiting densities of marked neighborhoods
  (`marked_neighborhood_log_prob`, `limit_neighborhood_density`);
* the marked Yule process tracking a fixed vertex's degree in continuous
  time (`yule_marked_simulate`, `yule_marked_ensemble`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import integrate

from .growth import total_weight_closed
from .rng import CounterRng

NODE_CAP = 10_000_000
_NEWTON_CHUNK = 1 << 14  # points per chunk of the zeta Newton sweep


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

    def drift_matrix(self) -> np.ndarray:
        g = self.gamma
        return np.array([[g, -g], [g, -(1.0 + g)]])


def exponents(delta: float) -> ExponentPack:
    """Evaluate the closed forms and verify their internal identities.

    phi = (1+delta/2)/2 * (1 + sqrt(1 + 4/(1+delta/2))), lam = 1/phi solves
    lam^2 + lam = 1/(1+delta/2), and the drift matrix [[g,-g],[g,-(1+g)]]
    with g = 2/(2+delta) has eigenvalues (+-sqrt(1+4g)-1)/2, the positive one
    equal to lam.
    """
    if not delta > -1:
        raise ValueError(f"delta must be > -1, got {delta}")
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


def hazard(sigmas: Sequence[float], x: float, delta: float) -> float:
    """Hazard rate, at elapsed time x, of the next arrival after sigma_1..sigma_{k-1}.

    The root contributes (1+delta)/(1+delta/2) * (1 - e^-(sigma_{k-1} + x)),
    which is (1+delta)/(1+delta/2) * (1-e^-x) for the first arrival, and each
    previous arrival a (1 - e^-(sigma_{k-1} - sigma_j + x))/(1+delta/2) term.
    The value always lies in [0, (k+delta)/(1+delta/2)).
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


def _next_arrival(
    ages: Sequence[float], birth: float, t_max: float, delta: float, rng: CounterRng
) -> Optional[float]:
    """Age increment from the last of `ages` to the next arrival, or None past t_max.

    Thinning (Lewis & Shedler 1979) against the constant bound
    (k+delta)/(1+delta/2), which the k-th hazard approaches but never
    attains, so acceptance probabilities stay in [0, 1) and the sampled
    survival function is exp(-integral of the hazard) with no discretization
    error.  `birth` + age is the absolute time compared with `t_max`.
    """
    bound = (len(ages) + 1 + delta) * (1.0 / (1.0 + 0.5 * delta))
    prev = ages[-1] if ages else 0.0
    x = 0.0
    while True:
        x += rng.exponential(bound)
        if birth + prev + x > t_max:
            return None  # proposals only increase; nothing left before the horizon
        if rng.random() * bound <= hazard(ages, x, delta):
            return x


def sample_arrivals(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    max_arrivals: Optional[int] = None,
    exp1: bool = False,
) -> list[float]:
    """Sample the increasing arrival times of the limit point process.

    Inter-arrivals come from `_next_arrival`.  Stop at `t_max`, after
    `max_arrivals`, or (with ``exp1=True``) at an exponential(1) horizon
    drawn from `rng` first.
    """
    if exp1:
        t_max = rng.exponential()
    if t_max is None and max_arrivals is None:
        raise ValueError("need a stop rule: t_max, max_arrivals, or exp1")
    if t_max is None:
        t_max = math.inf
    elif math.isnan(t_max) or (t_max == math.inf and max_arrivals is None):
        raise ValueError("t_max must not be NaN, and must be finite without max_arrivals")
    sigmas: list[float] = []
    while max_arrivals is None or len(sigmas) < max_arrivals:
        x = _next_arrival(sigmas, 0.0, t_max, delta, rng)
        if x is None:
            break
        sigmas.append((sigmas[-1] if sigmas else 0.0) + x)
    return sigmas


# ---------------------------------------------------------------------------
# the edge branching process

@dataclass
class BranchingTree:
    """A continuous-time branching realization (genealogy plus birth times)."""

    parents: list[Optional[int]]
    birth_times: list[float]
    horizon: float

    @property
    def size(self) -> int:
        return len(self.parents)

    def check_invariants(self) -> None:
        if self.parents[0] is not None or self.birth_times[0] != 0.0:
            raise AssertionError("root must be unparented and born at 0")
        for i in range(1, self.size):
            p = self.parents[i]
            if p is None or not self.birth_times[i] > self.birth_times[p]:
                raise AssertionError("children must be born strictly after their parents")


def inverse_cumulative_hazard(c: float, target: float, tol: float = 1e-12) -> float:
    """Solve c*(t - 1 + e^-t) = target for t >= 0.

    The left side is convex and increasing, and the initial guess
    target/c + 1 always sits at or above the root, so safeguarded Newton
    converges monotonically; bisection kicks in only on pathological
    rounding.
    """
    if target <= 0.0:
        return 0.0
    t = target / c + 1.0
    lo = 0.0
    for _ in range(200):
        f = c * (t - 1.0 + math.exp(-t)) - target
        if abs(f) <= tol * max(1.0, target):
            return t
        fp = c * (1.0 - math.exp(-t))
        step = f / fp if fp > 0 else 0.0
        nxt = t - step
        if not lo < nxt <= t:
            nxt = 0.5 * (lo + t)  # bisection fallback
        if f > 0:
            t = nxt
        else:
            lo, t = t, nxt
        if t - lo <= tol:
            return t
    return t


def sample_edge_bp(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    exp1: bool = False,
    max_nodes: int = NODE_CAP,
) -> BranchingTree:
    """Simulate the edge branching process up to a time horizon.

    Per-individual Poisson arrivals are generated by exact inversion of the
    cumulative hazard c*(t - 1 + e^-t) fed with unit-exponential increments;
    a priority queue orders the next potential birth over all individuals.
    Raises `NodeCapExceeded` rather than silently truncating.
    """
    if exp1:
        t_max = rng.exponential()
    if t_max is None:
        raise ValueError("need a stop rule: t_max or exp1")
    if not math.isfinite(t_max):
        raise ValueError("t_max must be finite")
    c_root = (1.0 + delta) / (1.0 + 0.5 * delta)
    c_other = 1.0 / (1.0 + 0.5 * delta)
    parents: list[Optional[int]] = [None]
    births: list[float] = [0.0]
    cum_exp: list[float] = [rng.exponential()]
    rate_const: list[float] = [c_root]
    heap: list[tuple[float, int]] = []
    first = inverse_cumulative_hazard(c_root, cum_exp[0])
    if first <= t_max:
        heapq.heappush(heap, (first, 0))
    while heap:
        t, i = heapq.heappop(heap)
        child = len(parents)
        if child >= max_nodes:
            raise NodeCapExceeded(f"branching realization exceeded {max_nodes} nodes")
        parents.append(i)
        births.append(t)
        cum_exp.append(rng.exponential())
        rate_const.append(c_other)
        t_child = t + inverse_cumulative_hazard(c_other, cum_exp[child])
        if t_child <= t_max:
            heapq.heappush(heap, (t_child, child))
        cum_exp[i] += rng.exponential()
        t_next = births[i] + inverse_cumulative_hazard(rate_const[i], cum_exp[i])
        if t_next <= t_max:
            heapq.heappush(heap, (t_next, i))
    return BranchingTree(parents=parents, birth_times=births, horizon=t_max)


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
    previous children arrived.  Inter-arrivals come from `_next_arrival`, as
    in `sample_arrivals`; a global priority queue interleaves the
    individuals.  This is the process whose genealogy, stopped at an
    independent exp(1) time, gives the limiting fringe law.
    """
    if exp1:
        t_max = rng.exponential()
    if t_max is None:
        raise ValueError("need a stop rule: t_max or exp1")
    if not math.isfinite(t_max):
        raise ValueError("t_max must be finite")
    parents: list[Optional[int]] = [None]
    births: list[float] = [0.0]
    arrival_ages: list[list[float]] = [[]]
    heap: list[tuple[float, int, float]] = []

    def schedule_next(i: int) -> None:
        ages = arrival_ages[i]
        x = _next_arrival(ages, births[i], t_max, delta, rng)
        if x is not None:
            prev = ages[-1] if ages else 0.0
            heapq.heappush(heap, (births[i] + prev + x, i, prev + x))

    schedule_next(0)
    while heap:
        t, i, age = heapq.heappop(heap)
        arrival_ages[i].append(age)
        child = len(parents)
        if child >= max_nodes:
            raise NodeCapExceeded(f"branching realization exceeded {max_nodes} nodes")
        parents.append(i)
        births.append(t)
        arrival_ages.append([])
        schedule_next(i)
        schedule_next(child)
    return BranchingTree(parents=parents, birth_times=births, horizon=t_max)


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


def mc_zeta_hat(delta: float, reps: int, rng: CounterRng) -> np.ndarray:
    """Monte Carlo samples of the discounted integral over the offspring process.

    Each sample is sum_j e^(-lam * t_j) over the points t_j of a Poisson
    process with the non-root rate; points beyond the horizon T contribute at
    most (c/lam) e^(-lam T) in expectation, which is kept below 1e-9.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    pack = exponents(delta)
    lam, c = pack.lam, pack.gamma
    horizon = math.log(c / (lam * 1e-9)) / lam
    total_mass = c * (horizon - 1.0 + math.exp(-horizon))
    gen = rng.numpy_rng()
    counts = gen.poisson(total_mass, size=reps)
    total = int(counts.sum())
    t = _inverse_cumulative_hazard_vec(c, gen.random(total) * total_mass)
    np.exp(np.multiply(t, -lam, out=t), out=t)  # e^(-lam t), in place
    rep_idx = np.repeat(np.arange(reps), counts)
    return np.bincount(rep_idx, weights=t, minlength=reps)


def _inverse_cumulative_hazard_vec(c: float, targets: np.ndarray) -> np.ndarray:
    """Vectorized Newton for c*(t-1+e^-t) = target; init from above as in the scalar case.

    Every iteration maps t to max(t - f/f', 0) with f = c*(t-1+e^-t) - target
    and f' = c*(1-e^-t) (a step of 0 where f' is not positive), for at most
    60 iterations, and stops after the first one whose max |f| over all
    points is at most 1e-12 * max(1, max target).  A point whose update
    returns its own t is at an exact fixed point: later iterations give it
    the same t and the same |f|.  Such points retire from the sweep once
    they are at least half of it, and their last |f| stays in the stop test,
    so the result is that of iterating every point to the end.  The sweep
    runs in chunks through scratch buffers, with one exp per point.
    """
    t = targets / c + 1.0
    if t.size == 0:
        return t
    tol = 1e-12 * max(1.0, float(np.max(targets)))
    # the points still swept: their t, their targets and where they belong in
    # t (None while that is all of t, in order)
    ts, gs, pos = t, targets, None
    retired_ok = True  # every retired point's |f| is within tol
    e, f, q = (np.empty(_NEWTON_CHUNK) for _ in range(3))
    ok, moved = np.empty(_NEWTON_CHUNK, dtype=bool), np.empty(t.size, dtype=bool)
    for _ in range(60):
        stop, fixed_ok = retired_ok, True
        for lo in range(0, ts.size, _NEWTON_CHUNK):
            tc, gc = ts[lo : lo + _NEWTON_CHUNK], gs[lo : lo + _NEWTON_CHUNK]
            k = tc.size
            ec, fc, qc, okc, mc = e[:k], f[:k], q[:k], ok[:k], moved[lo : lo + k]
            np.exp(np.negative(tc, out=ec), out=ec)
            np.subtract(tc, 1.0, out=fc)
            fc += ec
            fc *= c
            fc -= gc  # f
            np.subtract(1.0, ec, out=ec)
            ec *= c  # f'
            np.maximum(ec, 1e-300, out=qc)
            np.divide(fc, qc, out=qc)
            if not np.greater(ec, 0.0, out=okc).all():
                qc[~okc] = 0.0
            np.subtract(tc, qc, out=qc)
            np.maximum(qc, 0.0, out=qc)  # the next t
            np.not_equal(qc, tc, out=mc)
            tc[...] = qc
            np.less_equal(np.abs(fc, out=fc), tol, out=okc)
            if not okc.all():
                stop = False
                fixed_ok = fixed_ok and bool((okc | mc).all())
        if stop:
            break
        n_moved = int(np.count_nonzero(moved[: ts.size]))
        if 2 * n_moved <= ts.size:
            retired_ok = retired_ok and fixed_ok
            keep = moved[: ts.size]
            if pos is None:
                pos = np.flatnonzero(keep)
                ts, gs = t[pos], targets[pos]
            else:
                t[pos] = ts
                pos, ts, gs = pos[keep], ts[keep], gs[keep]
    if pos is not None:
        t[pos] = ts
    return t


# ---------------------------------------------------------------------------
# limiting degree distribution

@dataclass
class DegreePMF:
    """Probability mass function over degrees k >= 1 with sampling metadata."""

    p: dict[int, float]
    n_samples: int
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
    exactly k-1 arrivals before an independent exp(1) time.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    counts: dict[int, int] = {}
    for _ in range(reps):
        k = len(sample_arrivals(delta, rng, exp1=True)) + 1
        counts[k] = counts.get(k, 0) + 1
    p = {k: c / reps for k, c in sorted(counts.items())}
    stderr = {k: math.sqrt(v * (1.0 - v) / reps) for k, v in p.items()}
    return DegreePMF(p=p, n_samples=reps, stderr=stderr)


def p1_quadrature(delta: float, tol: float = 1e-12) -> float:
    """p(1) by adaptive quadrature of the first-arrival survival function.

    p(1) = int_0^inf e^-t exp(-a (t - 1 + e^-t)) dt with
    a = (1+delta)/(1+delta/2); the integrand decays at least like e^-t so a
    [0, 40] window plus an e^-40 tail bound meets a 1e-10 budget.
    """
    a = (1.0 + delta) / (1.0 + 0.5 * delta)

    def integrand(t: float) -> float:
        return math.exp(-t - a * (t - 1.0 + math.exp(-t)))

    value, _err = integrate.quad(integrand, 0.0, 40.0, epsabs=tol, epsrel=tol, limit=200)
    return value


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
    if convention == "exact":
        w += delta * (u + 1 - born)
    else:
        w += delta * (u - born)
    return w


def marked_neighborhood_log_prob(
    n: int, tree: MarkedTree, delta: float, convention: str = "exact"
) -> float:
    """Log probability that the forward neighborhood of vertex tau_root is exactly `tree`.

    The event fixes every attachment listed in the tree at its recorded time
    and forbids any other vertex from attaching to the neighborhood up to
    time n.  The first factor group covers the listed edges
    (W_parent / total weight at the step), the second the excluded
    attachments (1 - sum of neighborhood weights / total weight).
    Cost O(n * |V(tree)|).
    """
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


def limit_neighborhood_density(
    tree: MarkedTree, delta: float, form: str = "discrete_limit"
) -> float:
    """Limit density of a marked neighborhood, evaluated via both closed forms.

    Both the product/exponential expression and the hazard-product expression
    are computed and must agree to 1e-10 relative; `form` picks which value
    is returned ("discrete_limit" or "hazard_product").
    """
    if tree.marks is None:
        raise ValueError("continuous marks required")
    if form not in ("discrete_limit", "hazard_product"):
        raise ValueError("form must be 'discrete_limit' or 'hazard_product'")
    d1 = _density_product_form(tree, delta)
    d2 = _density_hazard_form(tree, delta)
    if abs(d1 - d2) > 1e-10 * max(1.0, abs(d1), abs(d2)):
        raise AssertionError(f"density forms disagree: {d1} vs {d2}")
    return d1 if form == "discrete_limit" else d2


# ---------------------------------------------------------------------------
# marked Yule process

@dataclass
class YulePath:
    """Trajectory of (Y, D, W) at jump times of the marked Yule process."""

    t: np.ndarray
    y: np.ndarray
    d: np.ndarray
    w: np.ndarray


def _check_variant(variant: str) -> None:
    if variant not in ("exact_chain", "simplified"):
        raise ValueError("variant must be 'exact_chain' or 'simplified'")


def _mark_probability(
    y: float | np.ndarray, d: float | np.ndarray, w: float | np.ndarray, delta: float, variant: str
) -> float | np.ndarray:
    """Mark probability of the birth at pre-birth population y; all may be replica arrays."""
    gamma = 2.0 / (2.0 + delta)
    if variant == "exact_chain":
        return gamma * ((d + delta) / (y + 1.0) - w / (y * (y + 1.0)))
    return gamma * ((d + delta) / y - w / (y * y))


def _check_mark_probability(p: np.ndarray, q: np.ndarray) -> None:
    """Refuse a mark probability outside [0, q], q <= 1 being its bound."""
    if ((p < -1e-12) | (p > q + 1e-12)).any():
        raise AssertionError("mark probability outside [0, 1]")


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


def yule_marked_ensemble(
    delta: float,
    t_grid: Sequence[float],
    reps: int,
    rng: CounterRng,
    variant: str = "exact_chain",
) -> np.ndarray:
    """Marked-individual counts D(t) on a time grid for many replicas.

    Exact skip-ahead, equal in law to `yule_marked_simulate`.  Y is a pure
    Yule process, so Y at the grid times comes first: Y(t') - Y(t) given
    Y(t) = y is NegBin(y, e^-(t'-t)) (Kendall 1948).  The births taken by
    t_g are those whose pre-birth population is below Y(t_g).  Between marks
    D and W are fixed, and the mark probability p is at most
    q = min(1, gamma*(D+delta)/(y+1)) (y for the simplified variant), which
    does not increase in y.  So the next candidate birth is a geometric(q)
    skip, accepted with probability p/q (discrete thinning; Lewis & Shedler
    1979), and q is recomputed after every candidate.  A replica stops at
    the first candidate past its last grid time.  p must lie in [0, 1] at
    every birth taken: it is checked against [0, q] at each candidate and at
    the first birth after each mark, which suffices because (D+delta)y - W
    increases in y.  Returns an array of shape (len(t_grid), reps).
    """
    grid = np.asarray(t_grid, dtype=float)
    n_grid = len(grid)
    if grid.ndim != 1 or n_grid == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must be a strictly increasing sequence")
    if not np.isfinite(grid).all():
        raise ValueError("t_grid must be finite")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _check_variant(variant)
    gen = rng.numpy_rng()
    # Y at each grid time (2 up to time 0), then a population no birth reaches
    pop = np.full((n_grid + 1, reps), np.iinfo(np.int64).max)
    y_t, t = np.full(reps, 2), 0.0
    for g, t_g in enumerate(grid):
        if t_g > t:
            y_t = y_t + gen.negative_binomial(y_t, math.exp(t - t_g))
            t = t_g
        pop[g] = y_t
    gamma, shift = 2.0 / (2.0 + delta), 1.0 if variant == "exact_chain" else 0.0
    out = np.empty((n_grid, reps))
    # the running replicas: replica number, pre-birth population of the next
    # birth, D, W, grid times recorded, Y at the next and at the last of them
    idx, y, d, w = np.arange(reps), np.full(reps, 2.0), np.ones(reps), np.full(reps, 2.0)
    gi, nxt, last = np.zeros(reps, dtype=np.int64), pop[0], pop[n_grid - 1]
    opens = last > 2  # the next birth is taken and opens a gap between marks
    while idx.size:
        q = np.minimum(gamma * (d + delta) / (y + shift), 1.0)
        if opens.any():
            p = _mark_probability(y[opens], d[opens], w[opens], delta, variant)
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
        p = _mark_probability(y, d, w, delta, variant)
        _check_mark_probability(p, q)
        marked = gen.random(idx.size) * q < p
        d += marked
        w += marked * (y + 1.0)
        y += 1.0
        opens = marked & (y < last)
    return out
