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

@dataclass
class ArrivalSequence:
    """Ordered child-arrival times sigma_1 < sigma_2 < ... of the limit process."""

    sigmas: list[float]
    delta: float

    def __post_init__(self):
        prev = 0.0
        for s in self.sigmas:
            if not s > prev:
                raise ValueError("arrival times must be strictly increasing and positive")
            prev = s

    def __len__(self) -> int:
        return len(self.sigmas)


def rate_root(t: float, delta: float) -> float:
    """Reproduction rate of the edge-process root at absolute time t."""
    return (1.0 + delta) / (1.0 + 0.5 * delta) * (1.0 - math.exp(-t))


def rate_nonroot(age: float, delta: float) -> float:
    """Reproduction rate of a non-root edge-process individual at given age."""
    return (1.0 - math.exp(-age)) / (1.0 + 0.5 * delta)


def hazard(k: int, sigmas: Sequence[float], x: float, delta: float) -> float:
    """Hazard rate, at elapsed time x, of the k-th arrival given sigma_1..sigma_{k-1}.

    k = 1 gives (1+delta)/(1+delta/2) * (1-e^-x); for k >= 2 the previous
    arrivals each contribute a (1 - e^-(sigma_{k-1} - sigma_j + x)) term.
    The value always lies in [0, (k+delta)/(1+delta/2)).
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if hasattr(sigmas, "sigmas"):
        sigmas = sigmas.sigmas
    if len(sigmas) != k - 1:
        raise ValueError(f"need exactly {k - 1} previous arrivals, got {len(sigmas)}")
    a = (1.0 + delta) / (1.0 + 0.5 * delta)
    if k == 1:
        return a * (1.0 - math.exp(-x))
    b = 1.0 / (1.0 + 0.5 * delta)
    s_prev = sigmas[-1]
    h = a * (1.0 - math.exp(-(x + s_prev)))
    for sj in sigmas:
        h += b * (1.0 - math.exp(-(s_prev - sj + x)))
    return h


def sample_arrivals(
    delta: float,
    rng: CounterRng,
    *,
    t_max: Optional[float] = None,
    max_arrivals: Optional[int] = None,
    exp1: bool = False,
) -> ArrivalSequence:
    """Sample the arrival times of the limit point process.

    Each inter-arrival is drawn by thinning against the constant bound
    (k+delta)/(1+delta/2), which the k-th hazard approaches but never
    attains, so acceptance probabilities stay in [0, 1) and the sampled
    survival function is exp(-integral of the hazard) with no discretization
    error.  Stop at `t_max`, after `max_arrivals`, or (with ``exp1=True``) at
    an exponential(1) horizon drawn from `rng` first.
    """
    if exp1:
        t_max = rng.exponential()
    if t_max is None and max_arrivals is None:
        raise ValueError("need a stop rule: t_max, max_arrivals, or exp1")
    sigmas: list[float] = []
    inv_half = 1.0 / (1.0 + 0.5 * delta)
    k = 1
    while max_arrivals is None or len(sigmas) < max_arrivals:
        bound = (k + delta) * inv_half
        s_prev = sigmas[-1] if sigmas else 0.0
        x = 0.0
        while True:
            x += rng.exponential(bound)
            if t_max is not None and s_prev + x > t_max:
                return ArrivalSequence(sigmas=sigmas, delta=delta)
            if rng.random() * bound <= hazard(k, sigmas, x, delta):
                break
        sigmas.append(s_prev + x)
        k += 1
    return ArrivalSequence(sigmas=sigmas, delta=delta)


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

    def size_at(self, t: float) -> int:
        return sum(1 for b in self.birth_times if b <= t)

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
    previous children arrived.  Inter-arrivals are drawn by the same thinning
    scheme as `sample_arrivals`; a global priority queue interleaves the
    individuals.  This is the process whose genealogy, stopped at an
    independent exp(1) time, gives the limiting fringe law.
    """
    if exp1:
        t_max = rng.exponential()
    if t_max is None:
        raise ValueError("need a stop rule: t_max or exp1")
    inv_half = 1.0 / (1.0 + 0.5 * delta)
    parents: list[Optional[int]] = [None]
    births: list[float] = [0.0]
    arrival_ages: list[list[float]] = [[]]
    heap: list[tuple[float, int, float]] = []

    def schedule_next(i: int) -> None:
        ages = arrival_ages[i]
        k = len(ages) + 1
        bound = (k + delta) * inv_half
        prev = ages[-1] if ages else 0.0
        x = 0.0
        while True:
            x += rng.exponential(bound)
            if births[i] + prev + x > t_max:
                return  # proposals only increase; nothing left before the horizon
            if rng.random() * bound <= hazard(k, ages, x, delta):
                heapq.heappush(heap, (births[i] + prev + x, i, prev + x))
                return

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
    u = gen.random(total) * total_mass
    t = _inverse_cumulative_hazard_vec(c, u)
    rep_idx = np.repeat(np.arange(reps), counts)
    return np.bincount(rep_idx, weights=np.exp(-lam * t), minlength=reps)


def _inverse_cumulative_hazard_vec(c: float, targets: np.ndarray) -> np.ndarray:
    """Vectorized Newton for c*(t-1+e^-t) = target; init from above as in the scalar case."""
    t = targets / c + 1.0
    for _ in range(60):
        f = c * (t - 1.0 + np.exp(-t)) - targets
        fp = c * (1.0 - np.exp(-t))
        step = np.where(fp > 0, f / np.maximum(fp, 1e-300), 0.0)
        t = np.maximum(t - step, 0.0)
        if np.max(np.abs(f)) <= 1e-12 * max(1.0, float(np.max(targets, initial=1.0))):
            break
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


def _mark_probability(y: int, d: int, w: float, delta: float, variant: str) -> float:
    gamma = 2.0 / (2.0 + delta)
    if variant == "exact_chain":
        return gamma * ((d + delta) / (y + 1.0) - w / (y * (y + 1.0)))
    if variant == "simplified":
        return gamma * ((d + delta) / y - w / (y * y))
    raise ValueError("variant must be 'exact_chain' or 'simplified'")


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
    if t_max <= 0:
        raise ValueError("t_max must be positive")
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

    Replicas advance in lockstep over birth events, vectorized with numpy;
    the population after k births is deterministic (k+2), so only the mark
    state and clocks are per-replica.  Returns an array of shape
    (len(t_grid), reps).
    """
    grid = np.asarray(t_grid, dtype=float)
    n_grid = len(grid)
    if grid.ndim != 1 or n_grid == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must be a strictly increasing sequence")
    gen = rng.numpy_rng()
    gamma = 2.0 / (2.0 + delta)
    out = np.empty((n_grid, reps))
    # compacted per-replica state; `idx` maps rows back to replica numbers
    idx = np.arange(reps)
    t = np.zeros(reps)
    d = np.ones(reps)
    w = np.full(reps, 2.0)
    gi = np.zeros(reps, dtype=np.int64)
    next_time = np.full(reps, grid[0])
    y = 2
    block = 512
    dt_block = uni_block = None
    j = block  # force an initial draw
    while idx.size:
        if j >= block:
            dt_block = gen.exponential(size=(block, idx.size))
            uni_block = gen.random((block, idx.size))
            j = 0
        t += dt_block[j] * (1.0 / y)
        crossed = t >= next_time
        if crossed.any():
            # record D at every grid time crossed by these holding intervals
            while True:
                rows = np.nonzero(crossed)[0]
                out[gi[rows], idx[rows]] = d[rows]
                gi[rows] += 1
                done = gi == n_grid
                next_time = np.where(done, np.inf, grid[np.minimum(gi, n_grid - 1)])
                crossed = t >= next_time
                if not crossed.any():
                    break
            if done.any():
                keep = ~done
                idx, t, d, w, gi, next_time = (
                    idx[keep], t[keep], d[keep], w[keep], gi[keep], next_time[keep])
                if idx.size == 0:
                    break
                dt_block = dt_block[:, keep]
                uni_block = uni_block[:, keep]
        ya = float(y)
        if variant == "exact_chain":
            p = gamma * ((d + delta) / (ya + 1.0) - w / (ya * (ya + 1.0)))
        else:
            p = gamma * ((d + delta) / ya - w / (ya * ya))
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise AssertionError("mark probability outside [0, 1]")
        marked = uni_block[j] < p
        d += marked
        w += marked * (y + 1.0)
        y += 1
        j += 1
    return out
