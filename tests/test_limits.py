import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from seritree import limits
from seritree.growth import TreeRecord, enumerate_histories, history_probability
from seritree.limits import (
    _inverse_cumulative_hazard_vec,
    _mark_probability,
    MarkedTree,
    NodeCapExceeded,
    exponents,
    hazard,
    inverse_cumulative_hazard,
    limit_degree_pmf,
    limit_neighborhood_density,
    marked_neighborhood_log_prob,
    mc_zeta_hat,
    p1_quadrature,
    random_marked_tree,
    rate_nonroot,
    sample_arrivals,
    sample_edge_bp,
    sample_memory_bp,
    yule_marked_ensemble,
    yule_marked_simulate,
    zeta_hat_cumulant,
)
from seritree.rng import CounterRng

GOLDEN = (1 + math.sqrt(5)) / 2


# --- exponents ---------------------------------------------------------------

def test_exponent_values():
    e0 = exponents(0.0)
    assert abs(e0.phi - GOLDEN) < 1e-12
    assert abs(e0.lam - (GOLDEN - 1)) < 1e-12
    assert abs(e0.lam**2 + e0.lam - 1.0) < 1e-12
    e2 = exponents(2.0)
    assert abs(e2.phi - (1 + math.sqrt(3))) < 1e-12
    assert abs(e2.lam**2 + e2.lam - 0.5) < 1e-12
    assert abs(exponents(100.0).phi - 52.0) <= 0.02


def test_exponents_monotone_and_bounded():
    grid = np.linspace(-0.9, 10.0, 56)
    phis = [exponents(d).phi for d in grid]
    assert all(a < b for a, b in zip(phis, phis[1:]))
    assert all(exponents(d).phi < 2 + d for d in grid)


def test_left_eigenvector_equation():
    for delta in (-0.5, 0.0, 1.0, 3.0):
        pack = exponents(delta)
        v = np.array([1.0, pack.v2])
        residual = v @ pack.drift_matrix() - pack.eigen_plus * v
        assert np.max(np.abs(residual)) < 1e-12
        u = np.array([1.0, (pack.eigen_minus - pack.gamma) / pack.gamma])
        residual2 = u @ pack.drift_matrix() - pack.eigen_minus * u
        assert np.max(np.abs(residual2)) < 1e-12


def test_exponents_rejects_bad_delta():
    with pytest.raises(ValueError):
        exponents(-1.0)


# --- hazards -----------------------------------------------------------------

def test_hazard_examples():
    assert hazard([], 0.0, 0.0) == 0.0
    assert abs(hazard([], 40.0, 0.0) - 1.0) < 1e-12
    expected = (1 - math.exp(-2)) + (1 - math.exp(-1))
    assert abs(hazard([1.0], 1.0, 0.0) - expected) < 1e-12
    with pytest.raises(ValueError):
        hazard([], -0.1, 0.0)


def _rate_root(t, delta):
    """Reproduction rate of the edge-process root at absolute time t."""
    return (1.0 + delta) / (1.0 + 0.5 * delta) * (1.0 - math.exp(-t))


def test_hazard_superposition_identity():
    # the inter-arrival hazard is the summed rate of root + previous arrivals
    rng = CounterRng(91)
    for _ in range(100):
        delta = rng.random() * 4 - 0.8
        k = 2 + rng.randbelow(5)
        sigmas = sorted(rng.random() * 3 + 0.01 for _ in range(k - 1))
        x = rng.random() * 2
        s_prev = sigmas[-1]
        direct = _rate_root(s_prev + x, delta) + sum(
            rate_nonroot(s_prev - sj + x, delta) for sj in sigmas
        )
        assert abs(hazard(sigmas, x, delta) - direct) <= 1e-14 * max(1.0, direct)


def test_hazard_within_stated_bound():
    sigmas = [0.3, 0.9, 2.2]
    for x in (0.0, 0.5, 5.0, 50.0):
        h = hazard(sigmas, x, 1.0)
        assert 0.0 <= h < (4 + 1.0) / 1.5


def test_malthusian_identity_on_delta_grid():
    # the discounted non-root rate integrates to exactly 1 at the growth rate
    for delta in (-0.5, 0.0, 1.0, 2.0, 5.0):
        lam = exponents(delta).lam
        horizon = max(60.0, 45.0 / lam)
        val, _ = integrate.quad(
            lambda t: math.exp(-lam * t) * rate_nonroot(t, delta),
            0.0, horizon, epsabs=1e-13, epsrel=1e-13, limit=400,
        )
        assert abs(val - 1.0) <= 1e-10


# --- arrival sampling ----------------------------------------------------------

def test_sample_arrivals_stop_rules():
    rng = CounterRng(1)
    assert len(sample_arrivals(0.0, rng, t_max=0.0)) == 0
    seq = sample_arrivals(0.0, rng, max_arrivals=4)
    assert len(seq) == 4
    with pytest.raises(ValueError):
        sample_arrivals(0.0, rng)
    assert len(sample_arrivals(0.0, rng, t_max=math.inf, max_arrivals=3)) == 3


@pytest.mark.parametrize("kwargs", [{"t_max": math.nan}, {"t_max": math.inf}, {"t_max": math.nan, "max_arrivals": 3}])
def test_sample_arrivals_refuses_endless_horizons(kwargs):
    # each of these used to loop forever
    with pytest.raises(ValueError):
        sample_arrivals(0.0, CounterRng(1), **kwargs)


@pytest.mark.parametrize("sampler", [sample_edge_bp, sample_memory_bp])
@pytest.mark.parametrize("t_max", [math.nan, math.inf])
def test_branching_samplers_refuse_endless_horizons(sampler, t_max):
    # without the check, NaN never stops or yields a one-node tree, and inf runs to the node cap
    with pytest.raises(ValueError):
        sampler(0.0, CounterRng(1), t_max=t_max)


def test_first_arrival_survival():
    # P(first arrival > 1) = exp(-(1 - 1 + e^-1)) = e^(-1/e) at delta = 0
    rng = CounterRng(2)
    n = 100000
    hits = sum(1 for _ in range(n) if len(sample_arrivals(0.0, rng, t_max=1.0)) == 0)
    target = math.exp(-math.exp(-1.0))
    sigma = math.sqrt(target * (1 - target) / n)
    assert abs(hits / n - target) <= 3 * sigma


def test_no_arrival_before_exp1_is_e_minus_2():
    rng = CounterRng(3)
    n = 100000
    hits = sum(1 for _ in range(n) if len(sample_arrivals(0.0, rng, exp1=True)) == 0)
    target = math.e - 2
    sigma = math.sqrt(target * (1 - target) / n)
    assert abs(hits / n - target) <= 3 * sigma


# --- edge branching process ----------------------------------------------------

def test_edge_bp_starts_with_one():
    rng = CounterRng(4)
    bp = sample_edge_bp(0.0, rng, t_max=0.0)
    assert bp.size == 1
    bp2 = sample_edge_bp(1.0, rng, t_max=2.0)
    bp2.check_invariants()
    assert sum(1 for b in bp2.birth_times if b <= 0.0) == 1


def test_edge_bp_mean_size_at_exp1():
    rng = CounterRng(5)
    sizes = [sample_edge_bp(1.0, rng, exp1=True).size for _ in range(20000)]
    se = np.std(sizes, ddof=1) / math.sqrt(len(sizes))
    assert abs(np.mean(sizes) - 2.0) <= 3 * se


def test_edge_bp_node_cap():
    rng = CounterRng(6)
    with pytest.raises(NodeCapExceeded):
        sample_edge_bp(0.0, rng, t_max=30.0, max_nodes=50)


def test_memory_bp_node_cap():
    # the cap that stops a runaway fringe sample; bp_fringe_sample keeps the default
    with pytest.raises(NodeCapExceeded):
        sample_memory_bp(0.0, CounterRng(6), t_max=30.0, max_nodes=50)


def test_edge_bp_size_matches_arrivals_plus_one():
    # the defining equivalence, as a two-sample chi-square at t = 1.5
    rng = CounterRng(7)
    n = 10000
    a = Counter(sample_edge_bp(0.0, rng, t_max=1.5).size for _ in range(n))
    b = Counter(len(sample_arrivals(0.0, rng, t_max=1.5)) + 1 for _ in range(n))
    support = sorted(set(a) | set(b))
    table = np.array([[a.get(k, 0) for k in support], [b.get(k, 0) for k in support]])
    keep = table.sum(axis=0) > 0
    _, p_value, _, _ = stats.chi2_contingency(table[:, keep])
    assert p_value > 0.01


def test_memory_bp_root_offspring_matches_arrival_law():
    # root children of the nested process replicate the offspring process
    rng = CounterRng(8)
    n = 20000
    kids = []
    for _ in range(n):
        bp = sample_memory_bp(0.0, rng, t_max=1.2)
        kids.append(sum(1 for p in bp.parents if p == 0))
    direct = [len(sample_arrivals(0.0, rng, t_max=1.2)) for _ in range(n)]
    a, b = Counter(kids), Counter(direct)
    support = sorted(set(a) | set(b))
    table = np.array([[a.get(k, 0) for k in support], [b.get(k, 0) for k in support]])
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.01


def test_inverse_cumulative_hazard_accuracy():
    rng = CounterRng(9)
    for _ in range(300):
        c = 0.1 + 3 * rng.random()
        target = 20 * rng.random()
        t = inverse_cumulative_hazard(c, target)
        assert abs(c * (t - 1 + math.exp(-t)) - target) <= 1e-10 * max(1.0, target)
    assert inverse_cumulative_hazard(1.0, 0.0) == 0.0


# --- cumulants -----------------------------------------------------------------

def test_cumulant_closed_forms():
    for delta in (-0.5, 0.0, 1.0, 2.0, 7.0):
        assert abs(zeta_hat_cumulant(delta, 1) - 1.0) < 1e-12
    lam = exponents(0.0).lam
    assert abs(zeta_hat_cumulant(0.0, 2) - 1.0 / (2 * lam * (2 * lam + 1))) < 1e-12
    assert abs(zeta_hat_cumulant(0.0, 2) - 0.3618034) < 1e-7
    with pytest.raises(ValueError):
        zeta_hat_cumulant(0.0, 0)


def test_mc_zeta_hat_mean():
    rng = CounterRng(10)
    z = mc_zeta_hat(0.0, 30000, rng)
    se = z.std(ddof=1) / math.sqrt(len(z))
    assert abs(z.mean() - 1.0) <= 3 * se


def _full_array_newton(c: float, targets: np.ndarray) -> np.ndarray:
    """The Newton that iterated every point to the end, as a reference."""
    t = targets / c + 1.0
    for _ in range(60):
        f = c * (t - 1.0 + np.exp(-t)) - targets
        fp = c * (1.0 - np.exp(-t))
        step = np.where(fp > 0, f / np.maximum(fp, 1e-300), 0.0)
        t = np.maximum(t - step, 0.0)
        if np.max(np.abs(f)) <= 1e-12 * max(1.0, float(np.max(targets, initial=1.0))):
            break
    return t


def _assert_newtons_agree(c, targets):
    with np.errstate(over="ignore"):  # e^-t of a large negative start overflows
        assert np.array_equal(_inverse_cumulative_hazard_vec(c, targets), _full_array_newton(c, targets))


_newton_targets = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1e-300, 5e-324]),
        st.floats(min_value=0.0, max_value=1e-8),
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=1e6, max_value=1e12),
        # no root: the point sticks at t = 0 with |f| above the stop
        # tolerance, so all 60 iterations run
        st.floats(min_value=-10.0, max_value=0.0),
    ),
    min_size=1,  # the reference fails on no targets
    max_size=60,
)
_newton_rates = st.sampled_from([2.0 / (2.0 + d) for d in (-0.5, 0.0, 1.0, 2.5)] + [1e-3, 7.0])


@settings(max_examples=200, deadline=None)
@given(_newton_rates, _newton_targets)
def test_newton_equals_full_array_newton(c, targets):
    _assert_newtons_agree(c, np.array(targets, dtype=float))


@settings(max_examples=15, deadline=None)
@given(
    _newton_rates,
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=3 * limits._NEWTON_CHUNK + 7),
)
def test_newton_equals_full_array_newton_across_chunks(c, seed, size):
    # mixed regimes, so points retire at different iterations and in every
    # chunk; with a negative target all 60 iterations run
    gen = np.random.default_rng(seed)
    targets = np.exp(gen.uniform(-700.0, 30.0, size)) * gen.choice([-1.0, 0.0, 1.0, 1.0, 1.0], size)
    _assert_newtons_agree(c, targets)


def test_newton_of_no_targets_is_empty():
    assert _inverse_cumulative_hazard_vec(0.5, np.empty(0)).shape == (0,)


# --- limiting degree pmf ---------------------------------------------------------

def test_p1_quadrature_delta0():
    assert abs(p1_quadrature(0.0) - (math.e - 2)) < 1e-9


def test_limit_pmf_consistency():
    rng = CounterRng(11)
    pmf = limit_degree_pmf(0.0, 30000, rng)
    assert abs(sum(pmf.p.values()) - 1.0) < 1e-9
    assert pmf.n_samples == 30000
    target = p1_quadrature(0.0)
    assert abs(pmf.p[1] - target) <= 3 * pmf.stderr[1]


# --- marked neighborhoods ---------------------------------------------------------

def test_marked_tree_validation():
    with pytest.raises(ValueError):
        MarkedTree(parents=(0,))
    with pytest.raises(ValueError):
        MarkedTree(parents=(None, 0), marks=(0.5, 0.4))
    with pytest.raises(ValueError):
        MarkedTree(parents=(None, 0), marks=(0.5, 1.2))
    with pytest.raises(ValueError):
        MarkedTree(parents=(None, 0), times=(0, 3))
    tree = MarkedTree(parents=(None, 0, 0), marks=(0.2, 0.5, 0.9))
    assert tree.children(0) == [1, 2]
    assert tree.with_times(10).times == (2, 5, 9)


def test_log_prob_trivial_and_single_exclusion():
    t_at_n = MarkedTree(parents=(None,), times=(3,))
    assert marked_neighborhood_log_prob(3, t_at_n, 0.0) == 0.0
    t_mid = MarkedTree(parents=(None,), times=(2,))
    assert abs(marked_neighborhood_log_prob(3, t_mid, 0.0) - math.log(5 / 6)) < 1e-12
    with pytest.raises(ValueError):
        marked_neighborhood_log_prob(1, t_mid, 0.0)


def test_log_prob_zero_probability_event():
    # at delta = -1/2 (exact) v0's weight at time 1 vanishes, so vertex 2
    # attaches to vertex 1 with probability one and exclusion is impossible
    t_root1 = MarkedTree(parents=(None,), times=(1,))
    assert marked_neighborhood_log_prob(2, t_root1, -0.5, "exact") == -math.inf


def _brute_force_neighborhood_prob(n, tree, delta, convention):
    """Sum exact history probabilities over histories realizing the event."""
    times = tree.times
    time_of = set(times)
    root_time = times[0]
    forced = {times[v]: times[tree.parents[v]] for v in range(1, tree.size)}
    total = Fraction(0)
    for hist in enumerate_histories(n):
        ok = True
        for m in range(1, n + 1):
            target = hist[m - 1]
            if m in forced:
                if target != forced[m]:
                    ok = False
                    break
            elif m > root_time and m not in time_of:
                if target in time_of and target < m:
                    ok = False
                    break
        if ok:
            total += history_probability(hist, delta, convention)
    return total


@pytest.mark.parametrize("convention", ["exact", "paper_total"])
@pytest.mark.parametrize("parents,times", [
    ((None,), (2,)),
    ((None,), (1,)),
    ((None, 0), (2, 4)),
    ((None, 0, 0), (1, 3, 5)),
    ((None, 0, 1), (2, 3, 6)),
])
def test_log_prob_against_exhaustive_enumeration(convention, parents, times):
    n = 6
    delta = Fraction(1)
    tree = MarkedTree(parents=parents, times=times)
    brute = _brute_force_neighborhood_prob(n, tree, delta, convention)
    ours = math.exp(marked_neighborhood_log_prob(n, tree, float(delta), convention))
    assert abs(ours - float(brute)) <= 1e-12 * max(1.0, float(brute))


def test_density_examples():
    one = MarkedTree(parents=(None,), marks=(1.0,))
    assert abs(limit_neighborhood_density(one, 0.0) - 1.0) < 1e-12
    half = MarkedTree(parents=(None,), marks=(0.5,))
    target = math.exp(-(-0.5 - math.log(0.5)))
    assert abs(limit_neighborhood_density(half, 0.0) - target) < 1e-9
    assert abs(target - 0.824361) < 1e-6


def test_density_integral_is_p1():
    for delta in (0.0, 1.0):
        val, _ = integrate.quad(
            lambda a: limit_neighborhood_density(MarkedTree(parents=(None,), marks=(a,)), delta),
            0.0, 1.0, epsabs=1e-12, limit=200,
        )
        assert abs(val - p1_quadrature(delta)) < 1e-9


def test_density_duality_random_trees():
    rng = CounterRng(12)
    for _ in range(500):
        tree = random_marked_tree(rng, max_vertices=5)
        delta = rng.random() * 4 - 0.5
        d1 = limit_neighborhood_density(tree, delta, form="discrete_limit")
        d2 = limit_neighborhood_density(tree, delta, form="hazard_product")
        assert abs(d1 - d2) <= 1e-10 * max(1.0, abs(d1))


def test_discrete_converges_to_density():
    # (1/n) * n^{|V|} * P approx density at n = 1e4 for a 2-vertex tree
    tree = MarkedTree(parents=(None, 0), marks=(0.3, 0.6))
    dens = limit_neighborhood_density(tree, 0.0)
    n = 10000
    logp = marked_neighborhood_log_prob(n, tree.with_times(n), 0.0)
    scaled = n**tree.size * math.exp(logp) / n
    assert abs(scaled - dens) / dens <= 0.05


# --- marked Yule ------------------------------------------------------------------

def test_yule_invariants():
    rng = CounterRng(13)
    path = yule_marked_simulate(0.0, 7.0, rng)
    assert path.y[0] == 2 and path.d[0] == 1 and path.w[0] == 2
    assert np.all(path.d <= path.y)
    assert np.all(path.w <= path.d * path.y)
    incr = np.diff(path.d)
    assert np.all((incr == 0) | (incr == 1))
    assert np.all(np.diff(path.t) > 0)


def test_yule_variants_and_errors():
    rng = CounterRng(14)
    path = yule_marked_simulate(1.5, 5.0, rng, variant="simplified")
    assert np.all(path.d <= path.y)
    with pytest.raises(ValueError):
        yule_marked_simulate(0.0, -1.0, rng)
    with pytest.raises(ValueError):
        yule_marked_simulate(0.0, 1.0, rng, variant="bogus")
    with pytest.raises(ValueError):
        yule_marked_ensemble(0.0, (1.0,), 10, rng, variant="bogus")


def _same_law_p(a, b):
    """Chi-square p-value for two samples of counts, the sparse upper tail pooled."""
    cap = np.quantile(np.concatenate([a, b]), 0.95)
    support = np.unique(np.minimum(np.concatenate([a, b]), cap))
    table = np.array([[np.count_nonzero(np.minimum(x, cap) == v) for v in support] for x in (a, b)])
    _, p_value, _, _ = stats.chi2_contingency(table)
    return p_value


@pytest.mark.parametrize("variant", ["exact_chain", "simplified"])
def test_yule_ensemble_matches_simulate(variant):
    # the per-path simulator is the ensemble's reference: D agrees in law at
    # every grid time, past the first few mark gaps, through a dense run of
    # grid times that one gap spans, and for one replica at a time; no birth
    # comes at or before time 0
    grid = (-0.5, 0.0, 1.0, 3.0, 3.0005, 3.001, 5.0)
    n = 2000
    rng = CounterRng(16)
    paths = [yule_marked_simulate(0.5, grid[-1], rng, variant=variant) for _ in range(n)]
    a = np.array([p.d[np.searchsorted(p.t, grid[2:], side="right") - 1] for p in paths]).T
    b = yule_marked_ensemble(0.5, grid, n, CounterRng(17), variant=variant)
    assert np.all(b[:2] == 1)
    for a_t, b_t in zip(a, b[2:]):
        assert _same_law_p(a_t, b_t) > 0.01
    ones = [yule_marked_ensemble(0.5, grid[:4], 1, CounterRng(17).spawn(k), variant=variant) for k in range(n)]
    ones = np.concatenate(ones, axis=1)
    assert np.all(ones[:2] == 1)
    assert _same_law_p(a[1], ones[3]) > 0.01


def test_yule_refuses_endless_or_empty_runs():
    for grid in [(1.0, math.nan), (1.0, math.inf), (math.nan,)]:
        with pytest.raises(ValueError):  # a non-finite grid time used to loop forever
            yule_marked_ensemble(0.0, grid, 5, CounterRng(1))
    for reps in (0, -1):
        with pytest.raises(ValueError):
            yule_marked_ensemble(0.0, (1.0,), reps, CounterRng(1))
    for t_max in (math.nan, math.inf):
        with pytest.raises(ValueError):
            yule_marked_simulate(0.0, t_max, CounterRng(1))


def test_yule_ensemble_checks_p_on_exactly_the_births_taken(monkeypatch):
    # the replica takes the births whose pre-birth population is below Y(3);
    # the ensemble's first draws are Y(1) and Y(3)
    seed, grid = 3, (1.0, 3.0)
    gen = CounterRng(seed).numpy_rng()
    y_1 = 2 + gen.negative_binomial(np.full(1, 2), math.exp(-1.0))
    y_last = int((y_1 + gen.negative_binomial(y_1, math.exp(-2.0)))[0])
    evaluated = []

    def spy(y, d, w, delta, variant):
        evaluated.extend(np.atleast_1d(y).tolist())
        return _mark_probability(y, d, w, delta, variant)

    monkeypatch.setattr(limits, "_mark_probability", spy)
    clean = yule_marked_ensemble(0.0, grid, 1, CounterRng(seed))
    assert min(evaluated) == 2 and max(evaluated) < y_last

    def patched(bad, value):
        def mark_probability(y, d, w, delta, variant):
            return np.where(bad(y), value, _mark_probability(y, d, w, delta, variant))
        return mark_probability

    for value in (-0.5, 1.5):
        # at the last birth the engine looks at, p outside [0, 1] raises
        monkeypatch.setattr(limits, "_mark_probability", patched(lambda y: y == max(evaluated), value))
        with pytest.raises(AssertionError):
            yule_marked_ensemble(0.0, grid, 1, CounterRng(seed))
        # from the first birth past the last grid time on, it changes nothing
        monkeypatch.setattr(limits, "_mark_probability", patched(lambda y: y >= y_last, value))
        assert np.array_equal(yule_marked_ensemble(0.0, grid, 1, CounterRng(seed)), clean)


def test_yule_deterministic():
    p1 = yule_marked_simulate(0.0, 5.0, CounterRng(15))
    p2 = yule_marked_simulate(0.0, 5.0, CounterRng(15))
    assert np.array_equal(p1.t, p2.t) and np.array_equal(p1.d, p2.d)
