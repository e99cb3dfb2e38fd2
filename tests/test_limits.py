import heapq
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special, stats

from seritree import limits
from seritree.growth import enumerate_histories
from seritree.limits import (
    _ZETA_CHUNK,
    _density_hazard_form,
    _density_product_form,
    _mark_probability,
    _skip_words,
    BranchingTree,
    MarkedTree,
    NodeCapExceeded,
    exponents,
    limit_degree_pmf,
    limit_neighborhood_density,
    marked_neighborhood_log_prob,
    mc_zeta_hat,
    p1_quadrature,
    random_marked_tree,
    rate_nonroot,
    sample_edge_bp,
    sample_memory_bp,
    yule_marked_ensemble,
    zeta_hat_cumulant,
)
from seritree.rng import CounterRng
from seritree.treeops import OTHER_KEY, fringe, key_size

from oracles import (
    drift_matrix,
    hazard,
    history_probability,
    mc_zeta_hat_reference,
    memory_bp_by_hazard,
    same_law_p,
    sample_arrivals,
    sample_edge_bp_reference,
    sample_memory_bp_reference,
    yule_marked_simulate,
)

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
        residual = v @ drift_matrix(pack) - pack.eigen_plus * v
        assert np.max(np.abs(residual)) < 1e-12
        u = np.array([1.0, (pack.eigen_minus - pack.gamma) / pack.gamma])
        residual2 = u @ drift_matrix(pack) - pack.eigen_minus * u
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


def _arrivals_by_hazard(delta, rng, t_max):
    """The arrival loop that evaluates `hazard` in O(k) at every proposal,
    the reference for the O(1) recurrence in `oracles.arrivals`."""
    ages = []
    prev = 0.0
    while True:
        bound = (len(ages) + 1 + delta) * (1.0 / (1.0 + 0.5 * delta))
        x = 0.0
        while True:
            x += rng.exponential(bound)
            t = prev + x
            if t > t_max:
                return ages
            if rng.random() * bound <= hazard(ages, x, delta):
                break
        prev += x
        ages.append(prev)


@pytest.mark.parametrize("delta", [-0.9, -0.5, 0.0, 0.7, 2.5])
def test_arrivals_recurrence_equals_hazard_loop(delta):
    # the same times from the same words, under both horizons
    for seed in range(300):
        rng, ref = CounterRng(seed), CounterRng(seed)
        assert sample_arrivals(delta, rng, t_max=3.0) == _arrivals_by_hazard(delta, ref, 3.0)
        assert rng.counter == ref.counter
        times = sample_arrivals(delta, rng, exp1=True)
        assert times == _arrivals_by_hazard(delta, ref, ref.exponential())
        assert rng.counter == ref.counter


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


@pytest.mark.parametrize("kwargs", [
    {"t_max": math.nan}, {"t_max": math.inf}, {"t_max": math.nan, "max_arrivals": 3}, {"t_max": -1.0},
])
def test_sample_arrivals_refuses_endless_horizons(kwargs):
    # the first three used to loop forever; a horizon before the birth
    # used to draw a word and return no arrivals
    rng = CounterRng(1)
    with pytest.raises(ValueError):
        sample_arrivals(0.0, rng, **kwargs)
    assert rng.counter == 0


@pytest.mark.parametrize("sampler", [sample_arrivals, sample_edge_bp, sample_memory_bp])
@pytest.mark.parametrize("t_max", [-5.0, 0.5, math.inf])
def test_exp1_refuses_a_t_max_too(sampler, t_max):
    # exp1 draws its own horizon; the t_max beside it, even an invalid one,
    # used to be dropped without a word
    rng = CounterRng(1)
    with pytest.raises(ValueError, match="not both"):
        sampler(0.0, rng, t_max=t_max, exp1=True)
    assert rng.counter == 0


def test_exp1_with_max_arrivals_is_allowed():
    times = sample_arrivals(0.0, CounterRng(1), exp1=True, max_arrivals=1)
    assert len(times) <= 1


@pytest.mark.parametrize("sampler", [sample_edge_bp, sample_memory_bp])
@pytest.mark.parametrize("t_max", [math.nan, math.inf, -1.0])
def test_branching_samplers_refuse_endless_horizons(sampler, t_max):
    # without the check, NaN never stops or yields a one-node tree, inf runs
    # to the node cap, and -1 gives a root born after the horizon
    rng = CounterRng(1)
    with pytest.raises(ValueError):
        sampler(0.0, rng, t_max=t_max)
    assert rng.counter == 0


@pytest.mark.parametrize("sampler", [sample_edge_bp, sample_memory_bp])
@pytest.mark.parametrize("max_nodes", [0, -5])
@pytest.mark.parametrize("rule", [{"t_max": 1.0}, {"exp1": True}])
def test_branching_samplers_refuse_an_empty_cap(sampler, max_nodes, rule):
    # a cap below one node used to return the root alone, already over the cap
    rng = CounterRng(1)
    with pytest.raises(ValueError, match="max_nodes"):
        sampler(0.0, rng, max_nodes=max_nodes, **rule)
    assert rng.counter == 0


_REFERENCES = [(sample_edge_bp, sample_edge_bp_reference), (sample_memory_bp, sample_memory_bp_reference)]


def _draw(sampler, delta, rng, **kwargs):
    """One genealogy as (parents, birth times), or "capped", with the stream position after it."""
    try:
        bp = sampler(delta, rng, **kwargs)
    except NodeCapExceeded:
        return "capped", rng.counter
    return (bp.parents, bp.birth_times), rng.counter


@pytest.mark.parametrize("sampler, reference", _REFERENCES)
@pytest.mark.parametrize("delta", [-0.5, 0.0, 2.0])
@pytest.mark.parametrize("rule", [{"t_max": 3.0}, {"exp1": True}])
def test_branching_samplers_match_the_reference(sampler, reference, delta, rule):
    # the buffer-reading loops give the genealogies, birth times and stream
    # positions of the thinning generators, genealogy after genealogy and
    # across buffer refills
    for seed in range(20):
        rng, ref = CounterRng(seed), CounterRng(seed)
        for _ in range(30):
            assert _draw(sampler, delta, rng, **rule) == _draw(reference, delta, ref, **rule), seed


@pytest.mark.parametrize("sampler, reference", _REFERENCES)
@pytest.mark.parametrize("delta", [-0.5, 0.0, 2.0])
def test_capped_genealogy_leaves_the_reference_stream_position(sampler, reference, delta):
    # fringe-compare keeps drawing from a stream after a capped genealogy, so
    # the words read before the raise, and the next genealogy, must be the
    # reference's
    capped = 0
    for seed in range(300):
        rng, ref = CounterRng(seed), CounterRng(seed)
        got = _draw(sampler, delta, rng, exp1=True, max_nodes=3)
        assert got == _draw(reference, delta, ref, exp1=True, max_nodes=3), seed
        assert _draw(sampler, delta, rng, exp1=True) == _draw(reference, delta, ref, exp1=True), seed
        capped += got[0] == "capped"
    assert capped >= 10


_TWO = MarkedTree(parents=(None, 0), marks=(0.3, 0.6))

_SAMPLER_CALLS = {
    "sample_arrivals": lambda delta, rng: sample_arrivals(delta, rng, exp1=True),
    "limit_degree_pmf": lambda delta, rng: limit_degree_pmf(delta, 10, rng),
    "sample_edge_bp": lambda delta, rng: sample_edge_bp(delta, rng, exp1=True),
    "sample_memory_bp": lambda delta, rng: sample_memory_bp(delta, rng, exp1=True),
    "yule_marked_simulate": lambda delta, rng: yule_marked_simulate(delta, 1.0, rng),
    "yule_marked_ensemble": lambda delta, rng: yule_marked_ensemble(delta, (1.0,), 10, rng),
    "p1_quadrature": lambda delta, rng: p1_quadrature(delta),
    "limit_neighborhood_density": lambda delta, rng: limit_neighborhood_density(_TWO, delta),
    "marked_neighborhood_log_prob": lambda delta, rng: marked_neighborhood_log_prob(10, _TWO.with_times(10), delta),
}


@pytest.mark.parametrize("sampler", sorted(_SAMPLER_CALLS))
@pytest.mark.parametrize("delta", [-1.0, -2.0, math.nan, math.inf, -math.inf])
def test_samplers_refuse_delta_outside_model(sampler, delta):
    # these used to divide by zero, overflow, fail deep inside, or (edge BP at
    # NaN) return a one-node tree; now they refuse before drawing a word.  The
    # two neighborhood functions gave NaN, a math domain error, or -inf as if
    # the event were impossible
    rng = CounterRng(1)
    with pytest.raises(ValueError, match="delta"):
        _SAMPLER_CALLS[sampler](delta, rng)
    assert rng.counter == 0


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


def test_genealogies_carry_no_dict():
    # a workload holds tens of thousands of genealogies; slots keep each to
    # its two list references
    for sample in (sample_edge_bp, sample_memory_bp):
        bp = sample(0.0, CounterRng(4), exp1=True)
        assert not hasattr(bp, "__dict__"), sample.__name__


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


def test_memory_bp_cap_is_exact():
    # a capped run raises exactly when the uncapped genealogy outgrows the
    # cap, and otherwise returns that genealogy
    for seed in range(3000):
        full = sample_memory_bp(0.0, CounterRng(seed), exp1=True)
        try:
            capped = sample_memory_bp(0.0, CounterRng(seed), exp1=True, max_nodes=5)
        except NodeCapExceeded:
            assert full.size > 5, seed
            continue
        assert full.size <= 5, seed
        assert (capped.parents, capped.birth_times) == (full.parents, full.birth_times)


def test_edge_bp_size_matches_arrivals_plus_one():
    # the defining equivalence, as a two-sample chi-square at t = 1.5
    rng = CounterRng(7)
    n = 10000
    a = Counter(sample_edge_bp(0.0, rng, t_max=1.5).size for _ in range(n))
    b = Counter(len(sample_arrivals(0.0, rng, t_max=1.5)) + 1 for _ in range(n))
    assert same_law_p(a, b) > 0.01


@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_edge_bp_root_children_are_poisson(delta):
    # the root's children by time t are Poisson with mean c_root (t - 1 + e^-t);
    # c_root equals every other individual's rate at delta = 0 and twice it at 1
    t, n = 1.5, 10000
    rng = CounterRng(18)
    kids = Counter(sum(1 for p in sample_edge_bp(delta, rng, t_max=t).parents if p == 0) for _ in range(n))
    mean = (1.0 + delta) / (1.0 + 0.5 * delta) * (t - 1.0 + math.exp(-t))
    pmf = stats.poisson.pmf(np.arange(50), mean)
    top = int(np.flatnonzero(n * pmf >= 5.0)[-1])  # counts from `top` on share one bin
    observed = [kids[k] for k in range(top)] + [n - sum(kids[k] for k in range(top))]
    expected = n * np.append(pmf[:top], stats.poisson.sf(top - 1, mean))
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_memory_bp_root_offspring_matches_arrival_law():
    # root children of the nested process replicate the offspring process
    rng = CounterRng(8)
    n = 20000
    kids = []
    for _ in range(n):
        bp = sample_memory_bp(0.0, rng, t_max=1.2)
        kids.append(sum(1 for p in bp.parents if p == 0))
    direct = [len(sample_arrivals(0.0, rng, t_max=1.2)) for _ in range(n)]
    assert same_law_p(Counter(kids), Counter(direct)) > 0.01


def _fringe_up_to_5(bp):
    """The genealogy's fringe key, or (other) above 5 vertices."""
    return fringe(bp) if bp.size <= 5 else OTHER_KEY


@pytest.mark.parametrize("delta", [-0.5, 0.0, 2.0])
@pytest.mark.parametrize("rule", [{"t_max": 3.0}, {"exp1": True}])
def test_memory_bp_matches_the_hazard_form_in_law(delta, rule):
    # the cluster form and the form whose individuals draw their children
    # with memory, which sample_memory_bp drew before, give one law of the
    # genealogy
    n = 10000
    rng = CounterRng(29)
    a = Counter(_fringe_up_to_5(sample_memory_bp(delta, rng, **rule)) for _ in range(n))
    b = Counter(_fringe_up_to_5(memory_bp_by_hazard(delta, rng, **rule)) for _ in range(n))
    assert same_law_p(a, b) > 0.01


def _heap_memory_bp(delta, rng, t_max):
    """The memory branching process as a priority-queue event loop over all
    individuals, the engine `sample_memory_bp` replaced; a reference in law."""
    parents, births, arrival_ages, heap = [None], [0.0], [[]], []

    def schedule_next(i):
        ages = arrival_ages[i]
        bound = (len(ages) + 1 + delta) * (1.0 / (1.0 + 0.5 * delta))
        prev = ages[-1] if ages else 0.0
        x = 0.0
        while True:
            x += rng.exponential(bound)
            if births[i] + prev + x > t_max:
                return
            if rng.random() * bound <= hazard(ages, x, delta):
                heapq.heappush(heap, (births[i] + prev + x, i, prev + x))
                return

    schedule_next(0)
    while heap:
        t, i, age = heapq.heappop(heap)
        arrival_ages[i].append(age)
        parents.append(i)
        births.append(t)
        arrival_ages.append([])
        schedule_next(i)
        schedule_next(len(parents) - 1)
    return BranchingTree(parents=parents, birth_times=births)


def test_memory_bp_genealogy_matches_heap_engine():
    # the breadth-first genealogy loop and the event loop give one law of the
    # genealogy at a horizon; keys above 4 vertices share one bin
    t_max, n = 1.5, 20000
    rng = CounterRng(19)

    def key(bp):
        k = fringe(bp)
        return k if key_size(k) <= 4 else OTHER_KEY

    a = Counter(key(sample_memory_bp(0.0, rng, t_max=t_max)) for _ in range(n))
    b = Counter(key(_heap_memory_bp(0.0, rng, t_max)) for _ in range(n))
    assert same_law_p(a, b) > 0.01


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


@pytest.mark.parametrize("delta", [-0.5, 0.0, 2.0])
@pytest.mark.parametrize("seed", [1, 17])
def test_mc_zeta_hat_blocks_match_all_at_once(delta, seed, monkeypatch):
    # the samples do not depend on the block size; block edges: one replica,
    # one short of a block, one block, one past it, several
    for chunk in (_ZETA_CHUNK, 1, 7):
        monkeypatch.setattr(limits, "_ZETA_CHUNK", chunk)
        for reps in sorted({1, max(chunk - 1, 1), chunk, chunk + 1, 3 * chunk + 5}):
            got = mc_zeta_hat(delta, reps, CounterRng(seed))
            assert np.array_equal(got, mc_zeta_hat_reference(delta, reps, CounterRng(seed))), (chunk, reps)


@pytest.mark.parametrize("used", range(9))
def test_skip_words_matches_raw_draws(used):
    # every position in Philox's 4-word buffer, skips within it, across it and far past it
    for skip in [*range(13), 1000, 123457]:
        gen = CounterRng(5).numpy_rng()
        gen.bit_generator.random_raw(used)
        plain = CounterRng(5).numpy_rng()
        plain.bit_generator.random_raw(used + skip)
        _skip_words(gen, skip)
        assert np.array_equal(gen.bit_generator.random_raw(11), plain.bit_generator.random_raw(11)), skip


# --- limiting degree pmf ---------------------------------------------------------

def test_p1_quadrature_delta0():
    assert abs(p1_quadrature(0.0) - (math.e - 2)) < 1e-9


def _p1_by_quadrature(delta):
    """Adaptive quadrature of p(1) = int_0^inf e^-t exp(-a (t - 1 + e^-t)) dt.

    The integrand decays at least like e^-t, so [0, 40] leaves a tail below
    e^-40.
    """
    a = (1.0 + delta) / (1.0 + 0.5 * delta)
    value, _ = integrate.quad(
        lambda t: math.exp(-t - a * (t - 1.0 + math.exp(-t))), 0.0, 40.0, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    return value


@pytest.mark.parametrize("delta", [-0.99, -0.9, -0.5, 0.0, 0.3, 1.0, 2.5, 10.0, 100.0, 1e4])
def test_p1_closed_form_matches_quadrature(delta):
    assert abs(p1_quadrature(delta) - _p1_by_quadrature(delta)) <= 1e-12


@pytest.mark.parametrize("delta", [-0.9, -0.5, 0.0, 0.3, 1.0, 2.0, 5.0, 100.0])
def test_p1_series_matches_incomplete_gamma_form(delta):
    # the closed form the series replaced: e^a a^-(a+1) Gamma(a+1) P(a+1, a)
    a = (1.0 + delta) / (1.0 + 0.5 * delta)
    closed = math.exp(a - (a + 1.0) * math.log(a) + special.gammaln(a + 1.0)) * special.gammainc(a + 1.0, a)
    assert abs(p1_quadrature(delta) - closed) <= 1e-15


@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.3, 2.0])
def test_limit_pmf_counts_the_edge_process_sizes(delta):
    # the same pmf, errors and words as counting one edge process per replica
    for seed in range(5):
        rng, ref = CounterRng(seed), CounterRng(seed)
        pmf = limit_degree_pmf(delta, 500, rng)
        counts = Counter(sample_edge_bp(delta, ref, exp1=True).size for _ in range(500))
        p = {k: c / 500 for k, c in sorted(counts.items())}
        assert (pmf.p, pmf.stderr) == (p, {k: math.sqrt(v * (1.0 - v) / 500) for k, v in p.items()})
        assert list(pmf.p) == list(p)
        assert rng.counter == ref.counter


@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.3, 2.0])
def test_limit_pmf_counts_the_arrival_lists(delta):
    # in law: one plus the arrivals before an exp(1) time of the offspring
    # process drawn with its memory, as the pmf counted before; degrees
    # from 8 on share one bin
    reps = 20000
    rng = CounterRng(31)
    pmf = limit_degree_pmf(delta, reps, rng)
    a = Counter()
    for k, v in pmf.p.items():
        a[min(k, 8)] += round(v * reps)
    b = Counter(min(len(sample_arrivals(delta, rng, exp1=True)) + 1, 8) for _ in range(reps))
    assert sum(a.values()) == reps
    assert same_law_p(a, b) > 0.01


def test_limit_pmf_consistency():
    rng = CounterRng(11)
    pmf = limit_degree_pmf(0.0, 30000, rng)
    assert abs(sum(pmf.p.values()) - 1.0) < 1e-9
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


def test_log_prob_refuses_exact_below_minus_half():
    # this used to return a log probability on a model whose v0 weight goes
    # negative; GrowthParams already refused it
    tree = MarkedTree(parents=(None, 0), times=(3, 7))
    with pytest.raises(ValueError, match=r"exact convention requires delta >= -1/2"):
        marked_neighborhood_log_prob(10, tree, -0.75, "exact")
    assert marked_neighborhood_log_prob(10, tree, -0.75, "paper_total") < 0.0


@pytest.mark.parametrize("n", [5, 9])
def test_log_prob_refuses_an_unknown_convention(n):
    # at n = 5 no factor reads the convention: this used to return 0.0
    tree = MarkedTree(parents=(None,), times=(5,))
    with pytest.raises(ValueError, match=r"convention must be one of \('exact', 'paper_total'\), got 'bogus'"):
        marked_neighborhood_log_prob(n, tree, 0.5, "bogus")


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
        d1 = _density_product_form(tree, delta)
        d2 = _density_hazard_form(tree, delta)
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


def _same_law_p(a, b):
    """Chi-square p-value for two samples of counts, the sparse upper tail pooled."""
    cap = np.quantile(np.concatenate([a, b]), 0.95)
    support = np.unique(np.minimum(np.concatenate([a, b]), cap))
    table = np.array([[np.count_nonzero(np.minimum(x, cap) == v) for v in support] for x in (a, b)])
    _, p_value, _, _ = stats.chi2_contingency(table)
    return p_value


def test_yule_ensemble_matches_simulate():
    # the per-path simulator is the ensemble's reference: D agrees in law at
    # every grid time, past the first few mark gaps, through a dense run of
    # grid times that one gap spans, and for one replica at a time; no birth
    # comes at or before time 0
    grid = (0.0, 1.0, 3.0, 3.0005, 3.001, 5.0)
    n = 2000
    rng = CounterRng(16)
    paths = [yule_marked_simulate(0.5, grid[-1], rng) for _ in range(n)]
    a = np.array([p.d[np.searchsorted(p.t, grid[1:], side="right") - 1] for p in paths]).T
    b = yule_marked_ensemble(0.5, grid, n, CounterRng(17))
    assert np.all(b[0] == 1)
    for a_t, b_t in zip(a, b[1:]):
        assert _same_law_p(a_t, b_t) > 0.01
    ones = [yule_marked_ensemble(0.5, grid[:3], 1, CounterRng(17).spawn(k)) for k in range(n)]
    ones = np.concatenate(ones, axis=1)
    assert np.all(ones[0] == 1)
    assert _same_law_p(a[1], ones[2]) > 0.01


def test_yule_refuses_endless_or_empty_runs():
    # a non-finite grid time used to loop forever, and a negative one gave D = 1
    for grid in [(1.0, math.nan), (1.0, math.inf), (math.nan,), (-1.0,), (-1.0, 1.0)]:
        with pytest.raises(ValueError):
            yule_marked_ensemble(0.0, grid, 5, CounterRng(1))
    for reps in (0, -1):
        with pytest.raises(ValueError):
            yule_marked_ensemble(0.0, (1.0,), reps, CounterRng(1))
    for t_max in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            yule_marked_simulate(0.0, t_max, CounterRng(1))
    # below delta = 0 the first birth's mark probability 2delta/(3(2+delta)) is
    # negative: such runs raised AssertionError, and a grid with no birth gave D = 1
    for delta in (-0.25, -0.01):
        for grid in [(1.0,), (0.001,)]:
            with pytest.raises(ValueError, match="delta"):
                yule_marked_ensemble(delta, grid, 1, CounterRng(1))
        rng = CounterRng(1)
        with pytest.raises(ValueError, match="delta"):
            yule_marked_simulate(delta, 1.0, rng)
        assert rng.counter == 0


def test_yule_ensemble_checks_p_on_exactly_the_births_taken(monkeypatch):
    # the replica takes the births whose pre-birth population is below Y(3);
    # the ensemble's first draws are Y(1) and Y(3)
    seed, grid = 3, (1.0, 3.0)
    gen = CounterRng(seed).numpy_rng()
    y_1 = 2 + gen.negative_binomial(np.full(1, 2), math.exp(-1.0))
    y_last = int((y_1 + gen.negative_binomial(y_1, math.exp(-2.0)))[0])
    evaluated = []

    def spy(y, d, w, delta):
        evaluated.extend(np.atleast_1d(y).tolist())
        return _mark_probability(y, d, w, delta)

    monkeypatch.setattr(limits, "_mark_probability", spy)
    clean = yule_marked_ensemble(0.0, grid, 1, CounterRng(seed))
    assert min(evaluated) == 2 and max(evaluated) < y_last

    def patched(bad, value):
        def mark_probability(y, d, w, delta):
            return np.where(bad(y), value, _mark_probability(y, d, w, delta))
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
