"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, straight from the project's check list.
Monte Carlo checks run on fixed seeds so the suite is deterministic; the
acceptance bands (3 sigma or stated absolute tolerances) are computed from
the samples themselves, never tuned post hoc.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy import integrate, stats

from seritree.analysis import (
    adjacency_spectrum,
    atom_mass_at_zero,
    fit_degree_growth,
    fit_power_tail,
    tail_ccdf,
)
from seritree.growth import (
    GrowthParams,
    TreeRecord,
    attach_probabilities,
    enumerate_histories,
    grow,
    token_probability_vector,
)
from seritree.limits import (
    MarkedTree,
    exponents,
    limit_degree_pmf,
    limit_neighborhood_density,
    marked_neighborhood_log_prob,
    mc_zeta_hat,
    p1_quadrature,
    random_marked_tree,
    sample_arrivals,
    sample_edge_bp,
    yule_marked_ensemble,
    zeta_hat_cumulant,
)
from seritree.rng import CounterRng
from seritree.treeops import (
    FringeHistogram,
    bp_fringe_sample,
    empirical_fringe_distribution,
    key_size,
    q_count,
)

E_MINUS_2 = math.e - 2.0


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_exact_sampler_oracle():
    """Fast-sampler token law equals the weight law on every small history."""
    start = time.monotonic()
    checked = 0
    for delta in (Fraction(0), Fraction(1), Fraction(5, 2)):
        for n in range(1, 7):
            for hist in enumerate_histories(n):
                tree = TreeRecord.from_parents(hist, delta)
                for conv in ("exact", "paper_total"):
                    checked += 1
                    assert token_probability_vector(tree, conv) == attach_probabilities(tree, conv), (
                        f"mismatch at delta={delta} conv={conv} hist={hist}"
                    )
    elapsed = time.monotonic() - start
    _report(
        "criterion-1 exactness oracle",
        elapsed < 60.0,
        f"{checked} states, exhaustive n<=6, rational arithmetic, {elapsed:.1f}s",
    )


def test_criterion_02_p1_target():
    start = time.monotonic()
    rng = CounterRng(44)
    pmf = limit_degree_pmf(0.0, 100000, rng)
    mc_gap = abs(pmf.p[1] - E_MINUS_2)
    mc_ok = mc_gap <= 3 * pmf.stderr[1]
    quad_gap = abs(p1_quadrature(0.0) - E_MINUS_2)
    quad_ok = quad_gap <= 1e-9
    tree, _ = grow(GrowthParams(delta=0.0, n_final=100000, seed=3))
    n1 = sum(1 for d in tree.degree if d == 1)
    tree_gap = abs(n1 / tree.n - E_MINUS_2)
    tree_ok = tree_gap <= 0.01
    elapsed = time.monotonic() - start
    _report(
        "criterion-2 p(1) target",
        mc_ok and quad_ok and tree_ok and elapsed < 60.0,
        f"mc gap {mc_gap:.5f} (3sig {3 * pmf.stderr[1]:.5f}), quad gap {quad_gap:.1e}, "
        f"N1/n gap {tree_gap:.5f}, {elapsed:.1f}s",
    )


def test_criterion_03_mean_offspring_two():
    start = time.monotonic()
    rng = CounterRng(11)
    details = []
    ok = True
    for delta in (0.0, 1.0, 2.0):
        sizes = np.array([sample_edge_bp(delta, rng, exp1=True).size for _ in range(100000)])
        se = sizes.std(ddof=1) / math.sqrt(sizes.size)
        gap = abs(sizes.mean() - 2.0)
        ok &= gap <= 3 * se
        details.append(f"delta={delta}: {sizes.mean():.4f}+-{se:.4f}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _report("criterion-3 mean-one", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_04_edge_process_equivalence():
    rng = CounterRng(22)
    details = []
    ok = True
    for delta in (0.0, 1.0):
        a = Counter(sample_edge_bp(delta, rng, t_max=1.5).size for _ in range(10000))
        b = Counter(len(sample_arrivals(delta, rng, t_max=1.5)) + 1 for _ in range(10000))
        support = sorted(set(a) | set(b))
        table = np.array([[a.get(k, 0) for k in support], [b.get(k, 0) for k in support]])
        _, p_value, _, _ = stats.chi2_contingency(table)
        ok &= p_value > 0.01
        details.append(f"delta={delta}: p={p_value:.3f}")
    _report("criterion-4 size equivalence", ok, "; ".join(details))


def test_criterion_05_tail_exponents_and_speed():
    details = []
    ok = True
    for delta, tol in ((0.0, 0.15), (2.0, 0.2)):
        start = time.monotonic()
        tree, _ = grow(GrowthParams(delta=delta, n_final=10**6, seed=101))
        fit = fit_power_tail(tail_ccdf(tree), n_samples=tree.n + 1)
        elapsed = time.monotonic() - start
        target = -exponents(delta).phi
        gap = abs(fit.slope - target)
        ok &= gap <= tol and elapsed < 30.0
        details.append(f"delta={delta}: slope {fit.slope:.3f} vs {target:.3f} "
                       f"(tol {tol}), {elapsed:.1f}s")
    _report("criterion-5 tail exponents", ok, "; ".join(details))


def test_criterion_06_degree_growth():
    start = time.monotonic()
    details = []
    ok = True
    for delta in (0.0, 2.0):
        fit = fit_degree_growth(
            delta, vertex=1, checkpoints=[10**3, 10**4, 10**5, 10**6],
            n_seeds=20, master_seed=2024,
        )
        target = exponents(delta).lam
        gap = abs(fit.slope - target)
        ok &= gap <= 0.05
        details.append(f"delta={delta}: slope {fit.slope:.4f} vs {target:.4f}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _report("criterion-6 degree growth", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_07_cumulants():
    rng = CounterRng(33)
    details = []
    ok = True
    for delta in (0.0, 1.0):
        z = mc_zeta_hat(delta, 100000, rng)
        k1, se1 = z.mean(), z.std(ddof=1) / math.sqrt(z.size)
        ok &= abs(k1 - 1.0) <= 3 * se1
        centered = z - z.mean()
        k2 = z.var(ddof=1)
        se2 = math.sqrt((np.mean(centered**4) - np.var(centered) ** 2) / z.size)
        target2 = zeta_hat_cumulant(delta, 2)
        ok &= abs(k2 - target2) <= 3 * se2
        details.append(f"delta={delta}: k1 {k1:.4f}, k2 {k2:.4f} vs {target2:.4f}")
    _report("criterion-7 cumulants", ok, "; ".join(details))


def test_criterion_08_fringe_convergence():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=100000, seed=3))
    empirical = empirical_fringe_distribution(tree, truncation=4)
    rng = CounterRng(123)
    n_samples = 100000
    samples = [bp_fringe_sample(0.0, rng) for _ in range(n_samples)]
    counts: Counter = Counter()
    other = 0
    for key in samples:
        if key_size(key) > 4:
            other += 1
        else:
            counts[key] += 1
    keys = set(counts) | set(empirical.counts)
    tv = 0.5 * sum(
        abs(counts.get(k, 0) / n_samples - empirical.counts.get(k, 0) / empirical.total)
        for k in keys
    )
    tv += 0.5 * abs(other / n_samples - empirical.other / empirical.total)
    tv_ok = tv <= 0.02
    resid_details = []
    resid_ok = True
    for target in ("()", "(())", "(()())"):  # three smallest tree classes
        x = np.array([q_count(s, target) - (1.0 if s == target else 0.0) for s in samples])
        se = x.std(ddof=1) / math.sqrt(n_samples)
        resid_ok &= abs(x.mean()) <= 3 * se
        resid_details.append(f"{target}: {x.mean():+.4f}+-{se:.4f}")
    _report(
        "criterion-8 fringe convergence",
        tv_ok and resid_ok,
        f"TV {tv:.4f} (tol 0.02); stationarity " + ", ".join(resid_details),
    )


def test_criterion_09_local_limit_density():
    rng = CounterRng(12)
    worst = 0.0
    for _ in range(1000):
        tree = random_marked_tree(rng, max_vertices=5)
        d1 = limit_neighborhood_density(tree, 0.0, form="discrete_limit")
        d2 = limit_neighborhood_density(tree, 0.0, form="hazard_product")
        worst = max(worst, abs(d1 - d2) / max(1.0, abs(d1)))
    duality_ok = worst <= 1e-10

    two = MarkedTree(parents=(None, 0), marks=(0.3, 0.6))
    dens = limit_neighborhood_density(two, 0.0)
    n = 10**4
    # the discrete probability of the marked neighborhood at a uniformly
    # chosen root carries a 1/n root-time factor next to n^{|V|}
    logp = marked_neighborhood_log_prob(n, two.with_times(n), 0.0)
    scaled = n**two.size * math.exp(logp) / n
    rel_gap = abs(scaled - dens) / dens
    discrete_ok = rel_gap <= 0.05

    integral, _ = integrate.quad(
        lambda a: limit_neighborhood_density(MarkedTree(parents=(None,), marks=(a,)), 0.0),
        0.0, 1.0, epsabs=1e-12, limit=200,
    )
    int_gap = abs(integral - E_MINUS_2)
    integral_ok = int_gap <= 1e-6

    _report(
        "criterion-9 local-limit density",
        duality_ok and discrete_ok and integral_ok,
        f"duality max gap {worst:.1e}; discrete rel gap {rel_gap:.4f}; "
        f"integral gap {int_gap:.1e}",
    )


def test_criterion_10_drift_matrix_and_yule():
    grid = np.linspace(-0.9, 10.0, 50)
    worst = max(abs(exponents(d).eigen_plus - 1.0 / exponents(d).phi) for d in grid)
    eig_ok = worst <= 1e-12
    t_grid = np.arange(6.0, 12.01, 0.5)
    dmat = yule_marked_ensemble(0.0, t_grid, 1000, CounterRng(6))
    slope = float(np.polyfit(t_grid, np.log(dmat.mean(axis=1)), 1)[0])
    target = exponents(0.0).lam
    slope_ok = abs(slope - target) <= 0.05
    _report(
        "criterion-10 drift matrix",
        eig_ok and slope_ok,
        f"max |eigen_plus - 1/phi| = {worst:.1e} on 50-point grid; "
        f"yule slope {slope:.4f} vs {target:.4f}",
    )


def test_criterion_11_spectrum_sanity():
    path3 = TreeRecord.from_parents([0, 1], 0.0)
    eig = adjacency_spectrum(path3).eigenvalues
    path_ok = np.allclose(eig, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)
    star = TreeRecord.from_parents([0, 0, 0], 0.0)
    eig = adjacency_spectrum(star).eigenvalues
    star_ok = np.allclose(eig, [-math.sqrt(3), 0.0, 0.0, math.sqrt(3)], atol=1e-9)
    masses = {}
    grown_ok = True
    for n in (512, 1024):
        tree, _ = grow(GrowthParams(delta=0.0, n_final=n, seed=5))
        spec = adjacency_spectrum(tree)
        e = spec.eigenvalues
        grown_ok &= abs(float(e.sum())) <= 1e-6
        grown_ok &= abs(float((e**2).sum()) - 2 * n) <= 1e-6
        grown_ok &= float(np.max(np.abs(e + e[::-1]))) <= 1e-8
        masses[n] = atom_mass_at_zero(spec)
    atom_ok = abs(masses[512] - masses[1024]) <= 0.03
    _report(
        "criterion-11 spectrum sanity",
        path_ok and star_ok and grown_ok and atom_ok,
        f"path/star exact; atom-at-0 mass {masses[512]:.4f} vs {masses[1024]:.4f}",
    )
