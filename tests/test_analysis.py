import math

import numpy as np
import pytest

from seritree.analysis import (
    adjacency_spectrum,
    atom_mass_at_zero,
    compare_distributions,
    fit_degree_growth,
    fit_power_tail,
    tail_ccdf,
    tail_window_sensitivity,
)
from seritree.growth import GrowthParams, TreeRecord, grow
from seritree.limits import DegreePMF
from seritree.treeops import FringeHistogram


# --- ccdf ----------------------------------------------------------------------

def test_tail_ccdf_from_pmf():
    pmf = DegreePMF(p={1: 0.5, 2: 0.5}, n_samples=100)
    assert tail_ccdf(pmf) == [(1, 1.0), (2, 0.5)]


def test_tail_ccdf_monotone_and_starts_at_one():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=5000, seed=1))
    cc = tail_ccdf(tree)
    assert cc[0] == (1, 1.0)
    values = [p for _, p in cc]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_tail_ccdf_rejects_bad_input():
    with pytest.raises(ValueError):
        tail_ccdf([])
    with pytest.raises(ValueError):
        tail_ccdf([0, 1, 2])


# --- power-law fitting ------------------------------------------------------------

@pytest.mark.parametrize("exponent", [1.2, 1.618, 2.7])
def test_fit_recovers_synthetic_exponents(exponent):
    ccdf = [(k, k**-exponent) for k in range(1, 400)]
    fit = fit_power_tail(ccdf, window=(1, 399))
    assert abs(fit.slope + exponent) < 1e-3
    assert fit.r_squared > 1 - 1e-9


def test_fit_window_requirements():
    ccdf = [(k, k**-2.0) for k in range(1, 30)]
    with pytest.raises(ValueError):
        fit_power_tail(ccdf, window=(1, 5))
    with pytest.raises(ValueError):
        fit_power_tail(ccdf)  # default policy needs n_samples


def test_window_sensitivity_reports_multiple_fits():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=200000, seed=3))
    fits = tail_window_sensitivity(tail_ccdf(tree), n_samples=tree.n + 1)
    assert len(fits) >= 2
    spread = max(f.slope for f in fits) - min(f.slope for f in fits)
    assert spread < 0.3


# --- degree growth ------------------------------------------------------------------

def test_fit_degree_growth_validation():
    with pytest.raises(ValueError):
        fit_degree_growth(0.0, 1, [10, 100, 1000], n_seeds=2)
    with pytest.raises(ValueError):
        fit_degree_growth(0.0, 1, [10, 100, 1000, 5000], n_seeds=2)
    with pytest.raises(ValueError):
        fit_degree_growth(0.0, 50, [10, 100, 1000, 10000, 100000], n_seeds=2)


def test_fit_degree_growth_small():
    fit = fit_degree_growth(0.0, 1, [20, 200, 2000, 20000, 200000], n_seeds=3, master_seed=7)
    assert len(fit.per_seed_slopes) == 3
    assert 0.3 < fit.slope < 0.9
    degrees = [d for _, d in fit.checkpoints]
    assert all(a <= b for a, b in zip(degrees, degrees[1:]))


def test_fit_degree_growth_workers_match_serial():
    kwargs = dict(delta=0.0, vertex=1, checkpoints=[20, 200, 2000, 20000], n_seeds=4, master_seed=3)
    serial = fit_degree_growth(**kwargs, workers=1)
    parallel = fit_degree_growth(**kwargs, workers=2)
    assert serial.per_seed_slopes == parallel.per_seed_slopes


# --- distribution comparison ----------------------------------------------------------

def test_compare_identical_distributions():
    pmf = DegreePMF(p={1: 0.6, 2: 0.4}, n_samples=1000)
    tv, stat, p = compare_distributions(pmf, pmf)
    assert tv == 0.0
    assert stat == 0.0
    assert p == 1.0


def test_compare_disjoint_supports():
    a = DegreePMF(p={1: 1.0}, n_samples=500)
    b = DegreePMF(p={2: 1.0}, n_samples=500)
    tv, _, p = compare_distributions(a, b)
    assert tv == 1.0
    assert p < 1e-6


def test_compare_requires_same_kind():
    pmf = DegreePMF(p={1: 1.0}, n_samples=10)
    hist = FringeHistogram(counts={"()": 10}, other=0, total=10, truncation=4)
    with pytest.raises(TypeError):
        compare_distributions(pmf, hist)


def test_compare_close_empirical_distributions():
    a = DegreePMF(p={1: 0.7, 2: 0.2, 3: 0.1}, n_samples=10000)
    b = DegreePMF(p={1: 0.705, 2: 0.195, 3: 0.1}, n_samples=10000)
    tv, _, p = compare_distributions(a, b)
    assert tv == pytest.approx(0.005)
    assert p > 0.01


def test_compare_pools_sparse_bins():
    a = DegreePMF(p={1: 0.9, 2: 0.08, 3: 0.015, 4: 0.004, 5: 0.001}, n_samples=1000)
    b = DegreePMF(p={1: 0.9, 2: 0.08, 3: 0.015, 4: 0.004, 5: 0.001}, n_samples=1000)
    tv, stat, p = compare_distributions(a, b)
    assert tv == 0.0 and p == 1.0


# --- spectra -----------------------------------------------------------------------

def test_path_and_star_spectra():
    path3 = TreeRecord.from_parents([0, 1], 0.0)
    eig = adjacency_spectrum(path3).eigenvalues
    assert np.allclose(eig, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)
    star = TreeRecord.from_parents([0, 0, 0], 0.0)
    eig = adjacency_spectrum(star).eigenvalues
    assert np.allclose(eig, [-math.sqrt(3), 0.0, 0.0, math.sqrt(3)], atol=1e-9)


def test_spectrum_symmetry_and_moments():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=256, seed=4))
    eig = adjacency_spectrum(tree).eigenvalues
    assert abs(eig.sum()) < 1e-8
    assert abs((eig**2).sum() - 2 * tree.n) < 1e-6
    assert np.max(np.abs(eig + eig[::-1])) < 1e-8  # bipartite symmetry about 0


def test_spectrum_zero_atom_and_cap():
    star = TreeRecord.from_parents([0, 0, 0], 0.0)
    spec = adjacency_spectrum(star)
    assert atom_mass_at_zero(spec) == 0.5
    assert 0.0 in [round(v, 9) for v in spec.atom_masses]
    big = TreeRecord.from_parents([0] * 3000, 0.0)  # a star beyond the size cap
    with pytest.raises(ValueError):
        adjacency_spectrum(big)
