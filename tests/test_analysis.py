import math
from dataclasses import astuple
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import chdtrc

import seritree.analysis
from seritree.analysis import (
    _singular_values,
    adjacency_spectrum,
    chi_square_tail,
    compare_distributions,
    fit_degree_growth,
    fit_power_tail,
    tail_ccdf,
    tail_window_sensitivity,
    zero_atom,
)
from seritree.growth import GrowthParams, TreeRecord, enumerate_histories, grow
from seritree.treeops import FringeHistogram

from oracles import fit_power_tail_reference, tail_ccdf_reference, tail_window_sensitivity_reference


# --- ccdf ----------------------------------------------------------------------

def test_tail_ccdf_monotone_and_starts_at_one():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=5000, seed=1))
    k, p = tail_ccdf(tree)
    assert (k[0], p[0]) == (1, 1.0)
    values = p.tolist()
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError, match="one vertex"):
        tail_ccdf(TreeRecord(np.array([-1])))


def test_tail_ccdf_matches_the_list_reference():
    tree, _ = grow(GrowthParams(delta=-0.5, n_final=20000, seed=2))
    k, p = tail_ccdf(tree)
    assert k.dtype == np.int64 and p.dtype == np.float64
    assert list(zip(k.tolist(), p.tolist())) == tail_ccdf_reference(tree)


# --- power-law fitting ------------------------------------------------------------

def _columns(rows):
    """A list of (k, p) rows as the (k, p) pair of arrays that `tail_ccdf` returns."""
    k, p = zip(*rows)
    return np.array(k), np.array(p)


def _synthetic(exponent, k_end):
    return [(k, k**-exponent) for k in range(1, k_end)]


@pytest.mark.parametrize("exponent", [1.2, 1.618, 2.7])
def test_fit_recovers_synthetic_exponents(exponent):
    ccdf = _columns(_synthetic(exponent, 400))
    fit = fit_power_tail(ccdf, window=(1, 399))
    assert abs(fit.slope + exponent) < 1e-3
    assert fit.r_squared > 1 - 1e-9


def test_fit_window_requirements():
    ccdf = _columns(_synthetic(2.0, 30))
    with pytest.raises(ValueError):
        fit_power_tail(ccdf, window=(1, 5))
    with pytest.raises(ValueError):
        fit_power_tail(ccdf)  # default policy needs n_samples


def test_fit_refuses_degrees_below_one():
    # log(0) would only warn, and the fit would come out NaN
    k, p = _columns(_synthetic(2.0, 30))
    with pytest.raises(ValueError, match=">= 1"):
        fit_power_tail((k - 1, p), window=(0, 29))


@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
def test_fit_refuses_probabilities_outside_the_unit_interval(bad):
    k, p = _columns(_synthetic(2.0, 30))
    p[3] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fit_power_tail((k, p), window=(1, 29))


@pytest.mark.parametrize("exponent", [1.2, 1.618, 2.7])
@pytest.mark.parametrize("window", [(1, 399), (3, 40), None])
def test_fit_matches_the_list_reference_on_synthetic_ccdfs(exponent, window):
    rows = _synthetic(exponent, 400)
    assert fit_power_tail(_columns(rows), 10**6, window) == fit_power_tail_reference(rows, 10**6, window)
    assert tail_window_sensitivity(_columns(rows), 10**6) == tail_window_sensitivity_reference(rows, 10**6)


@pytest.mark.parametrize("delta", [-0.5, 0.0, 0.3, 2.0])
def test_fit_matches_the_list_reference_on_grown_trees(delta):
    # every TailFit field equal, the floats bit for bit, on every fit window
    tree, _ = grow(GrowthParams(delta=delta, n_final=10**5, seed=5))
    fits = tail_window_sensitivity(tail_ccdf(tree), n_samples=tree.n + 1)
    reference = tail_window_sensitivity_reference(tail_ccdf_reference(tree), n_samples=tree.n + 1)
    assert len(fits) >= 2
    assert [astuple(f) for f in fits] == [astuple(f) for f in reference]


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
    with pytest.raises(ValueError, match=">= 1"):  # log10 would divide by 0
        fit_degree_growth(0.0, 0, [0, 5, 50, 500], n_seeds=2)
    # np.polyfit got more checkpoints than the tracked degrees `grow` keeps
    for checkpoints, repeated in (([1, 10, 100, 1000, 1000], 1000), ([1, 1, 1, 1000], 1)):
        with pytest.raises(ValueError, match=f"checkpoint {repeated} is given more than once"):
            fit_degree_growth(0.0, 1, checkpoints, n_seeds=2)
    # no seed gave slope nan, two RuntimeWarnings and mean degrees of 0
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        fit_degree_growth(0.0, 1, [20, 200, 2000, 20000], n_seeds=0)


def test_fit_degree_growth_small():
    fit = fit_degree_growth(0.0, 1, [20, 200, 2000, 20000, 200000], n_seeds=3, master_seed=7)
    assert len(fit.per_seed_slopes) == 3
    assert 0.3 < fit.slope < 0.9
    degrees = [d for _, d in fit.checkpoints]
    assert all(a <= b for a, b in zip(degrees, degrees[1:]))


# --- distribution comparison ----------------------------------------------------------

def _histogram(counts, other=0):
    return FringeHistogram(counts=counts, other=other, total=sum(counts.values()) + other, truncation=4)


def test_compare_identical_distributions():
    hist = _histogram({"()": 600, "(())": 400})
    tv, stat, p = compare_distributions(hist, hist)
    assert tv == 0.0
    assert stat == 0.0
    assert p == 1.0


def test_compare_disjoint_supports():
    a = _histogram({"()": 500})
    b = _histogram({"(())": 500})
    tv, _, p = compare_distributions(a, b)
    assert tv == 1.0
    assert p < 1e-6


@pytest.mark.parametrize("other", [{"truncation": 5}, {"k": 1}])
def test_compare_refuses_mismatched_histograms(other):
    # with truncations 4 and 5, a 5-vertex fringe is (other) on one side and
    # a key on the other; with different k the keys are not comparable
    base = {"counts": {"()": 6, "(()())": 2}, "other": 2, "total": 10, "truncation": 4}
    with pytest.raises(ValueError, match="fringe histograms differ"):
        compare_distributions(FringeHistogram(**base), FringeHistogram(**{**base, **other}))


def test_compare_close_empirical_distributions():
    a = _histogram({"()": 7000, "(())": 2000, "(()())": 1000})
    b = _histogram({"()": 7050, "(())": 1950, "(()())": 1000})
    tv, _, p = compare_distributions(a, b)
    assert tv == pytest.approx(0.005)
    assert p > 0.01


def test_compare_pools_sparse_bins():
    counts = {"()": 900, "(())": 80, "(()())": 15, "((()))": 4}
    a = _histogram(counts, other=1)
    b = _histogram(counts, other=1)
    tv, stat, p = compare_distributions(a, b)
    assert tv == 0.0 and p == 1.0


CHI2_STATS = np.geomspace(1e-3, 1e4, 241)


def test_chi_square_tail_matches_scipy():
    worst = 0.0
    for dof in list(range(1, 61)) + [99, 100, 101]:
        for stat in CHI2_STATS:
            ref = chdtrc(dof, stat)
            if ref > 1e-300:
                worst = max(worst, abs(chi_square_tail(float(stat), dof) - ref) / ref)
    assert worst <= 1e-12


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _chi_square_tail_sum(stat, dof):
    """The parity sum of the chi-square tail in 60-digit decimals, term by term.

    The odd-dof erfc(sqrt x) comes from the float math.erfc; where it is not
    negligible beside the sum it is accurate to a few units in the last place.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(stat) / 2
        if dof % 2 == 0:  # x^j e^-x / j!, j = 0 .. dof/2 - 1
            total, term, a = Decimal(0), (-x).exp(), Decimal(1)
        else:  # x^(j-1/2) e^-x / Gamma(j+1/2), j = 1 .. (dof-1)/2
            total = Decimal(math.erfc(math.sqrt(stat / 2)))
            term, a = 2 * x.sqrt() * (-x).exp() / _PI.sqrt(), Decimal("1.5")
        for _ in range((dof - 1) // 2 + (dof % 2 == 0)):
            total += term
            term = term * x / a
            a += 1
        return float(total)


def test_chi_square_tail_at_large_dof():
    # chdtrc itself strays up to 1.7e-12 from a 40-digit reference at dof 1001
    # and 2000, so large dof is checked against the exact sum, on a grid that
    # also crosses the bulk of the law.  Terms formed as exp(j log x - x -
    # lgamma(j+1)) stray by 8.4e-13 here; the bound is 5e-13.
    worst = 0.0
    for dof in (99, 100, 101, 1001, 2000):
        for stat in np.concatenate([CHI2_STATS[::2], dof * np.linspace(0.5, 3.0, 60)]):
            ref = _chi_square_tail_sum(float(stat), dof)
            if ref > 1e-300:
                worst = max(worst, abs(chi_square_tail(float(stat), dof) - ref) / ref)
    assert worst <= 5e-13


def test_chi_square_tail_edges():
    for dof in (1, 2, 7, 2000):
        assert chi_square_tail(0.0, dof) == 1.0
        assert chi_square_tail(math.inf, dof) == 0.0
        with pytest.raises(ValueError):
            chi_square_tail(math.nan, dof)
        with pytest.raises(ValueError):
            chi_square_tail(-1.0, dof)


# --- spectra -----------------------------------------------------------------------

def test_path_and_star_spectra():
    path3 = TreeRecord.from_parents([0, 1])
    eig = adjacency_spectrum(path3).eigenvalues
    assert np.allclose(eig, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)
    star = TreeRecord.from_parents([0, 0, 0])
    eig = adjacency_spectrum(star).eigenvalues
    assert np.allclose(eig, [-math.sqrt(3), 0.0, 0.0, math.sqrt(3)], atol=1e-9)


def test_spectrum_symmetry_and_moments():
    tree, _ = grow(GrowthParams(delta=0.0, n_final=256, seed=4))
    eig = adjacency_spectrum(tree).eigenvalues
    assert abs(eig.sum()) < 1e-8
    assert abs((eig**2).sum() - 2 * tree.n) < 1e-6
    assert np.max(np.abs(eig + eig[::-1])) < 1e-8  # bipartite symmetry about 0


def _dense_spectrum(tree):
    """The dense oracle: eigvalsh of the full (n+1) x (n+1) adjacency matrix."""
    size = tree.n + 1
    a = np.zeros((size, size))
    child = np.arange(1, size)
    a[np.r_[child, tree.parent[1:]], np.r_[tree.parent[1:], child]] = 1.0
    return np.linalg.eigvalsh(a)


@pytest.fixture(scope="session")
def dense_oracle():
    """`_dense_spectrum` computed once per tree in the session, keyed by its parents."""
    cache = {}

    def spectrum(tree):
        key = tree.parent.tobytes()
        if key not in cache:
            cache[key] = _dense_spectrum(tree)
        return cache[key]

    return spectrum


def _dense_zeros(dense):
    return int(np.count_nonzero(np.abs(dense) <= 1e-8))


# the smallest and the largest singular values the cap allows, and blocks far
# from square: 2048 vertices on a path, where s_min = 2 sin(pi / 4098), about
# pi / 2049; a star of 2048 leaves, where s_max^2 = 2048; a hub of 1,000
# leaves beside a 1,000-edge path; a broom, a 1,000-edge handle with 1,000
# bristles at its end
ADVERSARIAL = {
    "path 2048": list(range(2047)),
    "star 2048": [0] * 2048,
    "hub and path": [0] * 1001 + list(range(1001, 2000)),
    "broom": list(range(1000)) + [1000] * 1000,
}


def _oracle_trees():
    yield "n=1", TreeRecord.from_parents([0])
    yield "n=2 star", TreeRecord.from_parents([0, 0])
    yield "root with a single child", TreeRecord.from_parents([0, 1, 1, 1, 2, 2])
    for n in (3, 10, 100):
        yield f"star n={n}", TreeRecord.from_parents([0] * n)
        yield f"path n={n}", TreeRecord.from_parents(list(range(n)))
    for n in (3, 64, 512, 2048):
        for delta in (-0.5, 0.0, 2.0):
            for seed in (1, 2, 3):
                tree, _ = grow(GrowthParams(delta=delta, n_final=n, seed=seed))
                yield f"grown n={n} delta={delta} seed={seed}", tree
    for name, parents in ADVERSARIAL.items():
        yield name, TreeRecord.from_parents(parents)


def _check_against_dense(tree, dense, label=None):
    eig = adjacency_spectrum(tree).eigenvalues
    assert eig.shape == dense.shape, label
    assert np.max(np.abs(eig - dense)) <= 1e-10, label
    assert int(np.count_nonzero(eig == 0)) == _dense_zeros(dense), label
    assert np.all(eig + eig[::-1] == 0), label
    assert np.all(np.diff(eig) >= 0), label


def test_spectrum_matches_dense_oracle(dense_oracle):
    for label, tree in _oracle_trees():
        _check_against_dense(tree, dense_oracle(tree), label)


def _blocks(monkeypatch, tree):
    """Each (block, rank) pair that `adjacency_spectrum(tree)` hands to `_singular_values`."""
    seen = []

    def record(block, rank):
        seen.append((block, rank))
        return _singular_values(block, rank)

    monkeypatch.setattr(seritree.analysis, "_singular_values", record)
    adjacency_spectrum(tree)
    monkeypatch.undo()
    return seen


def _check_forced_ranks_raise(block, rank):
    for wrong in (rank - 1, rank + 1):
        with pytest.raises(RuntimeError):
            _singular_values(block, wrong)


def test_matching_rank_is_block_rank_on_every_history(monkeypatch):
    for n in range(1, 7):
        for hist in enumerate_histories(n):
            tree = TreeRecord.from_parents(hist)
            for block, rank in _blocks(monkeypatch, tree):
                assert rank == np.linalg.matrix_rank(block), hist
                _check_forced_ranks_raise(block, rank)


@pytest.mark.parametrize("name", ["path 2048", "broom"])
def test_forced_rank_raises_on_adversarial_trees(name, monkeypatch):
    # the path's smallest s^2, about 2.4e-6, is the nearest a kept eigenvalue
    # comes to the bound, about 9e-13 on its 1024 x 1024 Gram matrix
    for block, rank in _blocks(monkeypatch, TreeRecord.from_parents(ADVERSARIAL[name])):
        _check_forced_ranks_raise(block, rank)


def test_zero_atom_has_no_size_cap():
    # a star has rank 2 and a path of m vertices has m mod 2 zeros, at any n
    assert zero_atom(TreeRecord.from_parents([0] * 5000)) == 4999
    assert zero_atom(TreeRecord.from_parents(list(range(4999)))) == 0
    assert zero_atom(TreeRecord.from_parents(list(range(5000)))) == 1


def _from_shape(shape):
    """The tree of a nested list of child shapes (``[]`` is a leaf), numbered in preorder."""
    parents = []

    def visit(kids, me):
        for kid in kids:
            parents.append(me)
            visit(kid, len(parents))

    visit(shape, 0)
    return TreeRecord.from_parents(parents)


def _complete(arity, depth):
    return [_complete(arity, depth - 1)] * arity if depth else []


CHERRY = [[], []]
# twins (the cherries and their leaves) inside twins that are cut, beside an
# unequal sibling that keeps the root's children from being all alike
NESTED = [[CHERRY, CHERRY, []]] * 3 + [[CHERRY, [[]]]]


SHAPES = {
    "binary depth 9": _complete(2, 9),
    "ternary depth 6": _complete(3, 6),
    "spider 20x5": [[[[[[]]]]]] * 20,  # twenty legs of five edges
    "nested twins": NESTED,
    "nested twins x4": [NESTED] * 4,
    "50 cherries": [CHERRY] * 50,
}


@pytest.mark.parametrize("name", SHAPES)
def test_sibling_quotient_matches_dense_oracle(name, dense_oracle):
    # trees made of isomorphic sibling subtrees, which the spectrum splits off
    tree = _from_shape(SHAPES[name])
    _check_against_dense(tree, dense_oracle(tree))


def _spectrum_zeros(tree):
    return int(np.count_nonzero(adjacency_spectrum(tree).eigenvalues == 0))


def test_zero_atom_matches_dense_on_every_history():
    for n in range(1, 7):
        for hist in enumerate_histories(n):
            tree = TreeRecord.from_parents(hist)
            a = np.zeros((n + 1, n + 1))
            a[np.arange(1, n + 1), hist] = 1.0
            assert zero_atom(tree) == _dense_zeros(np.linalg.eigvalsh(a + a.T)), hist
            assert zero_atom(tree) == _spectrum_zeros(tree), hist


def test_zero_atom_matches_dense_oracle(dense_oracle):
    trees = [*_oracle_trees(), *((name, _from_shape(shape)) for name, shape in SHAPES.items())]
    for label, tree in trees:
        assert zero_atom(tree) == _dense_zeros(dense_oracle(tree)) == _spectrum_zeros(tree), label


def test_spectrum_zero_atom_and_cap():
    star = TreeRecord.from_parents([0, 0, 0])
    assert zero_atom(star) == int(np.count_nonzero(adjacency_spectrum(star).eigenvalues == 0)) == 2
    big = TreeRecord.from_parents([0] * 3000)  # a star beyond the size cap
    with pytest.raises(ValueError):
        adjacency_spectrum(big)
