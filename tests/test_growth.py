import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from seritree.growth import (
    GrowthParams,
    TreeRecord,
    attach_probabilities,
    enumerate_histories,
    grow,
    history_probability,
    sample_target_naive,
    token_probability_vector,
    total_weight,
    vertex_weight,
    _fast_target_float,
    _fast_target_int,
    _is_half_integer,
    _triangular_index,
    _triangular_indices,
)
from seritree.rng import CounterRng
from seritree.treeops import fringe


# --- parameter validation -------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        GrowthParams(delta=-1.0, n_final=10)
    with pytest.raises(ValueError):
        GrowthParams(delta=0.0, n_final=0)
    with pytest.raises(ValueError):
        GrowthParams(delta=0.0, n_final=10, convention="other")
    with pytest.raises(ValueError):
        GrowthParams(delta=-0.7, n_final=10, convention="exact")
    GrowthParams(delta=-0.7, n_final=10, convention="paper_total")  # fine
    GrowthParams(delta=-0.5, n_final=10, convention="exact")  # boundary ok
    with pytest.raises(ValueError):
        GrowthParams(delta=math.inf, n_final=10)


def _first_n_at_2_64(bound) -> int:
    """Smallest n_final whose last step (n = n_final - 1) has bound(n) >= 2^64."""
    lo, hi = 1, 1 << 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(mid - 1) < 1 << 64 else (lo, mid)
    return hi


@pytest.mark.parametrize("delta,convention,bound", [
    # integer tokens: c2 * n(n+1)/2 + 2*delta*(n+1), c2 = 4 + 2*delta
    (0.0, "exact", lambda n: 4 * (n * (n + 1) // 2)),
    (100.0, "exact", lambda n: 204 * (n * (n + 1) // 2) + 200 * (n + 1)),
    (100.0, "paper_total", lambda n: 204 * (n * (n + 1) // 2)),
    # float tokens: the edge index is drawn below n(n+1)/2
    (0.3, "exact", lambda n: n * (n + 1) // 2),
])
def test_params_reject_token_bound_of_2_64(delta, convention, bound):
    limit = _first_n_at_2_64(bound)
    GrowthParams(delta=delta, n_final=limit - 1, convention=convention)
    with pytest.raises(ValueError, match="2\\^64"):
        GrowthParams(delta=delta, n_final=limit, convention=convention)
    with pytest.raises(ValueError):
        GrowthParams(delta=delta, n_final=10 * limit, convention=convention)


# --- weights: hand-worked small cases -----------------------------------------

def test_vertex_weight_examples():
    t0 = TreeRecord.from_parents([0], Fraction(0))
    assert vertex_weight(t0, 0).theta == 1
    t1 = TreeRecord.from_parents([0], Fraction(1))
    w0 = vertex_weight(t1, 0, "exact")
    assert (w0.theta, w0.degree_part, w0.delta_part) == (3, 1, 2)
    assert vertex_weight(t1, 1, "exact").theta == 2
    # paper_total: delta accrual starts the step after birth
    assert vertex_weight(t1, 0, "paper_total").theta == 2
    assert vertex_weight(t1, 1, "paper_total").theta == 1


def test_vertex_weight_errors():
    t = TreeRecord.from_parents([0], 0.0)
    with pytest.raises(IndexError):
        vertex_weight(t, 5)
    bare = TreeRecord(parent=[-1], delta=0.0)
    with pytest.raises(ValueError):
        vertex_weight(bare, 0)


def test_total_weight_closed_forms():
    t3 = TreeRecord.from_parents([0, 0, 1], Fraction(0))
    assert total_weight(t3, "exact") == 12
    assert total_weight(t3, "paper_total") == 12
    t2 = TreeRecord.from_parents([0, 1], Fraction(1))
    assert total_weight(t2, "paper_total") == 9   # n(n+1)(1 + delta/2)
    assert total_weight(t2, "exact") == 12


def test_convention_gap_is_delta_times_n_plus_one():
    delta = Fraction(3, 2)
    for hist in [(0,), (0, 0), (0, 1), (0, 0, 2, 1), (0, 1, 2, 3, 4)]:
        tree = TreeRecord.from_parents(hist, delta)
        n = tree.n
        gap = total_weight(tree, "exact") - total_weight(tree, "paper_total")
        assert gap == delta * (n + 1)


def test_weight_identity_replay_vs_event_form_n64():
    # replay equals the event identity exactly in rational arithmetic
    rng = CounterRng(17)
    delta = Fraction(5, 2)
    parents = [0]
    for _ in range(63):
        parents.append(rng.randbelow(len(parents) + 1))
    tree = TreeRecord.from_parents(parents, delta)
    assert tree.n == 64
    for i in (0, 1, 13, 37, 64):
        for conv in ("exact", "paper_total"):
            view = vertex_weight(tree, i, conv)  # asserts internally
            assert view.theta == view.degree_part + view.delta_part


def test_paper_total_weights_positive_for_all_delta():
    delta = Fraction(-9, 10)
    tree = TreeRecord.from_parents([0, 0, 1, 2, 0], delta)
    for i in range(tree.n + 1):
        assert vertex_weight(tree, i, "paper_total").theta > 0


def test_attach_probabilities_examples():
    t0 = TreeRecord.from_parents([0], Fraction(0))
    assert attach_probabilities(t0) == [Fraction(1, 2), Fraction(1, 2)]
    t1 = TreeRecord.from_parents([0], Fraction(1))
    assert attach_probabilities(t1, "exact") == [Fraction(3, 5), Fraction(2, 5)]
    assert attach_probabilities(t1, "paper_total") == [Fraction(2, 3), Fraction(1, 3)]


def test_attach_probabilities_float_sum():
    tree, _ = grow(GrowthParams(delta=0.7, n_final=50, seed=9))
    probs = attach_probabilities(tree)
    assert abs(sum(probs) - 1.0) <= 1e-12


# --- samplers ---------------------------------------------------------------

def _sample_target_fast(tree, rng, convention="exact"):
    """One token-sampler draw on a finished tree, as `grow` draws each step."""
    deg0, tsum0 = int(tree.degree[0]), int(tree.edge_time_sum[0])
    if _is_half_integer(tree.delta):
        return int(_fast_target_int(tree.parent, tree.n, int(2 * tree.delta), convention, rng, deg0, tsum0))
    return int(_fast_target_float(tree.parent, tree.n, float(tree.delta), convention, rng, deg0, tsum0))


def test_triangular_index_inverts_integer_cdf():
    for n in (1, 2, 3, 10, 1000):
        t = n * (n + 1) // 2
        for r in range(min(t, 600)):
            k = _triangular_index(r)
            assert k * (k + 1) // 2 > r >= (k - 1) * k // 2
            assert 1 <= k <= n


@given(st.integers(min_value=0, max_value=10**14))
def test_triangular_index_property(r):
    k = _triangular_index(r)
    assert (k - 1) * k // 2 <= r < k * (k + 1) // 2


@given(st.lists(
    st.one_of(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=2**64 - 1)),
    min_size=1, max_size=50,
))
def test_triangular_indices_match_scalar(rs):
    # near triangular numbers the float estimate is closest to the wrong answer
    near = [k * (k + 1) // 2 + e for k in (1, 2, 3, 4096, 2**32 - 1, 6074000999) for e in (-1, 0, 1)]
    rs = rs + [r for r in near if r < 1 << 64]
    ks = _triangular_indices(np.array(rs, dtype=np.uint64))
    assert ks.tolist() == [_triangular_index(r) for r in rs]


def test_token_vector_matches_attach_probabilities_exhaustive_small():
    for delta in (Fraction(0), Fraction(1), Fraction(-1, 2)):
        for n in range(1, 5):
            for hist in enumerate_histories(n):
                tree = TreeRecord.from_parents(hist, delta)
                for conv in ("exact", "paper_total"):
                    assert token_probability_vector(tree, conv) == attach_probabilities(tree, conv)


def test_naive_sampler_frequency_example():
    # (n=1, delta=1, exact): P(v0) = 3/5
    tree = TreeRecord.from_parents([0], 1.0)
    rng = CounterRng(2)
    n = 100000
    hits = sum(1 for _ in range(n) if sample_target_naive(tree, rng, "exact") == 0)
    sigma = math.sqrt(0.6 * 0.4 / n)
    assert abs(hits / n - 0.6) <= 3 * sigma


def test_naive_sampler_symmetric_case():
    tree = TreeRecord.from_parents([0], 0.0)
    rng = CounterRng(3)
    n = 50000
    hits = sum(1 for _ in range(n) if sample_target_naive(tree, rng) == 0)
    assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_naive_sampler_deterministic_replay():
    tree = TreeRecord.from_parents([0, 0, 1, 3], 1.0)
    seq1 = [sample_target_naive(tree, CounterRng(77).spawn(i)) for i in range(20)]
    seq2 = [sample_target_naive(tree, CounterRng(77).spawn(i)) for i in range(20)]
    assert seq1 == seq2


@pytest.mark.parametrize("delta,conv", [
    (0.0, "exact"),
    (1.0, "paper_total"),
    (2.5, "exact"),
    (-0.5, "exact"),
    (-0.5, "paper_total"),
    (0.7, "exact"),      # float token path
    (-0.3, "paper_total"),
])
def test_fast_sampler_matches_probabilities(delta, conv):
    frac = Fraction(delta).limit_denominator(10)
    tree = TreeRecord.from_parents([0, 0, 1, 2, 1], frac)
    probs = [float(p) for p in attach_probabilities(tree, conv)]
    rng = CounterRng(123)
    n = 120000
    counts = Counter(_sample_target_fast(tree, rng, conv) for _ in range(n))
    for i, p in enumerate(probs):
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(counts[i] / n - p) <= 4 * sigma + 1e-3


def test_fast_equals_naive_in_distribution():
    tree = TreeRecord.from_parents([0, 1, 1, 0, 2], 1.0)
    n = 60000
    rng_fast, rng_naive = CounterRng(5), CounterRng(6)
    fast = Counter(_sample_target_fast(tree, rng_fast) for _ in range(n))
    naive = Counter(sample_target_naive(tree, rng_naive) for _ in range(n))
    support = sorted(set(fast) | set(naive))
    table = np.array([[fast[i] for i in support], [naive[i] for i in support]])
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.001


# --- grow -------------------------------------------------------------------

def test_grow_minimal_tree():
    tree, snaps = grow(GrowthParams(delta=0.0, n_final=1, seed=1))
    assert np.array_equal(tree.parent, [-1, 0])
    assert snaps == []


def _scalar_grow(params: GrowthParams, rng: CounterRng) -> list:
    """The per-step grow loop that the blocked driver replaced, as a reference."""
    convention = params.convention
    if _is_half_integer(params.delta):
        draw, delta = _fast_target_int, int(2 * params.delta)
    else:
        draw, delta = _fast_target_float, float(params.delta)
    parent = [-1, 0]
    deg0 = tsum0 = 1
    for m in range(2, params.n_final + 1):
        target = draw(parent, m - 1, delta, convention, rng, deg0, tsum0)
        if target == 0:
            deg0 += 1
            tsum0 += m
        parent.append(target)
    return parent


GROW_CASES = [(d, "exact") for d in (0.0, 0.5, 1.0, 2.5, 0.3, 1.7, -0.25, -0.5)] + [
    (d, "paper_total") for d in (0.0, 0.3, -0.3, -0.75)
]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=3000),
    st.sampled_from(GROW_CASES),
    st.integers(min_value=0, max_value=5000),
)
def test_blocked_grow_equals_scalar_loop(seed, n_final, case, drawn):
    # `drawn` words are consumed first, so the stream starts part-way into
    # (or past) CounterRng's buffer
    delta, convention = case
    params = GrowthParams(delta=delta, n_final=n_final, seed=seed, convention=convention)
    ref_rng, rng = CounterRng(seed), CounterRng(seed)
    for _ in range(drawn):
        ref_rng.u64()
        rng.u64()
    expected = _scalar_grow(params, ref_rng)
    tree, _ = grow(params, rng=rng)
    assert tree.parent.tolist() == expected
    assert rng.counter == ref_rng.counter


@pytest.mark.parametrize("delta,convention", GROW_CASES)
def test_blocked_grow_equals_scalar_loop_n3000(delta, convention):
    params = GrowthParams(delta=delta, n_final=3000, seed=97, convention=convention)
    ref_rng, rng = CounterRng(97), CounterRng(97)
    expected = _scalar_grow(params, ref_rng)
    tree, _ = grow(params, rng=rng)
    assert tree.parent.tolist() == expected
    assert rng.counter == ref_rng.counter


def test_grow_conservation_and_determinism():
    params = GrowthParams(delta=0.0, n_final=20000, seed=42)
    tree1, _ = grow(params)
    tree2, _ = grow(params)
    assert np.array_equal(tree1.parent, tree2.parent)
    tree1.check_invariants()
    assert sum(tree1.degree) == 2 * tree1.n


def test_grow_checkpoints():
    params = GrowthParams(delta=0.0, n_final=1000, seed=11)
    _, snaps = grow(params, checkpoints=[10, 100, 1000], track_vertices=(0, 1))
    assert [s.n for s in snaps] == [10, 100, 1000]
    for s in snaps:
        assert sum(s.degree_counts.values()) == s.n + 1
        assert sum(k * c for k, c in s.degree_counts.items()) == 2 * s.n
        assert set(s.tracked_degrees) == {0, 1}
    with pytest.raises(ValueError):
        grow(params, checkpoints=[2000])


def test_grow_negative_delta_paper_total():
    tree, _ = grow(GrowthParams(delta=-0.5, n_final=3000, seed=8, convention="paper_total"))
    tree.check_invariants()
    tree2, _ = grow(GrowthParams(delta=-0.5, n_final=3000, seed=8, convention="exact"))
    tree2.check_invariants()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([0.0, 1.0, 2.5]))
def test_grow_parent_ordering_property(seed, delta):
    tree, _ = grow(GrowthParams(delta=delta, n_final=50, seed=seed))
    assert all(tree.parent[m] < m for m in range(1, tree.n + 1))
    assert min(tree.degree) >= 1


# --- distributional regression against exact enumeration --------------------

def test_shape_distribution_chi_square_n5():
    # exact shape law at n=5 from full enumeration, vs 1e5 fast-sampler trees
    delta = Fraction(0)
    exact_by_shape: dict[str, float] = {}
    for hist in enumerate_histories(5):
        key = fringe(TreeRecord.from_parents(hist, delta), 0)
        p = history_probability(hist, delta)
        exact_by_shape[key] = exact_by_shape.get(key, 0.0) + float(p)
    assert abs(sum(exact_by_shape.values()) - 1.0) < 1e-12
    reps = 100000
    rng = CounterRng(314)
    observed: Counter = Counter()
    params = GrowthParams(delta=0.0, n_final=5, seed=0)
    for _ in range(reps):
        tree, _ = grow(params, rng=rng)
        observed[fringe(tree, 0)] += 1
    keys = sorted(exact_by_shape)
    obs = np.array([observed[k] for k in keys], dtype=float)
    exp = np.array([exact_by_shape[k] * reps for k in keys])
    stat, p_value = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert p_value > 0.01, f"shape chi-square p={p_value}"
