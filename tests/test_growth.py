import math
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from seritree.growth import (
    CONVENTIONS,
    GrowthParams,
    TreeRecord,
    attach_probabilities,
    enumerate_histories,
    grow,
    token_bound,
    token_counts,
    total_weight_closed,
    value_counts,
    _delta_part,
    _edge_time_sums,
    _fast_target_float,
    _fast_target_int,
    _is_half_integer,
    _thetas,
    _triangular_index,
    _triangular_indices,
)
from seritree.rng import CounterRng
from seritree.treeops import fringe

from oracles import check_tree_invariants, history_probability, replay_weight, same_law_p, sample_target_naive


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
    t = TreeRecord.from_parents([0])
    assert _thetas(t, Fraction(0), "exact") == [1, 1]
    # v0: degree part 1, delta part 2
    assert _thetas(t, Fraction(1), "exact") == [3, 2]
    assert _delta_part(Fraction(1), 0, 1, "exact") == 2
    # paper_total: delta accrual starts the step after birth
    assert _thetas(t, Fraction(1), "paper_total") == [2, 1]
    for delta, conv in ((Fraction(0), "exact"), (Fraction(1), "exact"), (Fraction(1), "paper_total")):
        assert [replay_weight(t, i, delta, conv) for i in (0, 1)] == _thetas(t, delta, conv)


def test_tree_record_holds_only_the_tree():
    tree = TreeRecord.from_parents([0, 0, 1])
    assert [f.name for f in fields(tree)] == ["parent"]
    assert tree.parent.tolist() == [-1, 0, 0, 1]
    # the degrees are derived on first use, once, and cannot be changed
    assert tree.degree.tolist() == [2, 2, 1, 1]
    assert tree.degree is tree.degree
    assert np.array_equal(tree.degree, np.bincount(tree.parent[1:], minlength=4) + [0, 1, 1, 1])
    with pytest.raises(ValueError):
        tree.degree[0] = 5
    with pytest.raises(AttributeError):
        tree.degree = np.zeros(4, dtype=np.int64)


def test_edge_time_sums_from_parents():
    # vertex i collects its own birth time and those of its children
    tree = TreeRecord.from_parents([0, 0, 1, 3, 0])
    assert _edge_time_sums(tree) == [1 + 2 + 5, 1 + 3, 2, 3 + 4, 4, 5]


def _total_weight(tree, delta, convention):
    """Sum of the vertex weights, which must equal the closed form exactly."""
    total = sum(_thetas(tree, delta, convention))
    assert total == total_weight_closed(tree.n, delta, convention)
    return total


def test_total_weight_closed_forms():
    t3 = TreeRecord.from_parents([0, 0, 1])
    assert _total_weight(t3, Fraction(0), "exact") == 12
    assert _total_weight(t3, Fraction(0), "paper_total") == 12
    t2 = TreeRecord.from_parents([0, 1])
    assert _total_weight(t2, Fraction(1), "paper_total") == 9   # n(n+1)(1 + delta/2)
    assert _total_weight(t2, Fraction(1), "exact") == 12


def test_convention_gap_is_delta_times_n_plus_one():
    delta = Fraction(3, 2)
    for hist in [(0,), (0, 0), (0, 1), (0, 0, 2, 1), (0, 1, 2, 3, 4)]:
        tree = TreeRecord.from_parents(hist)
        n = tree.n
        gap = _total_weight(tree, delta, "exact") - _total_weight(tree, delta, "paper_total")
        assert gap == delta * (n + 1)


def test_weight_identity_replay_vs_event_form_n64():
    # replay equals the event identity exactly in rational arithmetic
    rng = CounterRng(17)
    delta = Fraction(5, 2)
    parents = [0]
    for _ in range(63):
        parents.append(rng.randbelow(len(parents) + 1))
    tree = TreeRecord.from_parents(parents)
    assert tree.n == 64
    for conv in ("exact", "paper_total"):
        thetas = _thetas(tree, delta, conv)
        for i in (0, 1, 13, 37, 64):
            assert replay_weight(tree, i, delta, conv) == thetas[i]


def test_paper_total_weights_positive_for_all_delta():
    delta = Fraction(-9, 10)
    tree = TreeRecord.from_parents([0, 0, 1, 2, 0])
    thetas = _thetas(tree, delta, "paper_total")
    assert thetas == [replay_weight(tree, i, delta, "paper_total") for i in range(tree.n + 1)]
    assert min(thetas) > 0


def test_attach_probabilities_examples():
    t = TreeRecord.from_parents([0])
    assert attach_probabilities(t, Fraction(0)) == [Fraction(1, 2), Fraction(1, 2)]
    assert attach_probabilities(t, Fraction(1), "exact") == [Fraction(3, 5), Fraction(2, 5)]
    assert attach_probabilities(t, Fraction(1), "paper_total") == [Fraction(2, 3), Fraction(1, 3)]


def test_attach_probabilities_float_sum():
    tree, _ = grow(GrowthParams(delta=0.7, n_final=50, seed=9))
    probs = attach_probabilities(tree, 0.7)
    assert abs(sum(probs) - 1.0) <= 1e-12


# --- samplers ---------------------------------------------------------------

def _sample_target_fast(tree, rng, delta, convention="exact"):
    """One token-sampler draw on a finished tree, as `grow` draws each step."""
    if _is_half_integer(delta):
        return int(_fast_target_int(tree.parent, tree.n, int(2 * delta), convention, rng))
    return int(_fast_target_float(tree.parent, tree.n, float(delta), convention, rng))


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


class _FixedDraw:
    """Stands in for CounterRng: `randbelow` returns `r` and records its bound."""

    def __init__(self, r: int):
        self.r = r
        self.bound = None

    def randbelow(self, bound: int) -> int:
        self.bound = bound
        return self.r


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("delta", [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)])
def test_int_sampler_tokens_are_twice_the_weights(delta, convention):
    # every draw below the bound, on every history with n <= 5: vertex i is
    # the target of exactly 2 theta_i of them
    d2 = int(2 * delta)
    for n in range(1, 6):
        bound = token_bound(delta, n + 1, convention)
        for hist in enumerate_histories(n):
            tree = TreeRecord.from_parents(hist)
            targets = []
            for r in range(bound):
                draw = _FixedDraw(r)
                targets.append(int(_fast_target_int(tree.parent, n, d2, convention, draw)))
                assert draw.bound == bound
            counts = np.bincount(targets, minlength=n + 1).tolist()
            assert counts == [2 * theta for theta in _thetas(tree, delta, convention)], hist
            assert token_counts(tree, delta, convention).tolist() == counts, hist  # the blocked map


def test_naive_sampler_frequency_example():
    # (n=1, delta=1, exact): P(v0) = 3/5
    tree = TreeRecord.from_parents([0])
    rng = CounterRng(2)
    n = 100000
    hits = sum(1 for _ in range(n) if sample_target_naive(tree, rng, 1.0, "exact") == 0)
    sigma = math.sqrt(0.6 * 0.4 / n)
    assert abs(hits / n - 0.6) <= 3 * sigma


def test_naive_sampler_symmetric_case():
    tree = TreeRecord.from_parents([0])
    rng = CounterRng(3)
    n = 50000
    hits = sum(1 for _ in range(n) if sample_target_naive(tree, rng, 0.0) == 0)
    assert abs(hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_naive_sampler_deterministic_replay():
    tree = TreeRecord.from_parents([0, 0, 1, 3])
    seq1 = [sample_target_naive(tree, CounterRng(77).spawn(i), 1.0) for i in range(20)]
    seq2 = [sample_target_naive(tree, CounterRng(77).spawn(i), 1.0) for i in range(20)]
    assert seq1 == seq2


@pytest.mark.parametrize("delta,conv", [
    (0.0, "exact"),
    (1.0, "paper_total"),
    (2.5, "exact"),
    (-0.5, "exact"),
    (-0.5, "paper_total"),
    (0.7, "exact"),      # float token path
    (-0.3, "exact"),
    (-0.3, "paper_total"),
])
def test_fast_sampler_matches_probabilities(delta, conv):
    frac = Fraction(delta).limit_denominator(10)
    tree = TreeRecord.from_parents([0, 0, 1, 2, 1])
    probs = [float(p) for p in attach_probabilities(tree, frac, conv)]
    rng = CounterRng(123)
    n = 120000
    counts = Counter(_sample_target_fast(tree, rng, frac, conv) for _ in range(n))
    for i, p in enumerate(probs):
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(counts[i] / n - p) <= 4 * sigma + 1e-3


def test_fast_equals_naive_in_distribution():
    tree = TreeRecord.from_parents([0, 1, 1, 0, 2])
    n = 60000
    rng_fast, rng_naive = CounterRng(5), CounterRng(6)
    fast = Counter(_sample_target_fast(tree, rng_fast, 1.0) for _ in range(n))
    naive = Counter(sample_target_naive(tree, rng_naive, 1.0) for _ in range(n))
    assert same_law_p(fast, naive) > 0.001


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
    for m in range(2, params.n_final + 1):
        parent.append(draw(parent, m - 1, delta, convention, rng))
    return parent


GROW_CASES = [(d, "exact") for d in (0.0, 0.5, 1.0, 2.5, 0.3, 1.7, -0.25, -0.5)] + [
    (d, "paper_total") for d in (0.0, 0.3, -0.3, -0.5, -0.75)
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
    check_tree_invariants(tree1)
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
    with pytest.raises(ValueError, match="tracked"):  # degree[-1] would track vertex n
        grow(params, checkpoints=[10], track_vertices=(-1,))


def test_final_checkpoint_counts_the_tree_degrees():
    tree, snaps = grow(GrowthParams(delta=0.0, n_final=1000, seed=11), checkpoints=[10, 1000], track_vertices=(0, 1))
    assert snaps[-1].degree_counts == value_counts(tree.degree)
    assert snaps[-1].tracked_degrees == {0: int(tree.degree[0]), 1: int(tree.degree[1])}


def test_grow_negative_delta_paper_total():
    tree, _ = grow(GrowthParams(delta=-0.5, n_final=3000, seed=8, convention="paper_total"))
    check_tree_invariants(tree)
    tree2, _ = grow(GrowthParams(delta=-0.5, n_final=3000, seed=8, convention="exact"))
    check_tree_invariants(tree2)


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
        key = fringe(TreeRecord.from_parents(hist))
        p = history_probability(hist, delta)
        exact_by_shape[key] = exact_by_shape.get(key, 0.0) + float(p)
    assert abs(sum(exact_by_shape.values()) - 1.0) < 1e-12
    reps = 100000
    rng = CounterRng(314)
    observed: Counter = Counter()
    params = GrowthParams(delta=0.0, n_final=5, seed=0)
    for _ in range(reps):
        tree, _ = grow(params, rng=rng)
        observed[fringe(tree)] += 1
    keys = sorted(exact_by_shape)
    obs = np.array([observed[k] for k in keys], dtype=float)
    exp = np.array([exact_by_shape[k] * reps for k in keys])
    stat, p_value = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert p_value > 0.01, f"shape chi-square p={p_value}"


def _histories_recursively(n):
    """The recursive generator `enumerate_histories` replaced, as its reference."""

    def rec(prefix):
        if len(prefix) == n:
            yield prefix
            return
        # vertices 0..len(prefix) are present; the next one picks any of them
        for p in range(len(prefix) + 1):
            yield from rec(prefix + (p,))

    yield from rec((0,))


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_histories_counts_and_orders(n):
    # n! histories, in the recursive form's order, each starting with vertex 1's parent 0
    hists = list(enumerate_histories(n))
    assert len(hists) == math.factorial(n)
    assert hists == list(_histories_recursively(n))
    assert all(len(h) == n and h[0] == 0 for h in hists)


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_histories_refuses_no_vertex(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        enumerate_histories(n)
