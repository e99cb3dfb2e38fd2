"""Statistical post-processing: tails, growth fits, distances, spectra.

Everything here consumes immutable simulation output (grown trees, their
degree ccdfs, fringe histograms) and produces plain fit/report objects.

The spectrum rests on one combinatorial fact: the rank of a forest's
adjacency matrix is twice its matching number, which one greedy walk over
the vertices finds (`_matched`).  `zero_atom` reads the exact multiplicity
of eigenvalue 0 from it at any n, and `adjacency_spectrum` takes each
component's rank from it, so one Gram eigensolve per distinct component
gives the nonzero eigenvalues and every other eigenvalue is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .growth import GrowthParams, TreeRecord, count_values, grow
from .rng import CounterRng
from .treeops import OTHER_KEY, FringeHistogram, _classes

SPECTRUM_SIZE_CAP = 2048


def tail_ccdf(tree: TreeRecord) -> tuple[np.ndarray, np.ndarray]:
    """Degree tail P(deg >= k) of a tree for k = 1..max, nonincreasing with P(>=1) = 1.

    Returns two arrays: the degrees k = 1..max (int64) and P(deg >= k)
    (float64).  The degrees are counted with exact integer arithmetic, so
    P(>=1) is exactly 1.  A tree of one vertex has no tail and raises
    ValueError.
    """
    if tree.n < 1:
        raise ValueError("a tree of one vertex has no degree tail")
    degrees = tree.degree
    counts = count_values(degrees)
    total = degrees.size
    # vertices of degree >= k, for k = 1..max
    tails = total - np.concatenate(([0], np.cumsum(counts[1:-1])))
    return np.arange(1, len(counts)), tails / total


@dataclass
class TailFit:
    """Log-log least-squares fit of a ccdf over a degree window."""

    slope: float
    intercept: float
    k_min: int
    k_max: int
    r_squared: float
    n_tail_points: int


TAIL_QUANTILE = 0.01  # ccdf level where the fit window opens; 0.1 admits too
# much pre-asymptotic curvature for steep tails and biases the slope shallow
TAIL_MIN_POINTS = 8  # ccdf points a fit window must hold


def fit_power_tail(
    ccdf: tuple[np.ndarray, np.ndarray],
    n_samples: Optional[int] = None,
    window: Optional[tuple[int, int]] = None,
) -> TailFit:
    """Least squares on (log k, log P(>=k)) over a tail window.

    `ccdf` is a pair (k, P(>=k)) of equal-length arrays, as `tail_ccdf`
    returns; every k must be >= 1 and every P in [0, 1], and points with
    P = 0 are dropped.  Default window policy: k_min is the first k with
    P(>=k) <= `TAIL_QUANTILE` and k_max the largest k with at least 50 tail
    samples (requires `n_samples`).  Pass `window` to override.  At least
    `TAIL_MIN_POINTS` ccdf points must fall inside the window.  The window
    and the fit points are picked by array masks, with no object per degree.
    """
    k, p = (np.asarray(a) for a in ccdf)
    if k.ndim != 1 or k.shape != p.shape:
        raise ValueError(f"a ccdf is two 1-D arrays of one length, got shapes {k.shape} and {p.shape}")
    if not (k >= 1).all():
        raise ValueError("ccdf degrees must be >= 1")
    if not ((p >= 0) & (p <= 1)).all():
        raise ValueError("ccdf probabilities must lie in [0, 1]")
    positive = p > 0
    if window is not None:
        k_lo, k_hi = window
    else:
        if n_samples is None:
            raise ValueError("n_samples is required for the default window policy")
        opens = np.flatnonzero(positive & (p <= TAIL_QUANTILE))
        deep = k[positive & (p * n_samples >= 50)]
        if not opens.size or not deep.size:
            raise ValueError("tail window is empty under the default policy")
        k_lo, k_hi = k[opens[0]], deep.max()
    sel = positive & (k_lo <= k) & (k <= k_hi)
    n_sel = int(np.count_nonzero(sel))
    if n_sel < TAIL_MIN_POINTS:
        raise ValueError(f"window [{k_lo}, {k_hi}] holds {n_sel} points; need >= {TAIL_MIN_POINTS}")
    x = np.log(k[sel])
    y = np.log(p[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    r2 = min(1.0, max(0.0, r2))
    return TailFit(
        slope=float(slope),
        intercept=float(intercept),
        k_min=int(k_lo),
        k_max=int(k_hi),
        r_squared=r2,
        n_tail_points=n_sel,
    )


def tail_window_sensitivity(
    ccdf: tuple[np.ndarray, np.ndarray], n_samples: int
) -> list[TailFit]:
    """The default-window fit plus two perturbed windows, to expose fragility."""
    base = fit_power_tail(ccdf, n_samples=n_samples)
    fits = [base]
    for k_lo, k_hi in (
        (max(1, base.k_min // 2), base.k_max),
        (base.k_min * 2, base.k_max),
    ):
        try:
            fits.append(fit_power_tail(ccdf, window=(k_lo, k_hi)))
        except ValueError:
            pass
    return fits


@dataclass
class GrowthFit:
    """Multi-seed regression of log degree on log time for one vertex."""

    vertex: int
    checkpoints: list[tuple[int, float]]
    slope: float
    stderr: float
    per_seed_slopes: list[float]


def fit_degree_growth(
    delta: float,
    vertex: int,
    checkpoints: Sequence[int],
    n_seeds: int,
    master_seed: int = 0,
    convention: str = "exact",
) -> GrowthFit:
    """Estimate the degree-growth exponent of a fixed vertex.

    Each seed grows a fresh tree to max(checkpoints) recording the vertex's
    degree at each checkpoint; the per-seed slope of log degree against log n
    is averaged and its spread reported.  Checkpoints must number at least 4,
    be distinct, be at least 1 and span at least 3 decades, and at least one
    seed must run.  Replica r always uses the stream derived from
    (master_seed, r), and the replicas run one after another in this
    process and are reduced in replica order.
    """
    cps = sorted(checkpoints)
    if len(cps) < 4:
        raise ValueError("need at least 4 checkpoints")
    repeated = [a for a, b in zip(cps, cps[1:]) if a == b]
    if repeated:
        raise ValueError(f"checkpoint {repeated[0]} is given more than once")
    if cps[0] < 1:
        raise ValueError(f"checkpoints must be >= 1, got {cps[0]}")
    if math.log10(cps[-1] / cps[0]) < 3:
        raise ValueError("checkpoints must span at least 3 decades")
    if vertex > cps[0]:
        raise ValueError(f"vertex {vertex} not yet born at the first checkpoint")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    params = GrowthParams(delta=delta, n_final=cps[-1], seed=master_seed, convention=convention)
    log_n = np.log(cps)
    slopes = []
    mean_deg = np.zeros(len(cps))
    for r in range(n_seeds):
        _, snaps = grow(params, checkpoints=cps, rng=CounterRng(master_seed).spawn(r), track_vertices=(vertex,))
        degs = np.array([s.tracked_degrees[vertex] for s in snaps], dtype=float)
        if np.any(np.diff(degs) < 0):
            raise AssertionError("tracked degrees must be nondecreasing")
        slopes.append(float(np.polyfit(log_n, np.log(degs), 1)[0]))
        mean_deg += degs / n_seeds
    slopes_arr = np.array(slopes)
    stderr = float(slopes_arr.std(ddof=1) / math.sqrt(n_seeds)) if n_seeds > 1 else 0.0
    return GrowthFit(
        vertex=vertex,
        checkpoints=[(n, float(d)) for n, d in zip(cps, mean_deg)],
        slope=float(slopes_arr.mean()),
        stderr=stderr,
        per_seed_slopes=[float(s) for s in slopes],
    )


def _count_map(hist: FringeHistogram) -> dict[str, int]:
    counts = dict(hist.counts)
    if hist.other:
        counts[OTHER_KEY] = counts.get(OTHER_KEY, 0) + hist.other
    return counts


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_error(k: float) -> float:
    """log Gamma(k+1) - (k+1/2) log k + k - log sqrt(2 pi), for k > 0."""
    if k <= 15.0:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
    k2 = k * k  # Stirling's series, accurate to rounding past 15
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * k2)) / k2) / k2) / k2) / k


def _poisson_term(k: float, x: float) -> float:
    """x^k e^-x / Gamma(k+1) for k > 0.

    Written as exp(k log(x/k) + k - x - stirling_error(k)) / sqrt(2 pi k), so
    the exponent holds no large terms that cancel (Loader 2000): the naive
    k log x - x - lgamma(k+1) loses about 1e-12 of the term at k ~ 1000.
    """
    return math.exp(k * math.log(x / k) + (k - x) - _stirling_error(k)) / math.sqrt(2.0 * math.pi * k)


def chi_square_tail(stat: float, dof: int) -> float:
    """P(chi^2_dof >= stat), the upper tail of the chi-square law.

    With x = stat/2 the tail is a finite sum by the parity of dof:
    e^-x sum_{j < dof/2} x^j / j! for even dof, and
    erfc(sqrt x) + sum_{j=1}^{(dof-1)/2} x^(j-1/2) e^-x / Gamma(j+1/2) for odd.
    A NaN or negative stat raises ValueError.
    """
    if not stat >= 0.0:
        raise ValueError(f"chi-square statistic must be >= 0; got {stat}")
    if stat == 0.0:
        return 1.0
    if stat == math.inf:
        return 0.0
    x = 0.5 * stat
    if dof % 2 == 0:
        terms = [math.exp(-x)] + [_poisson_term(j, x) for j in range(1, dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(x))] + [_poisson_term(j - 0.5, x) for j in range(1, (dof + 1) // 2)]
    return min(1.0, math.fsum(terms))


POOL_THRESHOLD = 5.0  # least expected count of a chi-square bin in each row


def compare_distributions(p: FringeHistogram, q: FringeHistogram) -> tuple[float, float, float]:
    """Total-variation distance and two-sample chi-square between fringe histograms.

    Returns (tv_distance, chi_square_stat, p_value).  TV is half the L1 gap
    of the frequency vectors over the union support.  The chi-square is the
    2 x K homogeneity statistic with bins pooled (smallest expected count
    first) until every pooled bin has expected count >= `POOL_THRESHOLD`
    in both rows.  The histograms must share `truncation` and `k`:
    otherwise a fringe is a key on one side and ``(other)`` on the other.
    """
    if (p.truncation, p.k) != (q.truncation, q.k):
        raise ValueError(
            f"fringe histograms differ: truncation {p.truncation} vs {q.truncation}, k {p.k} vs {q.k}"
        )
    pc, pn = _count_map(p), p.total
    qc, qn = _count_map(q), q.total
    if pn == 0 or qn == 0:
        raise ValueError("empty distribution")
    support = sorted(set(pc) | set(qc), key=str)
    tv = 0.5 * sum(abs(pc.get(k, 0) / pn - qc.get(k, 0) / qn) for k in support)
    # pool low-expectation bins so the chi-square approximation is valid
    rows = np.array([[pc.get(k, 0) for k in support], [qc.get(k, 0) for k in support]], dtype=float)
    grand = rows.sum()
    while rows.shape[1] > 1:
        col_tot = rows.sum(axis=0)
        expected = np.outer(rows.sum(axis=1), col_tot) / grand
        min_col = int(np.argmin(expected.min(axis=0)))
        if expected[:, min_col].min() >= POOL_THRESHOLD:
            break
        other = int(np.argsort(expected.min(axis=0))[1])
        rows[:, other] += rows[:, min_col]
        rows = np.delete(rows, min_col, axis=1)
    if rows.shape[1] < 2:
        return tv, 0.0, 1.0
    col_tot = rows.sum(axis=0)
    expected = np.outer(rows.sum(axis=1), col_tot) / grand
    stat = float(((rows - expected) ** 2 / expected).sum())
    dof = rows.shape[1] - 1
    p_value = chi_square_tail(stat, dof)
    return tv, stat, p_value


@dataclass
class SpectrumResult:
    """Adjacency eigenvalues of a tree, sorted ascending."""

    eigenvalues: np.ndarray


def _matched(parent: np.ndarray) -> np.ndarray:
    """Which vertices of a forest a greedy maximum matching pairs with a child.

    `parent` holds -1 at each root and gives every child a larger index than
    its parent.  The walk over decreasing indices reaches each vertex after
    all its descendants and matches it with its parent when both are free
    (Karp & Sipser 1981), which gives a maximum matching of a forest.  A
    vertex is thus matched to a child exactly when one of its children was
    left free, and marking that upper end of each matched edge counts the
    matching number nu.
    """
    matched = bytearray(len(parent) + 1)  # the last slot takes the roots' -1
    for v, p in zip(range(len(parent) - 1, -1, -1), reversed(parent.tolist())):
        if not matched[v]:
            matched[p] = 1
    return np.frombuffer(matched, dtype=bool)[:-1]


def zero_atom(tree: TreeRecord) -> int:
    """Multiplicity of eigenvalue 0 in the adjacency spectrum of a tree, exact at any n.

    In a forest it is n + 1 - 2 nu, where nu is the size of a maximum
    matching (Cvetkovic & Gutman 1972), which `_matched` finds in one walk
    over the vertices; there is no size cap.
    """
    return tree.n + 1 - 2 * int(np.count_nonzero(_matched(tree.parent)))


def _singular_values(block: np.ndarray, rank: int) -> np.ndarray:
    """The `rank` nonzero singular values of `block`, ascending, from one Gram eigensolve.

    The smaller Gram matrix G (B B^T or B^T B, of dimension m) has the
    squares s^2 as its `rank` largest eigenvalues and m - rank exact zeros.
    `eigvalsh` is backward stable, so each computed eigenvalue lies within a
    small multiple of eps * lambda_max of the exact one.  With the bound
    m * eps * lambda_max, the kept eigenvalues must exceed it and the others
    lie within it of 0; otherwise the rank is wrong and RuntimeError is
    raised.
    """
    gram = block @ block.T if block.shape[0] <= block.shape[1] else block.T @ block
    lam = np.linalg.eigvalsh(gram)
    m = lam.size
    bound = m * np.finfo(float).eps * lam[-1]
    if not 0 < rank <= m or lam[m - rank] <= bound or np.abs(lam[: m - rank]).max(initial=0.0) > bound:
        raise RuntimeError(f"rank {rank} does not split the {m} Gram eigenvalues at {bound:.1e}")
    return np.sqrt(lam[m - rank :])


def adjacency_spectrum(tree: TreeRecord) -> SpectrumResult:
    """Eigenvalues of the 0/1 adjacency matrix of a grown tree, sorted ascending.

    Capped at 2048+1 vertices.  Two exact orthogonal reductions come before
    LAPACK.  First, isomorphic sibling subtrees split off (the quotient by an
    equitable partition, Godsil & Royle, Algebraic Graph Theory, 2001).  Let
    m >= 2 children of one vertex root isomorphic subtrees T.  In the basis
    of the normalized sum of the m copies and m - 1 orthonormal differences,
    the sum is one copy of T hung from the vertex by an edge of weight
    sqrt(m), and each difference is a copy of A(T) that no other vertex
    touches.  Applied at every vertex, top-down, with the classes of the
    original subtrees (`treeops._classes`), this keeps the first child of
    each (parent, class) group on its weighted edge and cuts the others from
    their parents.  The forest left has one component headed by the root and
    one headed by each cut child, which holds that child and its descendants
    below no other cut child; the reductions inside a subtree depend only on
    its class, so all components whose heads share a class have one
    spectrum.  Second, a tree is bipartite, so with its vertices coloured by
    depth parity the nonzero eigenvalues of a component are +-s for the
    nonzero singular values s of its even-by-odd block B, and all its other
    eigenvalues are 0.  For any nonzero edge weights the rank of B is the
    component's matching number nu_c, which one greedy matching of the
    whole forest gives (`_matched`).  One `eigvalsh` of the smaller Gram
    matrix of B per distinct head class then gives the s^2 as its nu_c
    largest eigenvalues (`_singular_values`, which raises RuntimeError when
    they and the others are not split by the bound m * eps * s_max^2, m the
    Gram dimension).  An eigenvalue error of about eps * s_max^2 moves a
    nonzero s by about eps * s_max^2 / (2 s).  A cut leaf is a one-vertex
    component and gives one 0.  The zeros are exactly 0, n + 1 - 2 nu of
    them as `zero_atom` counts, and the returned spectrum is exactly
    symmetric about 0.
    """
    n = tree.n
    if n > SPECTRUM_SIZE_CAP:
        raise ValueError(f"tree size {n} exceeds spectrum size cap {SPECTRUM_SIZE_CAP}")
    parent = tree.parent
    classes = np.array(_classes(parent.tolist())[0])
    _, first, twins = np.unique(
        parent[1:] * (int(classes.max()) + 1) + classes[1:], return_index=True, return_counts=True
    )
    first += 1
    head = np.ones(n + 1, dtype=bool)  # the root and the cut children
    head[first] = False
    weight = np.ones(n + 1)  # of the edge from a vertex up to its parent
    weight[first] = np.sqrt(twins)
    matched = _matched(np.where(head, -1, parent))  # in the forest of components
    # each vertex's head, the nearest head among itself and its ancestors
    top = np.where(head, np.arange(n + 1), parent)
    while not head[top].all():
        top = top[top]
    # depth parity by pointer jumping: each round doubles the hop length
    odd = parent >= 0
    up = np.maximum(parent, 0)
    while up.any():
        odd ^= odd[up]
        up = up[up]
    heads = np.flatnonzero(head)
    _, rep, copies = np.unique(classes[heads], return_index=True, return_counts=True)
    order = np.argsort(top, kind="stable")  # components in turn, each in vertex order, head first
    begin = np.searchsorted(top[order], heads[rep])
    end = np.searchsorted(top[order], heads[rep], "right")
    index = np.empty(n + 1, dtype=np.int64)  # a vertex's row or column in its component's B
    values = [np.zeros(0)]
    for a, b, c in zip(begin.tolist(), end.tolist(), copies.tolist()):
        if b - a < 2:
            continue
        members = order[a:b]
        flip = odd[members]
        evens, odds = members[~flip], members[flip]
        index[evens] = np.arange(evens.size)
        index[odds] = np.arange(odds.size)
        child, flip = members[1:], flip[1:]
        above = parent[child]
        block = np.zeros((evens.size, odds.size))
        block[index[np.where(flip, above, child)], index[np.where(flip, child, above)]] = weight[child]
        rank = int(np.count_nonzero(matched[members]))
        values.append(np.tile(_singular_values(block, rank), c))
    s = np.sort(np.concatenate(values))
    # every s is positive, so the mirrored half is exactly -s and the zeros are +0.0
    return SpectrumResult(eigenvalues=np.concatenate((0.0 - s[::-1], np.zeros(n + 1 - 2 * s.size), s)))
