"""Statistical post-processing: tails, growth fits, distances, spectra.

Everything here consumes immutable simulation output (degree pmfs, fringe
histograms, grown trees) and produces plain fit/report objects, so the
functions parallelize trivially at the replica level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy import stats

from .growth import GrowthParams, TreeRecord, grow
from .limits import DegreePMF, exponents
from .rng import CounterRng
from .treeops import FringeHistogram

SPECTRUM_SIZE_CAP = 2048


def tail_ccdf(source: Union[DegreePMF, Sequence[int], TreeRecord]) -> list[tuple[int, float]]:
    """Degree tail P(deg >= k) for k = 1..max, nonincreasing with P(>=1) = 1.

    Count-backed sources (trees, raw degree samples) use exact integer
    arithmetic, so P(>=1) is exactly 1.
    """
    if isinstance(source, DegreePMF):
        pmf = source.p
        ks = sorted(pmf)
        if not ks or ks[0] < 1:
            raise ValueError("degrees must be >= 1")
        out = []
        tail = math.fsum(pmf.values())
        for k in range(1, ks[-1] + 1):
            out.append((k, tail))
            tail -= pmf.get(k, 0.0)
        return out
    degrees = np.asarray(source.degree if isinstance(source, TreeRecord) else source, dtype=np.int64)
    if degrees.size == 0:
        raise ValueError("empty degree sample")
    if degrees.min() < 1:
        raise ValueError("degrees must be >= 1")
    counts = np.bincount(degrees)
    total = degrees.size
    # vertices of degree >= k, for k = 1..max
    tails = total - np.concatenate(([0], np.cumsum(counts[1:-1])))
    return [(k, tail / total) for k, tail in enumerate(tails.tolist(), start=1)]


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


def fit_power_tail(
    ccdf: Sequence[tuple[int, float]],
    n_samples: Optional[int] = None,
    window: Optional[tuple[int, int]] = None,
    min_points: int = 8,
    quantile: float = TAIL_QUANTILE,
) -> TailFit:
    """Least squares on (log k, log P(>=k)) over a tail window.

    Default window policy: k_min is the smallest k with P(>=k) <= `quantile`
    and k_max the largest k with at least 50 tail samples (requires
    `n_samples`).  Pass `window` to override.  At least `min_points` ccdf
    points must fall inside the window.
    """
    pairs = [(k, p) for k, p in ccdf if p > 0]
    if window is not None:
        k_lo, k_hi = window
    else:
        if n_samples is None:
            raise ValueError("n_samples is required for the default window policy")
        k_lo = next((k for k, p in pairs if p <= quantile), None)
        k_hi = max((k for k, p in pairs if p * n_samples >= 50), default=None)
        if k_lo is None or k_hi is None:
            raise ValueError("tail window is empty under the default policy")
    sel = [(k, p) for k, p in pairs if k_lo <= k <= k_hi]
    if len(sel) < min_points:
        raise ValueError(f"window [{k_lo}, {k_hi}] holds {len(sel)} points; need >= {min_points}")
    x = np.log([k for k, _ in sel])
    y = np.log([p for _, p in sel])
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
        n_tail_points=len(sel),
    )


def tail_window_sensitivity(
    ccdf: Sequence[tuple[int, float]], n_samples: int
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


def _track_one_seed(delta, vertex, cps, master_seed, replica, convention):
    """Degrees of `vertex` at the checkpoints for one replica stream."""
    params = GrowthParams(delta=delta, n_final=cps[-1], seed=master_seed, convention=convention)
    rng = CounterRng(master_seed).spawn(replica)
    _, snaps = grow(params, checkpoints=cps, rng=rng, track_vertices=(vertex,))
    return [s.tracked_degrees[vertex] for s in snaps]


def fit_degree_growth(
    delta: float,
    vertex: int,
    checkpoints: Sequence[int],
    n_seeds: int,
    master_seed: int = 0,
    convention: str = "exact",
    workers: int = 1,
) -> GrowthFit:
    """Estimate the degree-growth exponent of a fixed vertex.

    Each seed grows a fresh tree to max(checkpoints) recording the vertex's
    degree at each checkpoint; the per-seed slope of log degree against log n
    is averaged and its spread reported.  Checkpoints must number at least 4
    and span at least 3 decades.  Replica r always uses the stream derived
    from (master_seed, r) and results are reduced in replica order, so the
    outcome is independent of `workers`.
    """
    cps = sorted(checkpoints)
    if len(cps) < 4:
        raise ValueError("need at least 4 checkpoints")
    if math.log10(cps[-1] / cps[0]) < 3:
        raise ValueError("checkpoints must span at least 3 decades")
    if vertex > cps[0]:
        raise ValueError(f"vertex {vertex} not yet born at the first checkpoint")
    log_n = np.log(cps)
    args = [(delta, vertex, cps, master_seed, r, convention) for r in range(n_seeds)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            tracked = list(pool.map(_track_one_seed, *zip(*args)))
    else:
        tracked = [_track_one_seed(*a) for a in args]
    slopes = []
    mean_deg = np.zeros(len(cps))
    for degs_list in tracked:
        degs = np.array(degs_list, dtype=float)
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


def _count_maps(p: Union[DegreePMF, FringeHistogram]) -> tuple[dict, int]:
    if isinstance(p, DegreePMF):
        return {k: round(v * p.n_samples) for k, v in p.p.items()}, p.n_samples
    if isinstance(p, FringeHistogram):
        counts = dict(p.counts)
        if p.other:
            counts["(other)"] = counts.get("(other)", 0) + p.other
        return counts, p.total
    raise TypeError(f"unsupported distribution type {type(p)!r}")


def compare_distributions(
    p: Union[DegreePMF, FringeHistogram],
    q: Union[DegreePMF, FringeHistogram],
    pool_threshold: float = 5.0,
) -> tuple[float, float, float]:
    """Total-variation distance and two-sample chi-square between count data.

    Returns (tv_distance, chi_square_stat, p_value).  TV is half the L1 gap
    of the frequency vectors over the union support.  The chi-square is the
    2 x K homogeneity statistic with bins pooled (smallest expected count
    first) until every pooled bin has expected count >= `pool_threshold`
    in both rows.
    """
    if type(p) is not type(q):
        raise TypeError("distributions must be of the same kind")
    pc, pn = _count_maps(p)
    qc, qn = _count_maps(q)
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
        if expected[:, min_col].min() >= pool_threshold:
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
    p_value = float(stats.chi2.sf(stat, dof))
    return tv, stat, p_value


@dataclass
class SpectrumResult:
    """Sorted adjacency eigenvalues with coarse atom diagnostics."""

    eigenvalues: np.ndarray
    n_vertices: int
    atom_masses: dict[float, float]

    def histogram(self, bins: int = 64) -> tuple[np.ndarray, np.ndarray]:
        return np.histogram(self.eigenvalues, bins=bins)


def adjacency_spectrum(tree: TreeRecord, atom_tol: float = 1e-8) -> SpectrumResult:
    """Eigenvalues of the 0/1 adjacency matrix of a grown tree (dense path).

    Capped at 2048+1 vertices.  Uses the symmetric LAPACK eigensolver, which
    meets every stated tolerance with headroom; eigenvalues are returned
    sorted ascending along with the relative masses of the largest atoms
    (eigenvalues grouped within `atom_tol`).
    """
    n = tree.n
    if n > SPECTRUM_SIZE_CAP:
        raise ValueError(f"tree size {n} exceeds dense-spectrum cap {SPECTRUM_SIZE_CAP}")
    size = n + 1
    a = np.zeros((size, size))
    child = np.arange(1, size)
    a[np.r_[child, tree.parent[1:]], np.r_[tree.parent[1:], child]] = 1.0
    eig = np.linalg.eigvalsh(a)
    atoms: dict[float, int] = {}
    i = 0
    while i < size:
        j = i
        while j + 1 < size and eig[j + 1] - eig[i] <= atom_tol:
            j += 1
        if j > i:
            atoms[float(np.mean(eig[i : j + 1]))] = j - i + 1
        i = j + 1
    top = dict(sorted(atoms.items(), key=lambda kv: -kv[1])[:8])
    return SpectrumResult(
        eigenvalues=eig,
        n_vertices=size,
        atom_masses={v: c / size for v, c in top.items()},
    )


def atom_mass_at_zero(spec: SpectrumResult, tol: float = 1e-8) -> float:
    """Relative multiplicity of the zero eigenvalue."""
    return float(np.mean(np.abs(spec.eigenvalues) <= tol))
