"""Command-line front end.

Subcommands run the growth / limit / analysis pipelines with deterministic
seeding.  Each run's files, its ``report.json`` and its ``manifest.json``
(the flags, timestamp and tool version) are written by ``_finish`` alone.
Each command builds its CSV tables' rows from its results, before
``_finish`` makes the output directory, and ``serialize.write_table``
writes them.  All randomized output is a pure function of (flags, seed):
``growth`` runs its replica seeds one after another in this process, each
on the stream indexed by its replica number, and reduces them in that
order.  ``selftest`` runs the checks listed in ``SELFTEST_ROWS``, each a
function that returns ``(ok, detail)``.

Exit codes: 0 success, 1 check failure, 2 usage/validation error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, analysis, growth, limits, serialize, treeops
from .rng import CounterRng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE_CAP = 3

MANIFEST_FORMAT_VERSION = "1"


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _validate(args) -> None:
    """Range checks that argparse's type checks leave to the commands."""
    if not hasattr(args, "delta"):
        return
    if not -1 < args.delta < math.inf:
        raise CliError(f"--delta must be finite and > -1, got {args.delta}")
    if not 0 <= args.seed < 1 << 64:
        raise CliError("--seed must fit in 64 unsigned bits")
    if hasattr(args, "convention"):  # limit-pmf's limit law takes no convention
        try:
            growth._check_convention(args.delta, _convention(args))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    for flag, low in (("n", 1), ("reps", 1), ("seeds", 1), ("max_size", 1), ("vertex", 0)):
        if getattr(args, flag, low) < low:
            raise CliError(f"--{flag.replace('_', '-')} must be >= {low}, got {getattr(args, flag)}")
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not tolerance >= 0:  # NaN fails this too
        raise CliError(f"--tolerance must be >= 0, got {tolerance}")


def _convention(args) -> Optional[str]:
    return args.convention.replace("-", "_") if hasattr(args, "convention") else None


def _grow(args, checkpoints=()) -> tuple[growth.TreeRecord, list]:
    try:
        params = growth.GrowthParams(
            delta=args.delta, n_final=args.n, seed=args.seed, convention=_convention(args)
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return growth.grow(params, checkpoints=checkpoints, track_vertices=(0, 1))


def _finish(args, report: Optional[dict] = None, files: Optional[dict] = None, reps=None) -> int:
    """Write a run's files, report.json and manifest.json; return the exit code.

    The out dir is made only here, once every input has passed and every
    result exists, so a rejected run leaves nothing behind.  `files` maps
    file names to writers that take the path.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in (files or {}).items():
        write(out / name)
    if report is not None:
        report = {"command": args.command, **report}
    manifest = {
        "command": args.command,
        "convention": _convention(args),
        "delta": args.delta,
        "format_version": MANIFEST_FORMAT_VERSION,
        "n": getattr(args, "n", None),
        "reps": getattr(args, "reps", None) if reps is None else reps,
        "seed": args.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "tool_version": __version__,
    }
    for name, record in (("report.json", report), ("manifest.json", manifest)):
        if record is not None:
            (out / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report is None or report["pass"] else EXIT_CHECK_FAILED


def cmd_grow(args) -> int:
    checkpoints = _parse_checkpoints(args.checkpoints, args.n)
    tree, snaps = _grow(args, checkpoints)
    if args.format == "csv":
        files = {"tree.csv": partial(serialize.write_tree_csv, tree)}
    else:
        files = {"tree.bin": partial(serialize.write_tree_binary, tree)}
    if snaps:
        files["checkpoints.csv"] = partial(serialize.write_table, header=["n", "degree", "count"], rows=[
            [snap.n, k, snap.degree_counts[k]] for snap in snaps for k in sorted(snap.degree_counts)
        ])
        files["tracked.csv"] = partial(serialize.write_table, header=["n", "vertex", "degree"], rows=[
            [snap.n, v, snap.tracked_degrees[v]] for snap in snaps for v in sorted(snap.tracked_degrees)
        ])
    return _finish(args, files=files)


def _parse_checkpoints(raw: str, n_final: int):
    if not raw:
        return ()
    try:
        cps = sorted(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise CliError(f"bad checkpoint list {raw!r}") from exc
    if cps and (cps[0] < 1 or cps[-1] > n_final):
        raise CliError("checkpoints must lie in [1, n]")
    return cps


def cmd_limit_pmf(args) -> int:
    pmf = limits.limit_degree_pmf(args.delta, args.reps, CounterRng(args.seed))
    target = limits.p1_quadrature(args.delta)
    estimate = pmf.p.get(1, 0.0)
    stderr = pmf.stderr.get(1, 0.0)
    tolerance = args.tolerance if args.tolerance is not None else 3.0 * stderr
    return _finish(args, {
        "p1_estimate": estimate,
        "stderr": stderr,
        "target": target,
        "tolerance": tolerance,
        "pass": abs(estimate - target) <= tolerance,
    }, {"pmf.csv": partial(serialize.write_table, header=["k", "probability", "stderr"], rows=[
        [k, repr(pmf.p[k]), repr(pmf.stderr.get(k, 0.0))] for k in sorted(pmf.p)
    ])})


def cmd_tail(args) -> int:
    tree, _ = _grow(args)
    try:
        fits = analysis.tail_window_sensitivity(analysis.tail_ccdf(tree), n_samples=tree.n + 1)
    except ValueError as exc:
        raise CliError(f"--n {args.n} is too small for a tail fit: {exc}") from exc
    fit = fits[0]
    target = -limits.exponents(args.delta).phi
    return _finish(args, {
        "slope": fit.slope,
        "stderr": None,  # no error is estimated; "sensitivity" shows the spread
        "target": target,
        "tolerance": args.tolerance,
        "pass": abs(fit.slope - target) <= args.tolerance,
        "window": [fit.k_min, fit.k_max],
        "r_squared": fit.r_squared,
        "sensitivity": [
            {"window": [f.k_min, f.k_max], "slope": f.slope, "r_squared": f.r_squared}
            for f in fits
        ],
    })


def cmd_growth_fit(args) -> int:
    checkpoints = _parse_checkpoints(args.checkpoints, args.n)
    if not checkpoints and args.n < 1000:
        raise CliError(f"--n {args.n} is below 1000, so the default first checkpoint n // 1000 is 0")
    checkpoints = checkpoints or (args.n // 1000, args.n // 100, args.n // 10, args.n)
    try:
        fit = analysis.fit_degree_growth(
            args.delta, args.vertex, checkpoints, args.seeds,
            master_seed=args.seed, convention=_convention(args),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    target = limits.exponents(args.delta).lam
    return _finish(args, {
        "slope": fit.slope,
        "stderr": fit.stderr,
        "target": target,
        "tolerance": args.tolerance,
        "pass": abs(fit.slope - target) <= args.tolerance,
        "vertex": fit.vertex,
        "checkpoints": fit.checkpoints,
        "per_seed_slopes": fit.per_seed_slopes,
    }, reps=args.seeds)


def _histogram_table(hist: treeops.FringeHistogram):
    """Writer of a fringe histogram's table: each key in order, then (other) if any fringe fell there."""
    rows = [[key, count, repr(count / hist.total)] for key, count in sorted(hist.counts.items())]
    if hist.other:
        rows.append([treeops.OTHER_KEY, hist.other, repr(hist.other / hist.total)])
    return partial(serialize.write_table, header=["key", "count", "frequency"], rows=rows)


def cmd_fringe_compare(args) -> int:
    if args.max_size >= limits.NODE_CAP:
        raise CliError(
            f"--max-size {args.max_size} reaches the node cap {limits.NODE_CAP}", code=EXIT_RESOURCE_CAP
        )
    tree, _ = _grow(args)
    empirical = treeops.empirical_fringe_distribution(tree, truncation=args.max_size)
    rng = CounterRng(args.seed).spawn(1)
    # a genealogy only grows, so one past max_size nodes is (other) already
    cap = args.max_size + 1
    counts: dict[str, int] = {}
    other = 0
    for _ in range(args.reps):
        try:
            bp = limits.sample_memory_bp(args.delta, rng, exp1=True, max_nodes=cap)
        except limits.NodeCapExceeded:
            bp = None
        if bp is None or bp.size == cap:
            other += 1
        else:
            key = treeops.fringe(bp)
            counts[key] = counts.get(key, 0) + 1
    simulated = treeops.FringeHistogram(
        counts=counts, other=other, total=args.reps, truncation=args.max_size,
    )
    tv, chi2, p_value = analysis.compare_distributions(empirical, simulated)
    return _finish(args, {
        "tv_distance": tv,
        "chi_square": chi2,
        "p_value": p_value,
        "stderr": None,
        "target": 0.0,
        "tolerance": args.tolerance,
        "pass": tv <= args.tolerance,
    }, {
        "fringe_empirical.csv": _histogram_table(empirical),
        "fringe_bp.csv": _histogram_table(simulated),
    })


def cmd_spectrum(args) -> int:
    if args.n > analysis.SPECTRUM_SIZE_CAP:
        raise CliError(
            f"tree size {args.n} exceeds spectrum size cap {analysis.SPECTRUM_SIZE_CAP}",
            code=EXIT_RESOURCE_CAP,
        )
    tree, _ = _grow(args)
    eig = analysis.adjacency_spectrum(tree).eigenvalues
    trace = float(eig.sum())
    sumsq_err = abs(float((eig**2).sum()) - 2.0 * tree.n)
    return _finish(args, {
        "n_eigenvalues": int(eig.size),
        "trace": trace,
        "sum_squares_error": sumsq_err,
        "atom_mass_at_zero": analysis.zero_atom(tree) / (tree.n + 1),
        "stderr": None,
        "target": 0.0,
        "tolerance": args.tolerance,
        "pass": abs(trace) <= args.tolerance and sumsq_err <= args.tolerance,
    }, {"spectrum.csv": partial(serialize.write_table, header=["eigenvalue"], rows=[
        [repr(v)] for v in eig.tolist()
    ])})


def cmd_localcheck(args) -> int:
    # discrete-to-limit spot check on a fixed two-vertex neighborhood
    two = limits.MarkedTree(parents=(None, 0), marks=(0.35, 0.7))
    n = args.n
    try:
        logp = limits.marked_neighborhood_log_prob(n, two.with_times(n), args.delta, _convention(args))
    except ValueError as exc:
        raise CliError(f"--n {n} is too small for the discrete check: {exc}") from exc
    dens = limits.limit_neighborhood_density(two, args.delta)
    rel_gap = abs(n ** two.size * math.exp(logp) / n - dens) / dens
    worst = _max_form_gap(args.delta, args.reps, CounterRng(args.seed))
    return _finish(args, {
        "max_form_gap": worst,
        "discrete_limit_rel_gap": rel_gap,
        "stderr": None,
        "target": 0.0,
        "tolerance": args.tolerance,
        "pass": worst <= args.tolerance and rel_gap <= 0.05,
    })


def _max_form_gap(delta: float, reps: int, rng: CounterRng) -> float:
    """Largest gap between the two closed forms of the local-limit density.

    Over `reps` random marked trees of at most 5 vertices, the gap of the
    product-form and hazard-form densities, relative to the first one where
    it exceeds 1.
    """
    worst = 0.0
    for _ in range(reps):
        tree = limits.random_marked_tree(rng, max_vertices=5)
        d1 = limits._density_product_form(tree, delta)
        d2 = limits._density_hazard_form(tree, delta)
        worst = max(worst, abs(d1 - d2) / max(1.0, abs(d1)))
    return worst


def _check_sampler_equivalence() -> tuple[bool, str]:
    # every draw below the bound, through the blocked sampler's target map
    for delta in (Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(5, 2)):
        for n in range(1, 7):
            for hist in growth.enumerate_histories(n):
                tree = growth.TreeRecord.from_parents(hist)
                for conv in ("exact", "paper_total"):
                    counts = growth.token_counts(tree, delta, conv)
                    bound = growth.token_bound(delta, n + 1, conv)
                    if [Fraction(int(c), bound) for c in counts] != growth.attach_probabilities(tree, delta, conv):
                        return False, f"mismatch at {(delta, conv, hist)}"
    return True, "exhaustive n <= 6"


def _check_spectrum_vs_dense() -> tuple[bool, str]:
    # the spectrum within 1e-10 of a dense eigvalsh, and `zero_atom` equal to
    # the number of dense eigenvalues within 1e-8 of 0
    worst = 0.0
    for n in range(1, 7):
        for hist in growth.enumerate_histories(n):
            tree = growth.TreeRecord.from_parents(hist)
            a = np.zeros((n + 1, n + 1))
            a[np.arange(1, n + 1), hist] = 1.0
            dense = np.linalg.eigvalsh(a + a.T)
            eig = analysis.adjacency_spectrum(tree).eigenvalues
            if eig.shape != dense.shape:
                return False, f"{eig.size} eigenvalues, not {dense.size}, at {hist}"
            atom, zeros = analysis.zero_atom(tree), int(np.count_nonzero(np.abs(dense) <= 1e-8))
            if atom != zeros:
                return False, f"zero_atom {atom}, not the {zeros} dense zeros, at {hist}"
            worst = max(worst, float(np.max(np.abs(eig - dense))))
    return worst <= 1e-10, f"max |eig - dense| = {worst:.2e}"


def _check_fringe_histogram() -> tuple[bool, str]:
    # counts vertex by vertex from one `extended_fringes` call per tree and k;
    # the parts of a decomposition partition its k-th ancestor's fringe, so
    # their sizes sum to that fringe's, and truncation 4 sends the root of
    # every tree of 5 or more vertices to (other)
    truncation = 4
    for n in range(1, 7):
        for hist in growth.enumerate_histories(n):
            tree = growth.TreeRecord.from_parents(hist)
            for k in (0, 1, 2):
                counts: dict[str, int] = {}
                other = 0
                decompositions = treeops.extended_fringes(tree, k)
                for parts in decompositions.values():
                    if sum(map(treeops.key_size, parts)) > truncation:
                        other += 1
                    else:
                        key = "|".join(parts)
                        counts[key] = counts.get(key, 0) + 1
                got = treeops.empirical_fringe_distribution(tree, k=k, truncation=truncation)
                if (got.counts, got.other, got.total) != (counts, other, len(decompositions)):
                    return False, f"mismatch at k={k}, {hist}"
    return True, "k in {0, 1, 2}, truncation 4"


def _check_density_duality() -> tuple[bool, str]:
    worst = _max_form_gap(0.0, 200, CounterRng(20240))
    return worst <= 1e-10, f"max gap {worst:.2e}"


def _check_malthusian() -> tuple[bool, str]:
    # int_0^inf e^(-lam t) rate(t) dt by 120-node Gauss-Laguerre in x = lam t
    nodes, weights = np.polynomial.laguerre.laggauss(120)
    worst = 0.0
    for delta in (-0.5, 0.0, 1.0, 2.0, 5.0):
        lam = limits.exponents(delta).lam
        val = math.fsum(
            w * limits.rate_nonroot(x / lam, delta) for x, w in zip(nodes.tolist(), weights.tolist())
        ) / lam
        worst = max(worst, abs(val - 1.0))
    return worst <= 1e-10, f"max |integral - 1| = {worst:.2e}"


SELFTEST_ROWS = (
    ("sampler-equivalence (exhaustive n<=6)", _check_sampler_equivalence),
    ("spectrum-vs-dense (exhaustive n<=6)", _check_spectrum_vs_dense),
    ("fringe-histogram-vs-per-vertex (exhaustive n<=6)", _check_fringe_histogram),
    ("density-duality (200 marked trees)", _check_density_duality),
    ("malthusian-identity (delta grid)", _check_malthusian),
)


def cmd_selftest(args) -> int:
    """Fast internal consistency checks; exit 0 only if every row passes."""
    width = max(len(name) for name, _ in SELFTEST_ROWS)
    all_ok = True
    for name, check in SELFTEST_ROWS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"error: {exc}"
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seritree",
        description="Simulate and validate self-reinforced preferential attachment trees.",
    )
    parser.add_argument("--version", action="version", version=f"seritree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reps_default=None, needs_n=False, convention=True):
        p.add_argument("--delta", type=float, required=True, help="affine offset, > -1 (no default)")
        p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
        if convention:
            p.add_argument("--convention", choices=["exact", "paper-total"], default="exact")
        p.add_argument("--out", default=".", help="output directory")
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="number of growth steps")
        if reps_default is not None:
            p.add_argument("--reps", type=int, default=reps_default)

    p = sub.add_parser("grow", help="grow one tree and write it out")
    add_common(p, needs_n=True)
    p.add_argument("--checkpoints", default="", help="comma-separated checkpoint times")
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    p.set_defaults(func=cmd_grow)

    p = sub.add_parser("limit-pmf", help="Monte Carlo limiting degree pmf")
    add_common(p, reps_default=100000, convention=False)
    p.add_argument("--tolerance", type=float, default=None,
                   help="pass band around the quadrature target (default 3 sigma)")
    p.set_defaults(func=cmd_limit_pmf)

    p = sub.add_parser("tail", help="tail-exponent fit on a grown tree")
    add_common(p, needs_n=True)
    p.add_argument("--tolerance", type=float, default=0.15)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("growth", help="degree-growth exponent across seeds")
    add_common(p, needs_n=True)
    p.add_argument("--vertex", type=int, default=1)
    p.add_argument("--seeds", type=int, default=20, help="number of replica seeds")
    p.add_argument("--checkpoints", default="", help="comma-separated checkpoint times")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.set_defaults(func=cmd_growth_fit)

    p = sub.add_parser("fringe-compare", help="empirical fringes vs branching-process law")
    add_common(p, reps_default=100000, needs_n=True)
    p.add_argument("--max-size", type=int, default=4, dest="max_size")
    p.add_argument("--tolerance", type=float, default=0.02)
    p.set_defaults(func=cmd_fringe_compare)

    p = sub.add_parser("spectrum", help="adjacency spectrum of a grown tree")
    add_common(p, needs_n=True)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("localcheck", help="marked-neighborhood density cross-checks")
    add_common(p, reps_default=1000)
    p.add_argument("--n", type=int, default=10000, help="horizon for the discrete comparison")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.set_defaults(func=cmd_localcheck)

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        code = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except limits.NodeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    return code


if __name__ == "__main__":
    sys.exit(main())
