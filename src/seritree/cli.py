"""Command-line front end.

Subcommands run the growth / limit / analysis pipelines with deterministic
seeding and write CSV/JSON artifacts plus one run manifest per invocation.
All randomized output is a pure function of (flags, seed); the worker count
(``--workers`` or the SERI_THREADS environment variable) never changes
results because replica streams are indexed and reduced in a fixed order.

Exit codes: 0 success, 1 check failure, 2 usage/validation error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional

from . import __version__, analysis, growth, limits, serialize, treeops
from .rng import CounterRng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE_CAP = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _validate(args) -> None:
    """Range checks that argparse's type checks leave to the commands."""
    if not hasattr(args, "delta"):
        return
    if not args.delta > -1:
        raise CliError(f"--delta must be > -1, got {args.delta}")
    if not 0 <= args.seed < 1 << 64:
        raise CliError("--seed must fit in 64 unsigned bits")
    for flag in ("n", "reps", "seeds"):
        if getattr(args, flag, 1) < 1:
            raise CliError(f"--{flag} must be >= 1, got {getattr(args, flag)}")


def _workers(flag_value: int) -> int:
    if flag_value:
        return flag_value
    env = os.environ.get("SERI_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise CliError(f"SERI_THREADS must be an integer, got {env!r}") from None


def _convention(args) -> str:
    return args.convention.replace("-", "_")


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
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    serialize.RunManifest(
        command=args.command, delta=args.delta, seed=args.seed, convention=_convention(args),
        n=getattr(args, "n", None), reps=getattr(args, "reps", None) if reps is None else reps,
    ).write(out / "manifest.json")
    return EXIT_OK if report is None or report["pass"] else EXIT_CHECK_FAILED


def cmd_grow(args) -> int:
    checkpoints = _parse_checkpoints(args.checkpoints, args.n)
    tree, snaps = _grow(args, checkpoints)
    if args.format == "csv":
        files = {"tree.csv": partial(serialize.write_tree_csv, tree)}
    else:
        files = {"tree.bin": partial(serialize.write_tree_binary, tree)}
    if snaps:
        files["checkpoints.csv"] = partial(serialize.write_checkpoints_csv, snaps)
        files["tracked.csv"] = partial(serialize.write_tracked_csv, snaps)
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
    }, {"pmf.csv": partial(serialize.write_pmf_csv, pmf)})


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
        "stderr": 0.0,
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
    checkpoints = _parse_checkpoints(args.checkpoints, args.n) or (
        args.n // 1000, args.n // 100, args.n // 10, args.n,
    )
    workers = _workers(args.workers)
    try:
        fit = analysis.fit_degree_growth(
            args.delta, args.vertex, checkpoints, args.seeds,
            master_seed=args.seed, convention=_convention(args), workers=workers,
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


def cmd_fringe_compare(args) -> int:
    tree, _ = _grow(args)
    empirical = treeops.empirical_fringe_distribution(tree, truncation=args.max_size)
    rng = CounterRng(args.seed).spawn(1)
    counts: dict[str, int] = {}
    other = 0
    for _ in range(args.reps):
        key = treeops.bp_fringe_sample(args.delta, rng)
        if treeops.key_size(key) > args.max_size:
            other += 1
        else:
            counts[key] = counts.get(key, 0) + 1
    simulated = treeops.FringeHistogram(
        counts=counts, other=other, total=args.reps, truncation=args.max_size,
    )
    tv, chi2, p_value = analysis.compare_distributions(empirical, simulated)
    return _finish(args, {
        "tv_distance": tv,
        "chi_square": chi2,
        "p_value": p_value,
        "stderr": 0.0,
        "target": 0.0,
        "tolerance": args.tolerance,
        "pass": tv <= args.tolerance,
    }, {
        "fringe_empirical.csv": partial(serialize.write_histogram_csv, empirical),
        "fringe_bp.csv": partial(serialize.write_histogram_csv, simulated),
    })


def cmd_spectrum(args) -> int:
    if args.n > analysis.SPECTRUM_SIZE_CAP:
        raise CliError(
            f"tree size {args.n} exceeds dense-spectrum cap {analysis.SPECTRUM_SIZE_CAP}",
            code=EXIT_RESOURCE_CAP,
        )
    tree, _ = _grow(args)
    spec = analysis.adjacency_spectrum(tree)
    eig = spec.eigenvalues
    trace = float(eig.sum())
    sumsq_err = abs(float((eig**2).sum()) - 2.0 * tree.n)
    return _finish(args, {
        "n_eigenvalues": int(eig.size),
        "trace": trace,
        "sum_squares_error": sumsq_err,
        "atom_mass_at_zero": analysis.atom_mass_at_zero(spec),
        "stderr": 0.0,
        "target": 0.0,
        "tolerance": args.tolerance,
        "pass": abs(trace) <= args.tolerance and sumsq_err <= args.tolerance,
    }, {"spectrum.csv": partial(serialize.write_spectrum_csv, eig)})


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
    rng = CounterRng(args.seed)
    worst = 0.0
    for _ in range(args.reps):
        tree = limits.random_marked_tree(rng, max_vertices=5)
        d1 = limits.limit_neighborhood_density(tree, args.delta, form="discrete_limit")
        d2 = limits.limit_neighborhood_density(tree, args.delta, form="hazard_product")
        worst = max(worst, abs(d1 - d2) / max(1.0, abs(d1)))
    return _finish(args, {
        "max_form_gap": worst,
        "discrete_limit_rel_gap": rel_gap,
        "stderr": 0.0,
        "target": 0.0,
        "tolerance": args.tolerance,
        "pass": worst <= args.tolerance and rel_gap <= 0.05,
    })


def cmd_selftest(args) -> int:
    """Fast internal consistency checks; exit 0 only if every row passes."""
    rows = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"error: {exc}"
        rows.append((name, ok, detail))

    def check_sampler_equivalence():
        from fractions import Fraction

        worst = None
        for delta in (Fraction(0), Fraction(1), Fraction(5, 2)):
            for n in range(1, 7):
                for hist in growth.enumerate_histories(n):
                    tree = growth.TreeRecord.from_parents(hist, delta)
                    for conv in ("exact", "paper_total"):
                        a = growth.attach_probabilities(tree, conv)
                        b = growth.token_probability_vector(tree, conv)
                        if a != b:
                            worst = (delta, conv, hist)
        return worst is None, "exhaustive n <= 6" if worst is None else f"mismatch at {worst}"

    def check_density_duality():
        rng = CounterRng(20240)
        worst = 0.0
        for _ in range(200):
            tree = limits.random_marked_tree(rng, max_vertices=5)
            d1 = limits.limit_neighborhood_density(tree, 0.0, form="discrete_limit")
            d2 = limits.limit_neighborhood_density(tree, 0.0, form="hazard_product")
            worst = max(worst, abs(d1 - d2) / max(1.0, abs(d1)))
        return worst <= 1e-10, f"max gap {worst:.2e}"

    def check_malthusian():
        from scipy import integrate as _integrate

        worst = 0.0
        for delta in (-0.5, 0.0, 1.0, 2.0, 5.0):
            lam = limits.exponents(delta).lam
            horizon = max(60.0, 45.0 / lam)  # tail mass (c/lam) e^(-lam T) << 1e-12
            val, _ = _integrate.quad(
                lambda t: math.exp(-lam * t) * limits.rate_nonroot(t, delta), 0.0, horizon,
                epsabs=1e-13, epsrel=1e-13, limit=400,
            )
            worst = max(worst, abs(val - 1.0))
        return worst <= 1e-10, f"max |integral - 1| = {worst:.2e}"

    run("sampler-equivalence (exhaustive n<=6)", check_sampler_equivalence)
    run("density-duality (200 marked trees)", check_density_duality)
    run("malthusian-identity (delta grid)", check_malthusian)

    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seritree",
        description="Simulate and validate self-reinforced preferential attachment trees.",
    )
    parser.add_argument("--version", action="version", version=f"seritree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reps_default=None, needs_n=False):
        p.add_argument("--delta", type=float, required=True, help="affine offset, > -1 (no default)")
        p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
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
    add_common(p, reps_default=100000)
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
    p.add_argument("--workers", type=int, default=0, help="0 = use SERI_THREADS or 1")
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
