"""The benchmark workloads: inputs, one timed pass, and output checks.

`setup` builds a workload's inputs from the seed. `run` makes one pass in a
closed loop: each call into seritree starts after the previous one returned,
in this process, with SERI_THREADS unset. It checks each output as soon as
it exists, with the pass clock paused, and returns the pass's exact counts
and the sha256 digests of its outputs.

The workloads call the library functions the CLI commands call, with the
seeds the CLI would use, so the CLI's cost is what they measure.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from seritree import (
    CounterRng,
    FringeHistogram,
    GrowthParams,
    adjacency_spectrum,
    bp_fringe_sample,
    compare_distributions,
    empirical_fringe_distribution,
    grow,
    key_size,
    limit_degree_pmf,
    mc_zeta_hat,
    p1_quadrature,
    sample_edge_bp,
    tail_ccdf,
    tail_window_sensitivity,
    yule_marked_ensemble,
)
from seritree import serialize

from tracing import pass_children, self_time

FULL = {
    "grow_n": 10**6,
    "checkpoints": (10**3, 10**4, 10**5, 10**6),
    "spectrum_n": 2048,
    "fringe_n": 10**5,
    # The pmf and the fringe samples are heavy-tailed in cost, so the seed,
    # not the program, would set the pass time at the CLI's 1e5 reps. A pmf
    # replica with k arrivals costs O(k^2), and a fringe realization costs
    # about its size; both sizes have power-law tails, and at 5e4 pmf reps
    # 2 seeds in 257 took 35-40 s in the pmf alone. At these counts a seed
    # has a chance of about 1e-4 of a pass over 150 s (perfbench/README.md).
    "pmf_reps": 1000,
    "zeta_reps": 10**5,
    "bp_reps": 400,
    # 1000 replicas to t = 8 keep the lockstep cost in the per-replica bulk;
    # to t = 9 with 500, the fastest replica set it, and with it the seed
    "yule_reps": 1000,
    "yule_grid": tuple(6.0 + 0.5 * i for i in range(5)),
    "edge_reps": 3 * 10**4,
    "rng_draws": 10**6,
}
# The default tail-fit window needs about 1e5 vertices, so smoke mode keeps
# the growths at 1e5 and shrinks everything else.
SMOKE = {
    "grow_n": 10**5,
    "checkpoints": (10**3, 10**4, 10**5),
    "spectrum_n": 256,
    "fringe_n": 10**3,
    "pmf_reps": 10**3,
    "zeta_reps": 10**3,
    "bp_reps": 200,
    "yule_reps": 100,
    "yule_grid": (2.0, 2.5, 3.0),
    "edge_reps": 300,
    "rng_draws": 10**4,
}

# (label, delta, convention): the integer-token path, the float-token path,
# and the negative-delta path with v0 thinning
GROW_PATHS = (("int", 0.0, "exact"), ("float", 0.3, "paper_total"), ("thin", -0.5, "exact"))
FRINGE_TRUNCATION = 4  # the fringe-compare default
E_MINUS_2 = math.e - 2  # limiting leaf frequency at delta = 0

# Spans whose summed duration per pass is reported as "<name>_s".
TIMED_SPANS = (
    "serialize.write_bin",
    "serialize.write_csv",
    "serialize.read_bin",
    "serialize.read_csv",
    "analysis.tail",
    "analysis.spectrum",
    "analysis.compare",
    "treeops.fringe_k0",
    "treeops.fringe_k2",
    "treeops.bp_fringe",
    "limits.degree_pmf",
    "limits.zeta",
    "limits.yule",
    "limits.edge_bp",
)
COUNTS = (
    "rng.int.words",
    "rng.float.words",
    "rng.thin.words",
    "rng.words",
    "treeops.distinct_keys",
    "limits.arrivals",
    "limits.edge_bp_nodes",
    "treeops.bp_nodes",
    "treeops.bp_nodes_max",
)
# (name, unit, better) of every per-layer metric. A workload that does not
# exercise a layer reports 0 for it.
PER_LAYER = (
    [(f"{name}_s", "s", "lower") for name in TIMED_SPANS]
    + [(f"growth.{label}.steps_per_s", "1/s", "higher") for label, _, _ in GROW_PATHS]
    + [("rng.u64_per_s", "1/s", "higher"), ("rng.randbelow_per_s", "1/s", "higher")]
    + [(name, "count", "lower") for name in COUNTS]
    + [
        ("rng.thin.words_per_step", "words/step", "lower"),
        ("treeops.bp_slowest1pct_share", "ratio", "lower"),
        ("bench.self_s", "s", "lower"),
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
    ]
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(values, dtype: str) -> str:
    return sha256(np.ascontiguousarray(values, dtype=dtype).tobytes())


def histogram_digest(hist: FringeHistogram) -> str:
    return sha256(json.dumps([sorted(hist.counts.items()), hist.other, hist.total]).encode())


def warm_blas() -> None:
    """First LAPACK calls pay one-off set-up; make them before any pass."""
    x = np.linspace(1.0, 2.0, 64)
    np.polyfit(x, 2.0 * x, 1)
    np.linalg.eigvalsh(np.eye(64))


def tail_fits(tree):
    """The `tail` command's analysis: ccdf plus the window-sensitivity fits."""
    return tail_window_sensitivity(tail_ccdf(tree), n_samples=tree.n + 1)


def tree_checks(tree, snapshots=()):
    """Structural checks of a grown tree; returns (checks, parent array)."""
    parent = np.asarray(tree.parent, dtype=np.int64)
    n = len(parent) - 1
    valid = bool(np.all((parent[1:] >= 0) & (parent[1:] < np.arange(1, n + 1))))
    checks = [
        (valid, "parent[m] < m violated"),
        (int(np.sum(tree.degree)) == 2 * n, "degree sum is not 2n"),
    ]
    if valid:
        degree = np.bincount(parent[1:], minlength=n + 1)
        degree[1:] += 1
        checks.append((np.array_equal(degree, tree.degree), "degrees disagree with the parents"))
    for snap in snapshots:
        checks.append(
            (sum(snap.degree_counts.values()) == snap.n + 1, f"checkpoint {snap.n}: counts do not sum to m+1")
        )
    return checks, parent


def tail_checks(fits):
    ok = bool(fits) and all(math.isfinite(f.slope) and f.slope < 0 for f in fits)
    return [(ok, "tail slopes must be finite and negative")]


def histogram_checks(hist: FringeHistogram, vertices: int):
    return [
        (sum(hist.counts.values()) + hist.other == hist.total, "counts + other != total"),
        (hist.total + hist.excluded_shallow == vertices, "histogram does not cover every vertex"),
    ]


def leaf_check(hist: FringeHistogram, target: float):
    """Leaf frequency within max(0.01, 5 sigma) of its limit."""
    band = max(0.01, 5.0 * math.sqrt(target * (1.0 - target) / hist.total))
    freq = hist.frequency("()")
    return (abs(freq - target) <= band, f"leaf frequency {freq:.5f} is not within {band:.4f} of {target:.5f}")


class Workload:
    """Common set-up state: the seed, the sizes and a private work directory.

    `run(rec)` makes one pass, checks each output under `rec.paused()` as
    soon as it exists, and returns the pass's (counts, digests).
    """

    def __init__(self, seed: int, sizes: dict, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        warm_blas()

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class GrowWorkload(Workload):
    """Grow, write, read back and scan trees of n vertices.

    Three growths, one per sampler path, each with its tail fit. The
    integer-path tree is written in binary and in CSV, read back in both
    formats, and its k = 0 and k = 2 fringe histograms are taken from the
    binary copy. Last, the spectrum of a small tree grown in set-up.
    """

    def setup(self) -> None:
        super().setup()
        self.params = {
            label: GrowthParams(delta=delta, n_final=self.sizes["grow_n"], seed=self.seed, convention=conv)
            for label, delta, conv in GROW_PATHS
        }
        self.small, _ = grow(GrowthParams(delta=0.0, n_final=self.sizes["spectrum_n"], seed=self.seed))
        # the first eigvalsh at this size is several times slower than later ones
        adjacency_spectrum(self.small)

    def run(self, rec):
        counts, digests = {"treeops.distinct_keys": 0}, {}
        for label, _, _ in GROW_PATHS:
            rng = CounterRng(self.seed)  # the stream `seritree grow --seed` uses
            grown = rec.call(
                f"growth.{label}", grow, self.params[label],
                checkpoints=self.sizes["checkpoints"], rng=rng, track_vertices=(0, 1),
            )
            if grown is None:
                continue
            tree, snapshots = grown
            with rec.paused():
                checks, parent = tree_checks(tree, snapshots)
                checks.append((len(snapshots) == len(self.sizes["checkpoints"]), "a checkpoint is missing"))
                checks.append(
                    (all(set(s.tracked_degrees) == {0, 1} for s in snapshots), "tracked degrees are missing")
                )
                rec.verify(f"growth.{label}", checks)
                counts[f"rng.{label}.words"] = rng.counter
                digests[f"growth.{label}.parents"] = array_digest(parent, "<i8")
            fits = rec.call("analysis.tail", tail_fits, tree)
            if fits is not None:
                with rec.paused():
                    rec.verify("analysis.tail", tail_checks(fits))
            if label == "int":
                self.write_read_scan(rec, tree, parent, counts, digests)
            # free this tree before the next growth, as a CLI process would
            grown = tree = snapshots = parent = None
        spec = rec.call("analysis.spectrum", adjacency_spectrum, self.small)
        if spec is not None:
            with rec.paused():
                eig = spec.eigenvalues
                n = self.sizes["spectrum_n"]
                rec.verify("analysis.spectrum", [
                    (abs(float(eig.sum())) <= 1e-6, "eigenvalues do not sum to 0"),
                    (abs(float((eig**2).sum()) - 2.0 * n) <= 1e-6, "squared eigenvalues do not sum to 2n"),
                ])
        counts["rng.words"] = sum(v for name, v in counts.items() if name.endswith(".words"))
        counts["rng.thin.words_per_step"] = counts.get("rng.thin.words", 0) / (self.sizes["grow_n"] - 1)
        return counts, digests

    def write_read_scan(self, rec, tree, parent, counts, digests) -> None:
        """Write the tree in both formats, read both back, scan the fringes."""
        scanned = None
        for fmt, write, read in (
            ("bin", serialize.write_tree_binary, serialize.read_tree_binary),
            ("csv", serialize.write_tree_csv, serialize.read_tree_csv),
        ):
            path = self.workdir / f"tree.{fmt}"
            before = rec.failed
            rec.call(f"serialize.write_{fmt}", write, tree, path)
            if rec.failed != before:
                continue
            read_tree = rec.call(f"serialize.read_{fmt}", read, path)
            with rec.paused():
                path.unlink()
                if read_tree is None:
                    continue
                same = np.array_equal(np.asarray(read_tree.parent, dtype=np.int64), parent)
                rec.verify(f"serialize.read_{fmt}", [(same, f"tree.{fmt} does not read back")])
            if scanned is None:
                scanned = read_tree
            read_tree = None
        if scanned is None:
            return
        vertices = self.sizes["grow_n"] + 1
        for k, truncation in ((0, 4), (2, 12)):
            name = f"treeops.fringe_k{k}"
            hist = rec.call(name, empirical_fringe_distribution, scanned, k=k, truncation=truncation)
            if hist is None:
                continue
            with rec.paused():
                checks = histogram_checks(hist, vertices)
                if k == 0:
                    checks.append(leaf_check(hist, E_MINUS_2))
                rec.verify(name, checks)
                counts["treeops.distinct_keys"] += len(hist.counts)
                digests[name] = histogram_digest(hist)


def fringe_key_size(rng: CounterRng) -> tuple[str, int]:
    """One limiting-fringe sample and its size, as fringe-compare bins it."""
    key = bp_fringe_sample(0.0, rng)
    return key, key_size(key)


class LimitsWorkload(Workload):
    """The limit samplers and estimators at delta = 0, with no growth."""

    def setup(self) -> None:
        super().setup()
        self.tree, _ = grow(GrowthParams(delta=0.0, n_final=self.sizes["fringe_n"], seed=self.seed))
        self.p1 = p1_quadrature(0.0)

    def run(self, rec):
        reps = self.sizes["pmf_reps"]
        counts, digests = {}, {"limits.tree.parents": array_digest(self.tree.parent, "<i8")}
        # the streams `limit-pmf --seed` and `fringe-compare --seed` use, then
        # one child stream per remaining estimator
        rngs = [CounterRng(self.seed)] + [CounterRng(self.seed).spawn(i) for i in (1, 2, 3, 4)]
        p1_sigma = math.sqrt(self.p1 * (1.0 - self.p1) / reps)

        pmf = rec.call("limits.degree_pmf", limit_degree_pmf, 0.0, reps, rngs[0])
        if pmf is not None:
            with rec.paused():
                p1 = pmf.p.get(1, 0.0)
                rec.verify("limits.degree_pmf", [
                    (abs(p1 - self.p1) <= 5 * p1_sigma, f"p(1) = {p1:.5f} is not within 5 sigma of {self.p1:.5f}"),
                ])
                replicas = {k: round(v * reps) for k, v in pmf.p.items()}
                counts["limits.arrivals"] = sum(c * (k - 1) for k, c in replicas.items())
                digests["limits.degree_pmf"] = sha256(json.dumps(sorted(replicas.items())).encode())

        # fringe-compare: empirical side, simulated side, comparison
        empirical = rec.call(
            "treeops.fringe_k0", empirical_fringe_distribution, self.tree, k=0, truncation=FRINGE_TRUNCATION
        )
        if empirical is not None:
            with rec.paused():
                checks = histogram_checks(empirical, self.sizes["fringe_n"] + 1)
                checks.append(leaf_check(empirical, E_MINUS_2))
                rec.verify("treeops.fringe_k0", checks)
        samples = [rec.call("treeops.bp_fringe", fringe_key_size, rngs[1]) for _ in range(self.sizes["bp_reps"])]
        samples = [s for s in samples if s is not None]
        binned: dict[str, int] = {}
        for key, size in samples:
            if size <= FRINGE_TRUNCATION:
                binned[key] = binned.get(key, 0) + 1
        simulated = FringeHistogram(
            counts=binned, other=len(samples) - sum(binned.values()), total=len(samples),
            truncation=FRINGE_TRUNCATION,
        )
        with rec.paused():
            if samples:
                rec.verify("treeops.bp_fringe", [leaf_check(simulated, self.p1)])
            sizes = [size for _, size in samples]
            counts["treeops.bp_nodes"] = sum(sizes)
            counts["treeops.bp_nodes_max"] = max(sizes, default=0)
            digests["treeops.bp_fringe"] = sha256("\n".join(key for key, _ in samples).encode())
        if empirical is not None and samples:
            compared = rec.call("analysis.compare", compare_distributions, empirical, simulated)
            if compared is not None:
                tv, chi2, p_value = compared
                with rec.paused():
                    rec.verify("analysis.compare", [
                        (0.0 <= tv <= 1.0 and 0.0 <= p_value <= 1.0 and chi2 >= 0.0, "comparison out of range"),
                    ])
        del samples, simulated

        zeta = rec.call("limits.zeta", mc_zeta_hat, 0.0, self.sizes["zeta_reps"], rngs[2])
        if zeta is not None:
            with rec.paused():
                sigma = float(zeta.std()) / math.sqrt(len(zeta))
                mean = float(zeta.mean())
                rec.verify("limits.zeta", [(abs(mean - 1.0) <= 5 * sigma, f"mean of zeta-hat {mean:.5f} is not 1")])
                digests["limits.zeta"] = array_digest(zeta, "<f8")
        yule = rec.call(
            "limits.yule", yule_marked_ensemble, 0.0, self.sizes["yule_grid"], self.sizes["yule_reps"], rngs[3]
        )
        if yule is not None:
            with rec.paused():
                rec.verify("limits.yule", [
                    (bool(np.all(np.diff(yule, axis=0) >= 0)), "D(t) decreases"),
                    (float(yule.min()) >= 1.0, "D(t) < 1"),
                ])
                digests["limits.yule"] = array_digest(yule, "<f8")
        edge = [
            rec.call("limits.edge_bp", sample_edge_bp, 0.0, rngs[4], exp1=True)
            for _ in range(self.sizes["edge_reps"])
        ]
        with rec.paused():
            edge = [bp for bp in edge if bp is not None]
            for bp in edge:
                try:
                    bp.check_invariants()
                except AssertionError as exc:
                    rec.fail("limits.edge_bp", str(exc))
            counts["limits.edge_bp_nodes"] = sum(bp.size for bp in edge)
            digests["limits.edge_bp"] = sha256(json.dumps([bp.parents for bp in edge]).encode())
            counts["rng.words"] = sum(r.counter for r in rngs)
        return counts, digests


WORKLOADS = {"grow-1e6": GrowWorkload, "limits-mc": LimitsWorkload}


def make(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, SMOKE if smoke else FULL, workdir)


def rng_rates(draws: int) -> dict[str, float]:
    """CounterRng draws per second: raw words, and bounded draws at the
    integer path's token bound for n = 1e6, delta = 0."""
    bound = 4 * (10**6 * (10**6 + 1) // 2)
    rng = CounterRng(1)
    t0 = time.perf_counter()
    for _ in range(draws):
        rng.u64()
    t1 = time.perf_counter()
    for _ in range(draws):
        rng.randbelow(bound)
    t2 = time.perf_counter()
    return {"rng.u64_per_s": draws / (t1 - t0), "rng.randbelow_per_s": draws / (t2 - t1)}


def layer_metrics(spans, index: int, sizes: dict) -> dict[str, float]:
    """Span-derived per-layer metrics of the traced pass `spans[index]`."""
    busy: dict[str, float] = {}
    bp_calls = []
    for name, start, end, _ in pass_children(spans, index):
        busy[name] = busy.get(name, 0.0) + (end - start)
        if name == "treeops.bp_fringe":
            bp_calls.append(end - start)
    metrics = {f"{name}_s": busy.get(name, 0.0) for name in TIMED_SPANS}
    steps = sizes["grow_n"] - 1
    for label, _, _ in GROW_PATHS:
        busy_s = busy.get(f"growth.{label}")
        metrics[f"growth.{label}.steps_per_s"] = steps / busy_s if busy_s else 0.0
    bp_calls.sort()
    slowest = bp_calls[len(bp_calls) - max(1, len(bp_calls) // 100):] if bp_calls else []
    metrics["treeops.bp_slowest1pct_share"] = sum(slowest) / sum(bp_calls) if bp_calls else 0.0
    metrics["bench.self_s"] = self_time(spans, index)
    # the spans `Recorder.call` recorded; check spans are off the pass clock
    metrics["bench.spans"] = sum(1 for name, _, _, _ in pass_children(spans, index) if name != "bench.check")
    return metrics
