"""seritree benchmark: one workload per run, closed loop, in one process.

    python3 perfbench/run.py --workload grow-1e6 --seed 1 --seconds 30 --trace 0

Run it from the root of a seritree source checkout; it imports the package
from ./src. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it records spans and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs the same
workload at toy sizes with every check. See perfbench/README.md.
"""

from __future__ import annotations

# Only the standard library is imported before seritree, so that the timed
# `import seritree` pays for numpy and scipy as a CLI call does.
import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("grow-1e6", "limits-mc")
# Each sample comes from a fresh process: this one, SETUP_SAMPLES - 1 probes
# that import and set up before the passes, and IMPORT_PROBES probes that
# only import. One import probe falls due every `seconds / IMPORT_PROBES` of
# pass time and runs after the pass in progress, so that the import samples
# span the run. Traced runs take no samples.
SETUP_SAMPLES = 5
IMPORT_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0, help="run passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every check")
    parser.add_argument("--probe", choices=("import", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    return args


def pin_threads() -> int:
    """Unset SERI_THREADS and keep BLAS at no more threads than cores."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("SERI_THREADS", None)
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not (current.isdigit() and 1 <= int(current) <= nproc):
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    return nproc


def import_seritree() -> float:
    """Import seritree from this checkout; returns the seconds it took."""
    if not (SRC / "seritree" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'seritree'} not found; run from a seritree source checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import seritree  # noqa: F401

    return time.perf_counter() - t0


def git_commit() -> str | None:
    """HEAD commit, read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "seritree").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "seri_threads": os.environ.get("SERI_THREADS"),
        "workers": 1,
    }


def probe(args) -> int:
    """Fresh-process sample: time `import seritree`, then maybe the set-up."""
    import_s = import_seritree()
    if args.probe == "import":
        print(json.dumps({"import_s": import_s}))
        return 0
    import workloads

    workload = workloads.make(args.workload, args.seed, args.smoke, WORK / f"probe-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
    finally:
        workload.cleanup()
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


def run_probe(args, rec, kind: str) -> dict | None:
    """One probe process; it is waited for, and killed if it overruns."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind, "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    rec.attempted += 1
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec.fail("bench.probe", f"timed out after {PROBE_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        rec.fail("bench.probe", f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, rec, seconds: float, trace: bool, between):
    """Closed-loop passes until `seconds` of pass time have passed.

    It always finishes the pass it is in and makes at least one. With
    tracing, every pass records spans. Every pass reads the same inputs, so
    its counts and digests must repeat exactly; a pass that disagrees with
    the first is a failed operation. After each pass, `between` runs once
    for every import probe that has fallen due, off the clock; the last pass
    runs all that remain.
    """
    walls: list[float] = []
    pass_spans: list[int] = []
    first = None
    probes = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        rec.trace = trace
        if trace:
            pass_spans.append(len(rec.spans))
        with rec.pass_span() as timing:
            result = workload.run(rec)
        rec.trace = False
        walls.append(timing["wall_s"])
        if first is None:
            first = result
        elif result != first:
            rec.attempted += 1
            rec.fail("bench.repeat", "counts or digests differ between passes of one run")
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds
        due = IMPORT_PROBES if done else min(IMPORT_PROBES, int(elapsed * IMPORT_PROBES / seconds) + 1)
        t0 = time.perf_counter()
        for _ in range(probes, due):
            between()
        probes = max(probes, due)
        start += time.perf_counter() - t0
        if done:
            return walls, pass_spans, first


def highest_percentile(values) -> str:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return f"p{pct} {cut:.4f}"
    return "no percentile above the median has ten samples beyond it"


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    if args.probe:
        return probe(args)
    import_s = import_seritree()
    import workloads
    from tracing import Recorder, span_cost

    env = environment(nproc)
    rec = Recorder()
    rec.attempted += 1
    if env["blas_threads"] is not None and env["blas_threads"] > nproc:
        rec.fail("bench.env", f"BLAS uses {env['blas_threads']} threads on {nproc} cores")
    imports, setups = [import_s], []

    def sample(kind: str) -> None:
        if args.trace:
            return
        result = run_probe(args, rec, kind)
        if result is not None:
            imports.append(result["import_s"])
            if kind == "setup":
                setups.append(result["setup_s"])

    for _ in range(SETUP_SAMPLES - 1):
        sample("setup")
    workload = workloads.make(args.workload, args.seed, args.smoke, WORK / f"run-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        walls, pass_spans, (counts, digests) = run_passes(
            workload, rec, args.seconds, bool(args.trace), lambda: sample("import")
        )
        rng_rates = (
            workloads.rng_rates(workload.sizes["rng_draws"])
            if args.trace and args.workload == "grow-1e6" else {}
        )
    finally:
        workload.cleanup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall_s = statistics.median(walls)
    info = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "trace": args.trace,
        "env": env, "passes_s": walls,
        "import_samples_s": imports, "setup_samples_s": setups,
        "counts": counts, "digests": digests, "errors": rec.errors,
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(f"failed_frac {rec.failed / rec.attempted:.6g} ratio ({rec.failed} of {rec.attempted} operations)")
    if args.trace:
        timed = [workloads.layer_metrics(rec.spans, i, workload.sizes) for i in pass_spans]
        values = {name: statistics.median(t[name] for t in timed) for name in timed[0]}
        values.update(rng_rates)
        values["bench.traced_wall_s"] = wall_s
        values["bench.trace_overhead_s"] = values.pop("bench.spans") * span_cost()
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
        metrics = {name: values.get(name, counts.get(name, 0)) for name in units}
        write_trace(args, env, rec, metrics, counts, digests)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "import_s": statistics.median(imports),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "setup_s": "s", "import_s": "s", "peak_rss_mb": "MB"}
        print(f"wall_s median of {len(walls)} passes; {highest_percentile(walls)}")
        print(f"setup_s median of {len(setups)} set-ups; import_s median of {len(imports)} imports")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def write_trace(args, env, rec, metrics, counts, digests) -> None:
    """Write the run's spans, relative to the first span's start, as JSON."""
    WORK.mkdir(exist_ok=True)
    origin = rec.spans[0][1] if rec.spans else 0.0
    names = sorted({s[0] for s in rec.spans})
    index = {name: i for i, name in enumerate(names)}
    spans = [[index[n], round(s - origin, 9), round(e - origin, 9), p] for n, s, e, p in rec.spans]
    path = WORK / f"trace-{args.workload}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "env": env,
        "span_fields": ["name", "start_s", "end_s", "parent"], "span_names": names, "spans": spans,
        "metrics": metrics, "counts": counts, "digests": digests,
    }))
    print(f"trace {path.relative_to(ROOT)} ({len(spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())
