"""Summarize saved benchmark runs.

    python3 perfbench/summary.py LOG [LOG ...]

Each LOG is the standard output of one `perfbench/run.py` run. For every
workload this prints, per metric, the run count, median, quartiles and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json. It pools the per-pass `wall_s` samples of all runs and gives
their median and highest supported percentile. Runs of one workload with the
same seed and sizes must agree on every exact count and digest; any
disagreement is listed and makes the exit code 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import highest_percentile

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().splitlines()
    info = next(json.loads(line[len("info "):]) for line in lines if line.startswith("info "))
    return info, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as `statistics.quantiles` gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(paths: list[str]) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    runs = defaultdict(list)
    for path in paths:
        info, result = load(path)
        runs[(info["workload"], info["trace"])].append((info, result))
    mismatches = 0
    for (workload, trace), group in sorted(runs.items()):
        failed = sum(r["failed"] for _, r in group)
        attempted = sum(r["attempted"] for _, r in group)
        print(f"== {workload} trace={trace}: {len(group)} runs, {failed} of {attempted} operations failed")
        metrics = defaultdict(list)
        for _, result in group:
            for name, m in result["metrics"].items():
                metrics[name].append((m["value"], m["unit"]))
        for name, values in metrics.items():
            med, q1, q3, rel = spread([v for v, _ in values])
            bound = bounds.get(name)
            verdict = "" if bound is None else f" bound {bound} {'ok' if rel <= bound / 3 else 'WIDE'}"
            print(f"  {name:34s} {med:12.6g} {values[0][1]:10s} q1 {q1:.6g} q3 {q3:.6g} spread {rel:.3f}{verdict}")
        passes = [t for info, _ in group for t in info["passes_s"]]
        print(f"  wall_s over {len(passes)} passes: median {statistics.median(passes):.4f} s; "
              f"{highest_percentile(passes)}")
        by_input = defaultdict(list)
        for info, _ in group:
            by_input[(info["seed"], info["smoke"])].append((info["counts"], info["digests"]))
        for (seed, smoke), records in sorted(by_input.items()):
            if any(r != records[0] for r in records[1:]):
                mismatches += 1
                print(f"  MISMATCH: counts or digests differ between runs at seed {seed} (smoke={smoke})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
