"""Steadiness report: how much each end-to-end metric moves from run to run.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs ``perfbench/run.py`` once per seed, one run at a time, in ``--sets``
sets of ``--runs`` seeds each (set k uses seeds ``first + k*runs ...``).
For every workload and metric it prints the first set's median and
quartiles, each set's spread (interquartile range over the median) and,
with two or more sets, the difference of each set's median from the first
set's. The bounds in ``BENCHMARK.json`` are set from this report: a
metric's spread should stay below a third of its bound. ``--json`` also
writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run; its parsed last line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stdout}\n{completed.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR over median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--json", type=Path, default=None, help="write raw values here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict = {}
    worst = 0.0
    for workload in workloads:
        sets = []
        for index in range(args.sets):
            first = args.first_seed + index * args.runs
            values: dict[str, list[float]] = {}
            for seed in range(first, first + args.runs):
                started = time.perf_counter()
                result = run_once(workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correctness gate or operation failed")
                    return 1
                for name, entry in result["metrics"].items():
                    values.setdefault(name, []).append(entry["value"])
                print(f"  {workload} seed {seed}: {time.perf_counter() - started:.1f}s",
                      file=sys.stderr)
            sets.append(values)
        raw[workload] = sets
        print(f"\n{workload}: {args.sets} set(s) of {args.runs} seeds, {seconds:g}s runs")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spreads':>17} "
              f"{'bound':>6} {'set diff':>9}")
        for name in sets[0]:
            median, q1, q3, _ = spread(sets[0][name])
            spreads = [spread(s[name])[3] for s in sets]
            diffs = [statistics.median(s[name]) / median - 1.0 if median else 0.0
                     for s in sets[1:]]
            bound = bounds.get(name)
            if bound:
                worst = max(worst, *(iqr / bound for iqr in spreads))
            spread_text = " ".join(f"{iqr:.2%}" for iqr in spreads)
            diff_text = " ".join(f"{d:+.2%}" for d in diffs) or "-"
            print(f"  {name:<14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread_text:>17} "
                  f"{bound if bound is not None else '-':>6} {diff_text:>9}")
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
