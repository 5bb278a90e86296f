#!/usr/bin/env python3
"""Paired A/B comparison of two benchmark binaries.

    bench/ab.py PARENT_BIN CHANGE_BIN [--pairs N] -- ARGS

Runs `PARENT_BIN ARGS` and `CHANGE_BIN ARGS` N times each, alternating which
side goes first in each pair so that drift of the host's speed lands on both
sides alike. Each run's last line of standard output must be perfbench's
result object ({"correct", "attempted", "failed", "metrics"}); a run that
exits non-zero or reports "correct": false stops the comparison (exit 1).

For every metric both sides report, it prints each side's median and
quartiles, the median of the per-pair ratios change/parent with a 95%
bootstrap interval (fixed seed, so a rerun on the same numbers prints the
same interval), and the number of pairs the change won. A pair is won when
the change is strictly better in the metric's direction, taken from the
"better" field of the repository's BENCHMARK.json; a metric that file does
not list stops the comparison (exit 1). The last line
of output is the same summary as one JSON object, with every run's value in
pair order under "parent_runs" and "change_runs".

Example, the parent's and the change's perfbench builds:

    bench/ab.py parent/.bench_build/perfbench/perfbench \\
        .bench_build/perfbench/perfbench --pairs 10 -- \\
        --workload paper_snapshot --seed 1 --seconds 15 --trace 0
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

BOOTSTRAP_RESAMPLES = 10000
BOOTSTRAP_SEED = 1
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(binary, args):
    """Runs one benchmark process; returns its metrics as {name: value}."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"ab: {binary} exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
        metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        sys.exit(f"ab: {binary}: last line is not a result object ({e})")
    if result.get("correct") is not True:
        sys.exit(f"ab: {binary} reported an incorrect run")
    return metrics


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def bootstrap_median_interval(ratios):
    """95% percentile-bootstrap interval of the median ratio."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_RESAMPLES))
    lo = medians[int(0.025 * (BOOTSTRAP_RESAMPLES - 1))]
    hi = medians[int(0.975 * (BOOTSTRAP_RESAMPLES - 1))]
    return lo, hi


def load_directions():
    """{metric: "lower"|"higher"} from the repository's BENCHMARK.json."""
    try:
        spec = json.loads(SPEC_PATH.read_text())
        return {m["name"]: m["better"]
                for key in ("end_to_end", "per_layer") for m in spec[key]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit(f"ab: cannot read metric directions from {SPEC_PATH} ({e})")


def summarize(parent_runs, change_runs, directions):
    """Per-metric summary over paired runs (lists of {name: value})."""
    summary = {}
    names = sorted(set(parent_runs[0]) & set(change_runs[0]))
    for name in names:
        parent = [r[name] for r in parent_runs]
        change = [r[name] for r in change_runs]
        better = directions.get(name)
        if better not in ("lower", "higher"):
            sys.exit(f"ab: {SPEC_PATH} gives no direction for {name}")
        won = sum(1 for p, c in zip(parent, change)
                  if (c < p if better == "lower" else c > p))
        row = {
            "better": better,
            "parent": quartiles(parent),
            "change": quartiles(change),
            "pairs": len(parent),
            "won": won,
            "ratio": None,
            "ratio_ci95": None,
            "parent_runs": parent,
            "change_runs": change,
        }
        if all(p != 0 for p in parent):
            ratios = [c / p for p, c in zip(parent, change)]
            row["ratio"] = statistics.median(ratios)
            row["ratio_ci95"] = bootstrap_median_interval(ratios)
        summary[name] = row
    return summary


def print_table(summary):
    print(f"{'metric':<34} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'ratio [95% CI]':>24} {'won':>6}")
    for name, row in summary.items():
        p1, p2, p3 = row["parent"]
        c1, c2, c3 = row["change"]
        ratio = "n/a"
        if row["ratio"] is not None:
            lo, hi = row["ratio_ci95"]
            ratio = f"{row['ratio']:.4f} [{lo:.4f}, {hi:.4f}]"
        print(f"{name:<34} {f'{p2:.6g} [{p1:.6g}, {p3:.6g}]':>32} "
              f"{f'{c2:.6g} [{c1:.6g}, {c3:.6g}]':>32} {ratio:>24} "
              f"{row['won']:>3}/{row['pairs']:<2}")


def main():
    argv = sys.argv[1:]
    bench_args = []
    if "--" in argv:
        split = argv.index("--")
        argv, bench_args = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s PARENT_BIN CHANGE_BIN [--pairs N] -- ARGS")
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--pairs", type=int, default=10,
                        help="paired runs per side (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    directions = load_directions()

    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        # Alternate which side goes first so a drifting host favours neither.
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            if side == "parent":
                parent_runs.append(run_once(args.parent_bin, bench_args))
            else:
                change_runs.append(run_once(args.change_bin, bench_args))
        print(f"ab: pair {i + 1}/{args.pairs} done", file=sys.stderr)

    summary = summarize(parent_runs, change_runs, directions)
    print_table(summary)
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
