#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, in alternating order.

    python3 scripts/bench_pairs.py BASE CHANGE --workload patients2000 \\
        --pairs 10 --seconds 30

BASE and CHANGE are two checkout directories of this repository. Each
pair runs ``perfbench/run.py --trace 0`` once in each, with a fresh seed
per pair (``--first-seed`` + pair index), BASE first in even pairs and
CHANGE first in odd ones. For every end-to-end metric that
``BENCHMARK.json`` in CHANGE names, the report gives each side's median
and quartiles, the relative change of the medians, the pairs CHANGE won
(ties count for neither side) and whether the medians differ by more than
BASE's interquartile range. Three verdicts close each row: ``resolved`` is
no when the wider of the two sides' interquartile ranges, relative to
BASE's median, exceeds the metric's ``bound``, unless every CHANGE run is
better than every BASE run (such a metric is unresolved, not unchanged);
``claim`` is yes when at least 10 pairs ran, CHANGE won at least 9 in 10
of them and its median is better by more than BASE's interquartile range;
``regressed`` is yes when CHANGE's median is worse than BASE's by more
than the metric's ``bound``. Every run's ``failed`` count is printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, help="checkout measured as the base")
    p.add_argument("change", type=Path, help="checkout measured as the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for side in (args.base, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            p.error(f"{side} has no perfbench/run.py")
    return args


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; its result object (the last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def yes_no(flag):
    return "yes" if flag else "no"


def report(metrics, runs):
    """Lines comparing the paired runs; ``metrics`` are the end-to-end
    entries of ``BENCHMARK.json`` and ``runs`` is a list of (base result,
    change result) pairs."""
    lines = [f"{'metric':14s} {'base median [q1, q3]':>30s} "
             f"{'change median [q1, q3]':>30s} {'change':>8s} {'wins':>6s}"
             "  > base IQR  resolved  claim  regressed"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
        rel = (mc - mb) / mb if mb else float("nan")
        gain = -rel if lower else rel
        beyond_iqr = abs(mc - mb) > b3 - b1
        spread = max(b3 - b1, c3 - c1) / abs(mb) if mb else float("inf")
        separated = (max(change) < min(base) if lower
                     else min(change) > max(base))
        resolved = spread <= m["bound"] or separated
        claim = (len(runs) >= 10 and 10 * wins >= 9 * len(runs) and gain > 0
                 and beyond_iqr)
        cells = [f"{mb:.4g} [{b1:.4g}, {b3:.4g}]",
                 f"{mc:.4g} [{c1:.4g}, {c3:.4g}]"]
        lines.append(f"{name:14s} {cells[0]:>30s} {cells[1]:>30s} "
                     f"{rel:+8.1%} {wins:3d}/{len(runs):<2d}  "
                     f"{yes_no(beyond_iqr):>10s}  {yes_no(resolved):>8s}  "
                     f"{yes_no(claim):>5s}  "
                     f"{yes_no(-gain > m['bound']):>9s}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("base", args.base), ("change", args.change)]
        if i % 2:
            order.reverse()
        result = {}
        for side, checkout in order:
            result[side] = run_once(checkout, args.workload, seed,
                                    args.seconds)
            print(f"pair {i} seed {seed} {side:6s} failed "
                  f"{result[side]['failed']} of {result[side]['attempted']}",
                  flush=True)
        runs.append((result["base"], result["change"]))
    print(f"workload {args.workload}, {args.pairs} pairs, "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}, "
          f"{args.seconds:g} s per run")
    for line in report(spec["end_to_end"], runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
