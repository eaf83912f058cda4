#!/usr/bin/env python3
"""Hyperparameter sensitivity on the clustered synthetic benchmark.

Sweeps the alignment-loss weight lambda and the graph sparsity rate,
training on the training split only and scoring the held-out validation
split, so the curves are usable for tuning.
"""

import argparse
import csv
import os

from magnetkit import datamodel as dm
from magnetkit import trainer as tr
from reproduce import PAPER  # the clustered benchmark's settings


def write(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/sensitivity")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=100)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    ds = dm.gen_clusters(seed=args.seed)
    prepped, assignment = dm.split_and_preprocess(ds, args.seed)
    config = tr.RunConfig(seed=args.seed, epochs=args.epochs, **PAPER)

    # the lambda curve's column is named "lambda", not the field's "lam"
    lam_rows = [{"lambda": r.pop("lam"), **r} for r in tr.run_validation_sweep(
        prepped, config, assignment, "lam", (0.0, 0.05, 0.1, 0.25, 0.5, 1.0))]
    write(os.path.join(args.out, "lambda_sweep.csv"), lam_rows)
    for r in lam_rows:
        print(f"lambda={r['lambda']:.2f} macro_f1={r['macro_f1']:.3f}")

    sp_rows = tr.run_validation_sweep(prepped, config, assignment,
                                      "sparsity_rate", (0.5, 0.6, 0.7, 0.8, 0.9))
    write(os.path.join(args.out, "sparsity_sweep.csv"), sp_rows)
    for r in sp_rows:
        print(f"sparsity={r['sparsity_rate']:.2f} "
              f"macro_f1={r['macro_f1']:.3f}")


if __name__ == "__main__":
    main()
