#!/usr/bin/env python3
"""Hyperparameter sensitivity on the clustered synthetic benchmark.

Sweeps the alignment-loss weight lambda and the graph sparsity rate,
training on the training split only and scoring the held-out validation
split, so the curves are usable for tuning.
"""

import argparse
import os

from magnetkit import datamodel as dm
from magnetkit import trainer as tr
from reproduce import PAPER  # the clustered benchmark's settings


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/sensitivity")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=100)
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    ds = dm.gen_clusters(seed=args.seed)
    prepped, assignment = dm.split_and_preprocess(ds, args.seed)
    config = tr.RunConfig(seed=args.seed, epochs=args.epochs, **PAPER)

    # each curve: file stem, column, RunConfig field and values; the lambda
    # curve's column is named "lambda", not the field's "lam"
    for name, column, field, values in (
            ("lambda", "lambda", "lam", (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)),
            ("sparsity", "sparsity_rate", "sparsity_rate",
             (0.5, 0.6, 0.7, 0.8, 0.9))):
        rows = [{column: r.pop(field), **r} for r in tr.run_validation_sweep(
            prepped, config, assignment, field, values)]
        # the columns are every row's keys, in first-seen order
        dm.write_rows(os.path.join(args.out, f"{name}_sweep.csv"), rows,
                      list(dict.fromkeys(k for r in rows for k in r)))
        for r in rows:
            print(f"{name}={r[column]:.2f} macro_f1={r['macro_f1']:.3f}")


if __name__ == "__main__":
    main()
