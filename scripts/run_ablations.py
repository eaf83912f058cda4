#!/usr/bin/env python3
"""Component-removal study on the clustered synthetic benchmark.

Trains the full model and the four variants (equal-weight fusion, no
message passing, no edge features, no alignment loss) under a shared seed
and split, and prints a comparison table.
"""

import argparse
import csv
import os

from magnetkit import datamodel as dm
from magnetkit import trainer as tr


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/ablation")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--ratio", type=float, default=0.3,
                    help="random-mask missingness level")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    ds = dm.gen_clusters(seed=args.seed)
    if args.ratio > 0:
        ds = dm.apply_scenario(ds, dm.ScenarioSpec(
            kind="random_mask", ratio=args.ratio, seed=args.seed))
    prepped, assignment = dm.split_and_preprocess(ds, args.seed)
    config = tr.RunConfig(seed=args.seed, embed_dim=32, heads=2,
                          encoder_hidden=64, gnn_layers=2, sparsity_rate=0.9,
                          dropout=0.1, learning_rate=3e-3, epochs=args.epochs)

    results = tr.run_ablation(prepped, config, assignment)
    rows = []
    for name, res in results.items():
        row = {"variant": name, "param_count": res["param_count"],
               "final_loss": res["final_loss"]}
        row.update(res["test_metrics"])
        rows.append(row)
        print(f"{name:5s} acc={row['accuracy']:.3f} "
              f"macro_f1={row['macro_f1']:.3f} mcc={row['mcc']:.3f}")
    with open(os.path.join(args.out, "ablation.csv"), "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


if __name__ == "__main__":
    main()
