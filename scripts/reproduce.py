#!/usr/bin/env python3
"""Reproduce the paper's three studies through the ``magnetkit`` commands.

  ablation     gen (random mask) + ablate: the full model against the four
               component-removal variants on the clustered benchmark
  missingness  gen + one sweep per masking scenario (one-intact,
               shared-core, random): test macro-F1 against the
               missingness level
  scalability  bench: training time against the number of modalities
               (2..10, 1000 features each, random mask 0.5), with a
               linear fit

Each study writes its run config to ``<out>/config.json``, runs the
commands on it and exits with the first non-zero exit code of a command.
"""

import argparse
import json
import os
import sys

from magnetkit import cli

# The clustered benchmark's model and training settings.
PAPER = {"embed_dim": 32, "heads": 2, "encoder_hidden": 64, "gnn_layers": 2,
         "sparsity_rate": 0.9, "dropout": 0.1, "learning_rate": 3e-3}
# The scalability benchmark's: no dropout, a smaller step, float32.
SCALING = {**PAPER, "dropout": 0.0, "learning_rate": 1e-3, "precision": "f32"}


def ablation(args, config):
    data = os.path.join(args.out, "data")
    return (cli.main(["gen", "--seed", str(args.seed), "--scenario",
                      "random_mask", "--ratio", str(args.ratio), "--out", data])
            or cli.main(["ablate", "--dataset", data, "--config", config,
                         "--out", args.out]))


def missingness(args, config):
    data = os.path.join(args.out, "data")
    code = cli.main(["gen", "--seed", str(args.seed), "--out", data])
    for kind in ("intact_one", "shared_core", "random_mask"):
        code = code or cli.main([
            "sweep", "--dataset", data, "--config", config, "--scenario", kind,
            "--levels", args.levels, "--repeats", str(args.repeats),
            "--out", os.path.join(args.out, kind)])
    return code


def scalability(args, config):
    return cli.main(["bench", "--config", config, "--repeats",
                     str(args.repeats), "--out", args.out])


def build_parser():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="study", required=True)

    def study(name, run, config, epochs, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--out", default=f"results/{name}")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=epochs)
        p.set_defaults(run=run, config=config)
        return p

    p = study("ablation", ablation, PAPER, 100,
              "full model against the component-removal variants")
    p.add_argument("--ratio", type=float, default=0.3,
                   help="random-mask missingness level")
    p = study("missingness", missingness, PAPER, 100,
              "macro-F1 against the missingness level per scenario")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--levels", default="0,0.2,0.4,0.6,0.8")
    p = study("scalability", scalability, SCALING, 30,
              "training time against the number of modalities")
    p.add_argument("--repeats", type=int, default=5)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    config = os.path.join(args.out, "config.json")
    with open(config, "w") as fh:
        json.dump({**args.config, "seed": args.seed, "epochs": args.epochs},
                  fh, indent=2)
    return args.run(args, config)


if __name__ == "__main__":
    sys.exit(main())
