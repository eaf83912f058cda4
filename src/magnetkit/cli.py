"""Command-line harness: data generation, training, evaluation, sweeps,
benchmarks, ablations, and graph diagnostics.

Exit codes: 0 success, 2 configuration/input error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import datamodel as dm
from . import gnn
from . import graph as pg
from . import params_io
from . import trainer as tr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _write_outputs(out_dir, config, files, **extra):
    """Make ``out_dir`` once a command's results are complete, write each
    ``(name, content)`` of ``files`` in order (a writer called with the
    path, or else JSON), then ``manifest.json`` with the config, its seed,
    the files' checksums in the same order and ``extra``."""
    os.makedirs(out_dir, exist_ok=True)
    artifacts = {}
    for name, content in files:
        path = os.path.join(out_dir, name)
        if callable(content):
            content(path)
        else:
            with open(path, "w") as fh:
                json.dump(content, fh, indent=2)
        with open(path, "rb") as fh:
            artifacts[name] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {"config": config.to_dict(), "seed": config.seed,
                "artifacts": artifacts, **extra}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _check_out(out):
    """Reject an ``--out`` that cannot become a directory (it, or the
    nearest part of its path that exists, is a file) before any work."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise tr.ConfigError(f"--out {out}: {path} is not a directory")


def _load_config(args, **overrides):
    doc = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise tr.ConfigError(f"config file {args.config} is not a JSON object")
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "precision", None):
        doc["precision"] = args.precision
    doc.update({k: v for k, v in overrides.items() if v is not None})
    doc.setdefault("seed", 0)
    return tr.RunConfig.from_dict(doc)


def _write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for r in rows:
            writer.writerow(r)


def _jobs(args):
    n = getattr(args, "jobs", 1) or 1
    cap = os.environ.get("MAGNET_KIT_THREADS")
    if cap:
        n = min(n, int(cap))
    return max(1, n)


# ---------------------------------------------------------------------------
# subcommands


def _intact_modality(args):
    """The intact modality of an intact_one scenario, 0 unless
    --intact-modality names one; no other scenario takes the flag."""
    if args.scenario == "intact_one":
        return args.intact_modality or 0
    if args.intact_modality is not None:
        raise dm.DataError(f"--intact-modality applies to --scenario "
                           f"intact_one, not {args.scenario}")


def cmd_gen(args):
    if args.scenario == "none" and args.ratio != 0.0:
        raise dm.DataError("--ratio needs a --scenario")
    intact = _intact_modality(args)
    m = args.modalities
    if args.preset == "intersim-like":
        ds = dm.gen_clusters(n=args.n, clusters=args.clusters,
                             modalities=3 if m is None else m, seed=args.seed)
    elif args.preset == "scalability":
        ds = dm.gen_scalability(n=args.n, modalities=2 if m is None else m,
                                seed=args.seed)
    else:
        raise dm.DataError(f"unknown preset {args.preset!r}")
    spec_dict = None
    if args.scenario != "none":
        spec = dm.ScenarioSpec(kind=args.scenario, ratio=args.ratio,
                               intact_modality=intact,
                               seed=args.seed)
        ds = dm.apply_scenario(ds, spec)
        spec_dict = spec.to_dict()
    dm.save_csv(ds, args.out, manifest_extra={
        "seed": args.seed, "preset": args.preset, "scenario": spec_dict})
    print(f"wrote {ds.n_modalities} modality files to {args.out}")
    return EXIT_OK


def _write_attention_csv(path, att, patient_ids, modality_names):
    """Write the N x M x K attention array as (patient_id, head, modality,
    weight) rows, head by head; a missing modality has weight 0."""
    n, m, k = att.shape
    dm.write_table(path, "patient_id,head,modality,weight\n",
                   "%s,%d,%s,%.6f\n",
                   [np.tile(np.repeat(dm.quote(patient_ids), m), k),
                    np.repeat(np.arange(k), n * m),
                    np.tile(dm.quote(modality_names), n * k),
                    np.moveaxis(att, 2, 0).ravel()])


def _write_embeddings_csv(path, patient_ids, emb):
    """Write (patient_id, z_1, ..., z_d) rows."""
    d = emb.shape[1]
    header = ["patient_id"] + [f"z_{i+1}" for i in range(d)]
    dm.write_table(path, ",".join(header) + "\n", "%s" + ",%.8g" * d + "\n",
                   [dm.quote(patient_ids), *emb.T])


def _write_edges_csv(path, g):
    """Write (u, v, similarity, tag) rows, one per edge of ``g``."""
    dm.write_table(path, "u,v,similarity,tag\n", "%d,%d,%.6f,%s\n",
                   [*g.edges.T, g.similarities,
                    np.where(g.reconnection, "reconnection", "shared")])


def cmd_train(args):
    config = _load_config(args)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), config.seed, args.topk)
    trained, report = tr.train(prepped, config, assignment)
    result = tr.evaluate(trained, prepped, assignment, dm.TEST)
    train_split = tr.evaluate(trained, prepped, assignment, dm.TRAIN)
    meta = {"config": config.to_dict(), "feature_dims": trained.feature_dims,
            "n_classes": trained.n_classes, "split_seed": config.seed,
            "topk": args.topk}
    columns = ["epoch", "ce", "kl", "total", "lr"]
    _write_outputs(args.out, config, [
        ("params.bin", lambda path: params_io.save_params(
            path, trained.values, meta=meta)),
        ("losses.csv", lambda path: _write_csv(
            path, [dict(zip(columns, row)) for row in report.loss_log],
            columns)),
        ("attention.csv", lambda path: _write_attention_csv(
            path, result["attention"], prepped.patient_ids,
            prepped.modality_names)),
        ("Z_final.csv", lambda path: _write_embeddings_csv(
            path, prepped.patient_ids, result["embeddings"])),
        ("report.json", {"report": {
            **dataclasses.asdict(report),
            "final_train_metrics": train_split["metrics"]},
            "test_metrics": result["metrics"]})])
    print(json.dumps(result["metrics"], indent=2))
    return EXIT_OK


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _rebuild_trained(params_path):
    values, meta = params_io.load_params(params_path)
    if not isinstance(meta, dict):
        raise params_io.ParamsIOError("params meta is not a JSON object")
    missing = [k for k in ("config", "feature_dims", "n_classes", "split_seed")
               if k not in meta]
    if missing:
        raise params_io.ParamsIOError(f"params meta lacks {', '.join(missing)}")
    dims = meta["feature_dims"]
    wrong = [k for k, ok in (
        ("feature_dims", isinstance(dims, list) and all(map(_is_int, dims))),
        ("n_classes", _is_int(meta["n_classes"])),
        ("split_seed", _is_int(meta["split_seed"])),
        ("topk", meta.get("topk") is None or _is_int(meta["topk"]))) if not ok]
    if wrong:
        raise params_io.ParamsIOError(
            f"params meta has a wrong type for {', '.join(wrong)}")
    if min(dims, default=0) < 1 or meta["n_classes"] < 1:
        raise params_io.ParamsIOError(
            "params meta needs positive feature_dims and n_classes")
    config = tr.RunConfig.from_dict(meta["config"])
    # the sizes in the meta are checked against the stored tensors before
    # anything of those sizes is allocated
    params_io.check_table(values, ((name, shape) for name, shape, _ in
                                   gnn.param_table(dims, meta["n_classes"],
                                                   config)))
    params = gnn.init_model(dims, meta["n_classes"], config, values=values)
    trained = tr.TrainedModel(params=params, config=config, feature_dims=dims,
                              n_classes=meta["n_classes"])
    return trained, meta


def cmd_eval(args):
    trained, meta = _rebuild_trained(args.params)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), meta["split_seed"], meta.get("topk"))
    metrics = tr.evaluate(trained, prepped, assignment, args.split)["metrics"]
    _write_outputs(args.out, trained.config,
                   [(f"metrics_{args.split}.json", metrics)],
                   split=args.split)
    print(json.dumps(metrics, indent=2))
    return EXIT_OK


def cmd_ablate(args):
    config = _load_config(args)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), config.seed)
    results = tr.run_ablation(prepped, config, assignment)
    rows = [{"variant": name, "final_loss": res["final_loss"],
             "param_count": res["param_count"], **res["test_metrics"]}
            for name, res in results.items()]
    _write_outputs(args.out, config, [("ablation.csv", lambda path: _write_csv(
        path, rows, list(rows[0])))])
    for row in rows:
        print(row["variant"], {k: row.get(k) for k in ("accuracy", "macro_f1")})
    return EXIT_OK


def cmd_sweep(args):
    intact = _intact_modality(args)
    config = _load_config(args)
    levels = [float(x) for x in args.levels.split(",")]
    if args.repeats < 1:
        raise tr.ConfigError("--repeats must be positive")
    rows = tr.run_scenario_sweep(dm.load_bundle(args.dataset), args.scenario,
                                 levels, args.repeats, config, intact,
                                 jobs=_jobs(args))
    cols = sorted({k for r in rows for k in r},
                  key=lambda c: (c not in ("level", "repeat"), c))
    summary = tr.summarize_sweep(rows)
    _write_outputs(args.out, config, [
        ("sweep.csv", lambda path: _write_csv(path, rows, cols)),
        ("sweep_summary.json", summary)],
        scenario=args.scenario, levels=levels, repeats=args.repeats)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_bench(args):
    config = _load_config(args)
    m_values = ([int(x) for x in args.modalities.split(",")]
                if args.modalities else dm.SCALABILITY_MODALITIES)
    rows, fit = tr.run_scalability_bench(
        config, m_values=m_values, repeats=args.repeats,
        features_per_modality=args.features)
    _write_outputs(args.out, config, [
        ("bench.csv", lambda path: _write_csv(path, rows,
                                              ["M", "repeat", "seconds"])),
        ("bench_fit.json", fit)])
    print(json.dumps(fit, indent=2))
    return EXIT_OK


def cmd_graph_stats(args):
    config = _load_config(args)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), config.seed)
    g = pg.build_graph(prepped, pg.pairwise_similarity(prepped),
                       config.sparsity_rate)
    node_h, edge_h, baseline = pg.homophily(g, prepped.labels)
    stats = {"node_homophily": node_h, "edge_homophily": edge_h,
             "random_baseline": baseline, "degree": pg.degree_stats(g),
             "n_edges": int(len(g.edges)),
             "n_reconnection_edges": int(g.reconnection.sum())}
    _write_outputs(args.out, config, [
        ("graph_stats.json", stats),
        ("edges.csv", lambda path: _write_edges_csv(path, g))])
    print(json.dumps(stats, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magnetkit",
        description="Missingness-aware multimodal classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--precision", choices=["f32", "f64"])
        if dataset:
            p.add_argument("--dataset", required=True, help="dataset bundle dir")

    p = sub.add_parser("gen", help="generate a synthetic dataset bundle")
    p.add_argument("--preset", choices=["intersim-like", "scalability"],
                   default="intersim-like")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--clusters", type=int, default=15)
    p.add_argument("--modalities", type=int)
    p.add_argument("--scenario", choices=["none", "intact_one", "shared_core",
                                          "random_mask"], default="none")
    p.add_argument("--ratio", type=float, default=0.0)
    p.add_argument("--intact-modality", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train on a dataset bundle")
    common(p)
    p.add_argument("--topk", type=int, help="ANOVA top-k features per modality")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved parameters on a split")
    common(p)
    p.add_argument("--params", required=True, help="params.bin from train")
    p.add_argument("--split", choices=["train", "validation", "test"],
                   default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the component-removal variants")
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="missingness-scenario sweep")
    common(p)
    p.add_argument("--scenario", choices=["intact_one", "shared_core",
                                          "random_mask"], required=True)
    p.add_argument("--levels", default="0,0.2,0.4,0.6,0.8")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--intact-modality", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="training-time scalability benchmark")
    common(p, dataset=False)
    p.add_argument("--modalities", help="comma-separated modality counts")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--features", type=int, default=1000)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("graph-stats", help="patient-graph diagnostics")
    common(p)
    p.set_defaults(func=cmd_graph_stats)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (tr.ConfigError, dm.DataError, pg.GraphError,
            params_io.ParamsIOError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except tr.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
