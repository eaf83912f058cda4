"""Command-line harness: data generation, training, evaluation, sweeps,
benchmarks, ablations, and graph diagnostics.

Exit codes: 0 success, 2 configuration/input error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import datamodel as dm
from . import fusion as fu
from . import gnn
from . import graph as pg
from . import params_io
from . import trainer as tr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, config, seed, artifacts, extra=None):
    manifest = {"config": config, "seed": seed,
                "artifacts": {os.path.basename(p): _sha256(p) for p in artifacts}}
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
    return path


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


def cmd_gen(args):
    os.makedirs(args.out, exist_ok=True)
    if args.preset == "intersim-like":
        ds = dm.gen_clusters(n=args.n, clusters=args.clusters,
                             modalities=args.modalities or 3, seed=args.seed)
    elif args.preset == "scalability":
        ds = dm.gen_scalability(n=args.n, modalities=args.modalities or 2,
                                seed=args.seed)
    else:
        raise dm.DataError(f"unknown preset {args.preset!r}")
    spec_dict = None
    if args.scenario and args.scenario != "none":
        spec = dm.ScenarioSpec(kind=args.scenario, ratio=args.ratio,
                               intact_modality=args.intact_modality,
                               seed=args.seed)
        ds = dm.apply_scenario(ds, spec)
        spec_dict = spec.to_dict()
    paths, label_path = dm.save_csv(
        ds, args.out, manifest_extra={"seed": args.seed, "preset": args.preset,
                                      "scenario": spec_dict})
    print(f"wrote {len(paths)} modality files to {args.out}")
    return EXIT_OK


def cmd_train(args):
    os.makedirs(args.out, exist_ok=True)
    config = _load_config(args)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), config.seed, args.topk)
    trained, report = tr.train(prepped, config, assignment)

    params_path = os.path.join(args.out, "params.bin")
    params_io.save_params(params_path, trained.values, meta={
        "config": config.to_dict(),
        "feature_dims": trained.feature_dims,
        "n_classes": trained.n_classes,
        "split_seed": config.seed,
        "topk": args.topk,
    })
    losses_path = os.path.join(args.out, "losses.csv")
    _write_csv(losses_path,
               [dict(zip(("epoch", "ce", "kl", "total", "lr"), row))
                for row in report.loss_log],
               ["epoch", "ce", "kl", "total", "lr"])
    result = tr.evaluate(trained, prepped, assignment, dm.TEST)
    att_path = os.path.join(args.out, "attention.csv")
    fu.write_attention_csv(result["attention"], att_path,
                           prepped.patient_ids, prepped.modality_names)
    emb_path = os.path.join(args.out, "Z_final.csv")
    emb = result["embeddings"]
    with open(emb_path, "w") as fh:
        fh.write("patient_id," + ",".join(
            f"z_{i+1}" for i in range(emb.shape[1])) + "\n")
        for pid, row in zip(prepped.patient_ids, emb):
            fh.write(pid + "," + ",".join(f"{v:.8g}" for v in row) + "\n")
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w") as fh:
        json.dump({"report": report.to_dict(),
                   "test_metrics": result["metrics"]}, fh, indent=2)
    _write_manifest(args.out, config.to_dict(), config.seed,
                    [params_path, losses_path, att_path, emb_path, report_path])
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
                              n_classes=meta["n_classes"],
                              report=tr.TrainReport())
    return trained, meta


def cmd_eval(args):
    os.makedirs(args.out, exist_ok=True)
    trained, meta = _rebuild_trained(args.params)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), meta["split_seed"], meta.get("topk"))
    result = tr.evaluate(trained, prepped, assignment, args.split)
    metrics_path = os.path.join(args.out, f"metrics_{args.split}.json")
    with open(metrics_path, "w") as fh:
        json.dump(result["metrics"], fh, indent=2)
    _write_manifest(args.out, trained.config.to_dict(), trained.config.seed,
                    [metrics_path], extra={"split": args.split})
    print(json.dumps(result["metrics"], indent=2))
    return EXIT_OK


def cmd_ablate(args):
    os.makedirs(args.out, exist_ok=True)
    config = _load_config(args)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), config.seed)
    results = tr.run_ablation(prepped, config, assignment)
    rows = []
    for name, res in results.items():
        row = {"variant": name, "final_loss": res["final_loss"],
               "param_count": res["param_count"]}
        row.update(res["test_metrics"])
        rows.append(row)
    cols = list(rows[0].keys())
    table_path = os.path.join(args.out, "ablation.csv")
    _write_csv(table_path, rows, cols)
    _write_manifest(args.out, config.to_dict(), config.seed, [table_path])
    for row in rows:
        print(row["variant"], {k: row.get(k) for k in ("accuracy", "macro_f1")})
    return EXIT_OK


def _sweep_task(payload):
    (bundle_dir, kind, intact, level, rep, config_dict) = payload
    return tr.run_scenario_point(dm.load_bundle(bundle_dir), kind, level, rep,
                                 tr.RunConfig.from_dict(config_dict), intact)


def cmd_sweep(args):
    os.makedirs(args.out, exist_ok=True)
    config = _load_config(args)
    levels = [float(x) for x in args.levels.split(",")]
    if args.repeats < 1:
        raise tr.ConfigError("--repeats must be positive")
    tasks = [(args.dataset, args.scenario, args.intact_modality, level, rep,
              config.to_dict())
             for level in levels for rep in range(args.repeats)]
    jobs = _jobs(args)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_task, tasks))
    else:
        rows = [_sweep_task(t) for t in tasks]
    cols = sorted({k for r in rows for k in r},
                  key=lambda c: (c not in ("level", "repeat"), c))
    curve_path = os.path.join(args.out, "sweep.csv")
    _write_csv(curve_path, rows, cols)
    summary = tr.summarize_sweep(rows)
    summary_path = os.path.join(args.out, "sweep_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    _write_manifest(args.out, config.to_dict(), config.seed,
                    [curve_path, summary_path],
                    extra={"scenario": args.scenario, "levels": levels,
                           "repeats": args.repeats})
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_bench(args):
    os.makedirs(args.out, exist_ok=True)
    config = _load_config(args)
    m_values = ([int(x) for x in args.modalities.split(",")]
                if args.modalities else list(range(2, 11)))
    rows, fit = tr.run_scalability_bench(
        config, m_values=m_values, repeats=args.repeats,
        features_per_modality=args.features)
    bench_path = os.path.join(args.out, "bench.csv")
    _write_csv(bench_path, rows, ["M", "repeat", "seconds"])
    fit_path = os.path.join(args.out, "bench_fit.json")
    with open(fit_path, "w") as fh:
        json.dump(fit, fh, indent=2)
    _write_manifest(args.out, config.to_dict(), config.seed,
                    [bench_path, fit_path])
    print(json.dumps(fit, indent=2))
    return EXIT_OK


def cmd_graph_stats(args):
    os.makedirs(args.out, exist_ok=True)
    config = _load_config(args)
    prepped, assignment = dm.split_and_preprocess(
        dm.load_bundle(args.dataset), config.seed)
    sims = pg.pairwise_similarity(prepped)
    g = pg.build_graph(prepped, sims, config.sparsity_rate)
    node_h, edge_h, baseline = pg.homophily(g, prepped.labels)
    stats = {"node_homophily": node_h, "edge_homophily": edge_h,
             "random_baseline": baseline, "degree": pg.degree_stats(g),
             "n_edges": int(len(g.edges)),
             "n_reconnection_edges": int(g.reconnection.sum())}
    stats_path = os.path.join(args.out, "graph_stats.json")
    with open(stats_path, "w") as fh:
        json.dump(stats, fh, indent=2)
    edges_path = os.path.join(args.out, "edges.csv")
    pg.export_edges_csv(g, edges_path)
    _write_manifest(args.out, config.to_dict(), config.seed,
                    [stats_path, edges_path])
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
    p.add_argument("--intact-modality", type=int, default=0)
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
    p.add_argument("--intact-modality", type=int, default=0)
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
        return args.func(args)
    except (tr.ConfigError, dm.DataError, pg.GraphError,
            params_io.ParamsIOError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except tr.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
