import csv
import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from magnetkit import cli, params_io
from magnetkit import datamodel as dm
from magnetkit import trainer as tr


FAST_CONFIG = {
    "embed_dim": 16, "heads": 2, "encoder_hidden": 16, "gnn_layers": 2,
    "sparsity_rate": 0.5, "dropout": 0.0, "epochs": 6, "learning_rate": 3e-3,
}


@pytest.fixture()
def bundle(tmp_path):
    ds = dm.gen_clusters(n=60, clusters=2, dims=(6, 6, 6), cluster_sep=3.0,
                         noise_sd=0.3, seed=0)
    out = tmp_path / "data"
    dm.save_csv(ds, out)
    return out


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 0, **FAST_CONFIG}))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


def test_params_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = {"enc.w1": rng.normal(size=(4, 3)),
              "dec.b": rng.normal(size=5).astype(np.float32)}
    meta = {"n_classes": 3, "feature_dims": [4]}
    path = tmp_path / "params.bin"
    params_io.save_params(path, values, meta)
    back, back_meta = params_io.load_params(path)
    assert back_meta == meta
    assert set(back) == set(values)
    for k in values:
        assert back[k].dtype == values[k].dtype
        assert np.array_equal(back[k], values[k])


def test_params_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(params_io.ParamsIOError):
        params_io.load_params(path)


def test_gen_writes_bundle_and_is_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["gen", "--preset", "intersim-like", "--seed", 7, "--n", 40,
            "--clusters", 3, "--out"]
    assert run(argv + [out_a]) == cli.EXIT_OK
    assert run(argv + [out_b]) == cli.EXIT_OK
    names = sorted(os.listdir(out_a))
    assert "labels.csv" in names and "manifest.json" in names
    mods = [n for n in names if n.endswith(".csv") and n != "labels.csv"]
    assert len(mods) == 3
    for n in names:
        if n.endswith(".csv"):
            assert (out_a / n).read_bytes() == (out_b / n).read_bytes()


def test_gen_scalability_modalities(tmp_path):
    out = tmp_path / "scal"
    code = run(["gen", "--preset", "scalability", "--modalities", 6,
                "--n", 30, "--seed", 1, "--out", out])
    assert code == cli.EXIT_OK
    mods = [n for n in os.listdir(out)
            if n.endswith(".csv") and n != "labels.csv"]
    assert len(mods) == 6


def test_gen_with_scenario(tmp_path):
    out = tmp_path / "masked"
    code = run(["gen", "--preset", "intersim-like", "--n", 40, "--clusters", 2,
                "--scenario", "random_mask", "--ratio", 0.4, "--seed", 2,
                "--out", out])
    assert code == cli.EXIT_OK
    ds = dm.load_bundle(out)
    assert 0 < (ds.mask == 0).sum()


def test_train_then_eval_pipeline(tmp_path, bundle, config_file):
    out = tmp_path / "run"
    code = run(["train", "--dataset", bundle, "--config", config_file,
                "--out", out])
    assert code == cli.EXIT_OK
    for name in ("params.bin", "losses.csv", "attention.csv", "Z_final.csv",
                 "report.json", "manifest.json"):
        assert (out / name).exists(), name

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert set(manifest["artifacts"]) >= {"params.bin", "losses.csv"}

    losses = (out / "losses.csv").read_text().strip().split("\n")
    assert losses[0] == "epoch,ce,kl,total,lr"
    assert len(losses) == 1 + FAST_CONFIG["epochs"]

    eval_out = tmp_path / "eval"
    code = run(["eval", "--dataset", bundle, "--params", out / "params.bin",
                "--split", "test", "--out", eval_out])
    assert code == cli.EXIT_OK
    metrics = json.loads((eval_out / "metrics_test.json").read_text())
    assert set(metrics) >= {"accuracy", "macro_f1", "mcc"}

    # eval reproduces the metrics recorded at train time
    report = json.loads((out / "report.json").read_text())
    assert metrics == report["test_metrics"]


def test_eval_missing_params_is_config_error(tmp_path, bundle):
    code = run(["eval", "--dataset", bundle, "--params",
                tmp_path / "missing.bin", "--out", tmp_path / "e"])
    assert code == cli.EXIT_CONFIG


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    ds = dm.gen_clusters(n=60, clusters=2, dims=(6, 6, 6), cluster_sep=3.0,
                         noise_sd=0.3, seed=0)
    dm.save_csv(ds, root / "data")
    (root / "config.json").write_text(json.dumps({"seed": 0, **FAST_CONFIG}))
    assert run(["train", "--dataset", root / "data", "--config",
                root / "config.json", "--out", root / "run"]) == cli.EXIT_OK
    return root


def eval_with(trained_run, tmp_path, params_path):
    return run(["eval", "--dataset", trained_run / "data", "--params",
                params_path, "--out", tmp_path / "e"])


def test_params_truncated_raises_params_error(trained_run, tmp_path):
    blob = (trained_run / "run" / "params.bin").read_bytes()
    path = tmp_path / "cut.bin"
    for cut in (6, 10, 20, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(params_io.ParamsIOError):
            params_io.load_params(path)


def test_eval_truncated_params_is_config_error(trained_run, tmp_path, capsys):
    blob = (trained_run / "run" / "params.bin").read_bytes()
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:10])
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    assert "truncated" in capsys.readouterr().err


def rewrite_params(trained_run, tmp_path, edit):
    values, meta = params_io.load_params(trained_run / "run" / "params.bin")
    edit(values)
    path = tmp_path / "edited.bin"
    params_io.save_params(path, values, meta)
    return path


def test_eval_missing_tensor_is_config_error(trained_run, tmp_path, capsys):
    path = rewrite_params(trained_run, tmp_path,
                          lambda v: v.pop(sorted(v)[0]))
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    assert "missing" in capsys.readouterr().err


def test_eval_unexpected_tensor_is_config_error(trained_run, tmp_path):
    path = rewrite_params(trained_run, tmp_path,
                          lambda v: v.update(extra=np.zeros(3)))
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG


def test_eval_same_size_wrong_shape_is_config_error(trained_run, tmp_path,
                                                     capsys):
    def transpose_one(values):
        name = next(k for k, v in sorted(values.items())
                    if v.ndim == 2 and v.shape[0] != v.shape[1])
        values[name] = np.ascontiguousarray(values[name].T)

    path = rewrite_params(trained_run, tmp_path, transpose_one)
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    assert "wrong shape" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["config", "split_seed"])
def test_eval_meta_without_key_is_config_error(trained_run, tmp_path, capsys,
                                               key):
    values, meta = params_io.load_params(trained_run / "run" / "params.bin")
    del meta[key]
    path = tmp_path / "no_meta_key.bin"
    params_io.save_params(path, values, meta)
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [{"feature_dims": [0, 6, 6]},
                                  {"feature_dims": [6, -1, 6]},
                                  {"feature_dims": []}, {"n_classes": 0}])
def test_eval_meta_nonpositive_size_is_config_error(trained_run, tmp_path,
                                                    capsys, edit):
    values, meta = params_io.load_params(trained_run / "run" / "params.bin")
    path = tmp_path / "bad_size.bin"
    params_io.save_params(path, values, {**meta, **edit})
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("edit, reported", [
    (lambda meta: {"feature_dims": [10 ** 9]}, "(1000000000, 16)"),
    (lambda meta: {"config": {**meta["config"], "gnn_layers": 10 ** 8}},
     "missing sage2.w_root"),
], ids=["feature_dims", "gnn_layers"])
def test_eval_meta_size_mismatch_fails_before_building(trained_run, tmp_path,
                                                       capsys, monkeypatch,
                                                       edit, reported):
    def no_build(*args, **kwargs):
        raise AssertionError("model built from an unchecked meta")

    monkeypatch.setattr(cli.gnn, "init_model", no_build)
    values, meta = params_io.load_params(trained_run / "run" / "params.bin")
    path = tmp_path / "huge_size.bin"
    params_io.save_params(path, values, {**meta, **edit(meta)})
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    assert reported in capsys.readouterr().err


BAD_CONFIGS = [3, "f64", [1, 2], {"heads": "x"}, {"seed": "0"},
               {"epochs": 2.5}, {"no_pmmha": 1}, {"dropout": None},
               {"heads": 0}, {"embed_dim": 0, "heads": 1},
               {"encoder_hidden": 0}, {"gnn_layers": -1}, {"epochs": -1}]


@pytest.mark.parametrize("config", BAD_CONFIGS)
def test_eval_bad_meta_config_is_config_error(trained_run, tmp_path, capsys,
                                              config):
    values, meta = params_io.load_params(trained_run / "run" / "params.bin")
    meta["config"] = (config if not isinstance(config, dict)
                      else {**meta["config"], **config})
    path = tmp_path / "bad_config.bin"
    params_io.save_params(path, values, meta)
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_eval_params_with_removed_config_key_is_config_error(
        trained_run, tmp_path, capsys):
    # params files written while RunConfig still had no_kl are refused
    values, meta = params_io.load_params(trained_run / "run" / "params.bin")
    meta["config"]["no_kl"] = False
    path = tmp_path / "old_config.bin"
    params_io.save_params(path, values, meta)
    capsys.readouterr()
    assert eval_with(trained_run, tmp_path, path) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "no_kl" in err and "Traceback" not in err


@pytest.mark.parametrize("config", BAD_CONFIGS)
def test_train_bad_config_file_is_config_error(tmp_path, bundle, capsys,
                                              config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config if not isinstance(config, dict)
                               else {"seed": 0, **FAST_CONFIG, **config}))
    code = run(["train", "--dataset", bundle, "--config", path,
                "--out", tmp_path / "r"])
    assert code == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# A value is of the right type for a RunConfig field or a meta key when it
# passes the predicate of its annotation.
RIGHT_TYPE = {
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int list": lambda v: isinstance(v, list) and all(map(_is_int, v)),
}
META_TYPES = {"feature_dims": "int list", "n_classes": "int",
              "split_seed": "int", "topk": "int | None"}
CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(tr.RunConfig)}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def wrong_type(annotation):
    return JSON.filter(lambda v: not RIGHT_TYPE[annotation](v))


@st.composite
def malformed_meta(draw, meta):
    meta = json.loads(json.dumps(meta))
    kind = draw(st.sampled_from(["meta", "drop", "meta_type", "config",
                                 "config_type", "config_key"]))
    if kind == "meta":
        return draw(JSON.filter(lambda v: not isinstance(v, dict)))
    if kind == "drop":
        del meta[draw(st.sampled_from(
            ["config", "feature_dims", "n_classes", "split_seed"]))]
    elif kind == "meta_type":
        key = draw(st.sampled_from(sorted(META_TYPES)))
        meta[key] = draw(wrong_type(META_TYPES[key]))
    elif kind == "config":
        meta["config"] = draw(JSON.filter(lambda v: not isinstance(v, dict)))
    elif kind == "config_type":
        name = draw(st.sampled_from(sorted(CONFIG_TYPES)))
        meta["config"][name] = draw(wrong_type(CONFIG_TYPES[name]))
    else:
        meta["config"][draw(st.text(max_size=6).filter(
            lambda k: k not in CONFIG_TYPES))] = draw(JSON)
    return meta


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_fuzzed_meta_is_config_error(trained_run, capsys, data):
    values, meta = params_io.load_params(trained_run / "run" / "params.bin")
    path = trained_run / "fuzzed.bin"
    params_io.save_params(path, values, data.draw(malformed_meta(meta)))
    capsys.readouterr()
    assert eval_with(trained_run, trained_run / "fuzz", path) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_manifest(root, edit):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(edit(manifest)))


def modality_file(root):
    name = json.loads((root / "manifest.json").read_text())["modality_names"][0]
    return root / f"{name}.csv"


def train_on(root, config, capsys):
    capsys.readouterr()
    code = run(["train", "--dataset", root, "--config", config,
                "--out", root / "run"])
    return code, capsys.readouterr().err


def _empty_modality(root):
    modality_file(root).write_text("")


def _one_field_label(root):
    rows = csv_rows(root / "labels.csv")
    rows[3] = rows[3][:1]
    write_rows(root / "labels.csv", rows)


def _no_modality_names(root):
    edit_manifest(root, lambda m: {k: v for k, v in m.items()
                                   if k != "modality_names"})


def _huge_field(root):
    rows = csv_rows(root / "labels.csv")
    rows[2][0] = "p" * 200_000
    write_rows(root / "labels.csv", rows)


def _huge_label(root):
    rows = csv_rows(root / "labels.csv")
    rows[1][1] = "1000000000"
    write_rows(root / "labels.csv", rows)


def _huge_negative_label(root):
    rows = csv_rows(root / "labels.csv")
    rows[1][1] = "-" + "1" * 31  # beyond int64
    write_rows(root / "labels.csv", rows)


@pytest.mark.parametrize("fault, message", [
    (_empty_modality, "no feature columns"), (_one_field_label, "label row"),
    (_no_modality_names, "modality_names"), (_huge_field, "malformed CSV"),
    (_huge_label, "label 1000000000"),
    (_huge_negative_label, "negative label")])
def test_train_malformed_bundle_is_config_error(trained_run, tmp_path, capsys,
                                                fault, message):
    root = tmp_path / "data"
    shutil.copytree(trained_run / "data", root)
    fault(root)
    code, err = train_on(root, trained_run / "config.json", capsys)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ") and message in err


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def _names_ok(value):
    return (isinstance(value, list) and bool(value)
            and all(isinstance(n, str) for n in value))


@st.composite
def bundle_fault(draw, root):
    """Break the bundle in ``root`` in one way: an empty file, a short or
    long row, a missing or wrong-typed manifest key, a non-integer label
    or a duplicate patient id."""
    kind = draw(st.sampled_from(["empty", "short", "long", "manifest",
                                 "label", "duplicate"]))
    if kind == "manifest":
        if draw(st.booleans()):
            edit_manifest(root, lambda m: draw(
                JSON.filter(lambda v: not isinstance(v, dict))))
        elif draw(st.booleans()):
            edit_manifest(root, lambda m: {k: v for k, v in m.items()
                                           if k != "modality_names"})
        else:
            value = draw(JSON.filter(lambda v: not _names_ok(v)))
            edit_manifest(root, lambda m: {**m, "modality_names": value})
        return
    path = (root / "labels.csv" if kind == "label" or draw(st.booleans())
            else modality_file(root))
    if kind == "empty":
        path.write_text("")
        return
    rows = csv_rows(path)
    j = draw(st.integers(1, len(rows) - 1))
    if kind == "short":
        rows[j] = rows[j][:draw(st.integers(1, len(rows[j]) - 1))]
    elif kind == "long":
        rows[j] = rows[j] + draw(st.lists(st.sampled_from(["0", "1.5", "x", ""]),
                                          min_size=1, max_size=3))
    elif kind == "label":
        rows[j][1] = draw(st.text(max_size=5).filter(_not_int))
    else:
        rows.insert(draw(st.integers(1, len(rows))), rows[j])
    write_rows(path, rows)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_train_fuzzed_bundle_is_config_error(trained_run, capsys, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "data"
        shutil.copytree(trained_run / "data", root)
        data.draw(bundle_fault(root))
        code, err = train_on(root, trained_run / "config.json", capsys)
    assert code == cli.EXIT_CONFIG
    assert "Traceback" not in err


def test_scripts_print_help():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    scripts = sorted((root / "scripts").glob("*.py"))
    assert len(scripts) == 5
    for script in scripts:
        done = subprocess.run([sys.executable, str(script), "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (script.name, done.stderr)


def test_bad_config_key_is_config_error(tmp_path, bundle):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 0, "learnig_rate": 0.1}))
    code = run(["train", "--dataset", bundle, "--config", bad,
                "--out", tmp_path / "r"])
    assert code == cli.EXIT_CONFIG


def test_divergence_exit_code(tmp_path, bundle):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({"seed": 0, **FAST_CONFIG,
                               "learning_rate": 1e200, "epochs": 10}))
    code = run(["train", "--dataset", bundle, "--config", cfg,
                "--out", tmp_path / "d"])
    assert code == cli.EXIT_DIVERGED


def test_seed_flag_overrides_config(tmp_path, bundle, config_file):
    out = tmp_path / "seeded"
    code = run(["train", "--dataset", bundle, "--config", config_file,
                "--seed", 42, "--out", out])
    assert code == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


def test_sweep_writes_curve(tmp_path, bundle, config_file):
    out = tmp_path / "sweep"
    code = run(["sweep", "--dataset", bundle, "--config", config_file,
                "--scenario", "random_mask", "--levels", "0,0.4",
                "--repeats", 2, "--out", out])
    assert code == cli.EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("level,repeat")
    assert len(lines) == 1 + 2 * 2
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [s["level"] for s in summary] == [0.0, 0.4]


def test_sweep_parallel_matches_serial(tmp_path, bundle, config_file):
    serial, par = tmp_path / "s", tmp_path / "p"
    argv = ["sweep", "--dataset", bundle, "--config", config_file,
            "--scenario", "random_mask", "--levels", "0.2", "--repeats", 2]
    assert run(argv + ["--out", serial]) == cli.EXIT_OK
    assert run(argv + ["--out", par, "--jobs", 2]) == cli.EXIT_OK
    assert (serial / "sweep.csv").read_text() == (par / "sweep.csv").read_text()


def test_sweep_rows_match_scenario_sweep(tmp_path, bundle, config_file):
    # the command runs each point apart, under the library's seed rule
    out = tmp_path / "sweep"
    assert run(["sweep", "--dataset", bundle, "--config", config_file,
                "--seed", 7, "--scenario", "random_mask", "--levels", "0,0.4",
                "--repeats", 2, "--out", out]) == cli.EXIT_OK
    with open(out / "sweep.csv", newline="") as fh:
        got = [{k: v for k, v in r.items() if v != ""}
               for r in csv.DictReader(fh)]
    config = tr.RunConfig(seed=7, **FAST_CONFIG)
    want = tr.run_scenario_sweep(dm.load_bundle(bundle), "random_mask",
                                 [0.0, 0.4], 2, config)
    assert got == [{k: str(v) for k, v in r.items()} for r in want]


@pytest.mark.parametrize("repeats", [0, -1])
def test_sweep_without_repeats_is_config_error(tmp_path, bundle, config_file,
                                               capsys, repeats):
    code = run(["sweep", "--dataset", bundle, "--config", config_file,
                "--scenario", "random_mask", "--levels", "0.2",
                "--repeats", repeats, "--out", tmp_path / "s"])
    assert code == cli.EXIT_CONFIG
    assert "repeats" in capsys.readouterr().err


def test_thread_env_caps_jobs(monkeypatch):
    monkeypatch.setenv("MAGNET_KIT_THREADS", "1")

    class Args:
        jobs = 8

    assert cli._jobs(Args()) == 1
    monkeypatch.delenv("MAGNET_KIT_THREADS")
    assert cli._jobs(Args()) == 8


def test_bench_writes_fit(tmp_path):
    out = tmp_path / "bench"
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"seed": 0, **FAST_CONFIG, "epochs": 2,
                               "sparsity_rate": 0.9, "precision": "f32"}))
    code = run(["bench", "--config", cfg, "--modalities", "2,3",
                "--repeats", 1, "--features", 20, "--out", out])
    assert code == cli.EXIT_OK
    fit = json.loads((out / "bench_fit.json").read_text())
    assert set(fit) == {"slope", "intercept", "r2"}
    lines = (out / "bench.csv").read_text().strip().split("\n")
    assert lines[0] == "M,repeat,seconds"
    assert len(lines) == 3


@pytest.mark.parametrize("counts", [["--repeats", 0], ["--repeats", -2],
                                    ["--modalities", "3"],
                                    ["--modalities", "3,3"]])
def test_bench_without_a_fit_is_config_error(tmp_path, capsys, counts):
    # no repeat, or one distinct modality count, leaves no line to fit
    code = run(["bench", "--modalities", "2,3", "--repeats", 1,
                "--features", 20, *counts, "--out", tmp_path / "b"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_graph_stats(tmp_path, bundle, config_file):
    out = tmp_path / "gstats"
    code = run(["graph-stats", "--dataset", bundle, "--config", config_file,
                "--out", out])
    assert code == cli.EXIT_OK
    stats = json.loads((out / "graph_stats.json").read_text())
    assert set(stats) >= {"node_homophily", "edge_homophily",
                          "random_baseline", "degree", "n_edges"}
    assert stats["degree"]["min"] >= 1
    edges = (out / "edges.csv").read_text().strip().split("\n")
    assert edges[0] == "u,v,similarity,tag"
    assert len(edges) == 1 + stats["n_edges"]


def test_ablate_table(tmp_path, bundle, config_file):
    out = tmp_path / "abl"
    cfg = tmp_path / "abl.json"
    cfg.write_text(json.dumps({"seed": 0, **FAST_CONFIG, "epochs": 3}))
    code = run(["ablate", "--dataset", bundle, "--config", cfg, "--out", out])
    assert code == cli.EXIT_OK
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert len(lines) == 6  # header + full + A1..A4
    assert lines[0].startswith("variant,")


def test_train_without_attention_fusion_writes_attention(tmp_path, bundle):
    # A1 fuses with fixed equal weights: one head, each patient's row
    # summing to 1 over its modalities
    cfg = tmp_path / "a1.json"
    cfg.write_text(json.dumps({"seed": 0, **FAST_CONFIG, "no_pmmha": True}))
    out = tmp_path / "a1"
    code = run(["train", "--dataset", bundle, "--config", cfg, "--out", out])
    assert code == cli.EXIT_OK
    assert "attention.csv" in json.loads(
        (out / "manifest.json").read_text())["artifacts"]
    with open(out / "attention.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sums = {}
    for r in rows:
        key = (r["patient_id"], r["head"])
        sums[key] = sums.get(key, 0.0) + float(r["weight"])
    assert {head for _, head in sums} == {"0"}
    assert len(sums) == 60 and len(rows) == 60 * 3
    assert all(abs(v - 1.0) < 1e-5 for v in sums.values())


def test_gen_does_not_mutate_inputs(tmp_path, bundle, config_file):
    before = {n: (bundle / n).read_bytes() for n in os.listdir(bundle)}
    run(["train", "--dataset", bundle, "--config", config_file,
         "--out", tmp_path / "ro"])
    after = {n: (bundle / n).read_bytes() for n in os.listdir(bundle)}
    assert before == after
