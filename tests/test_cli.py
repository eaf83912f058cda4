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

from magnetkit import cli, gnn, params_io
from magnetkit import datamodel as dm
from magnetkit import trainer as tr
from oracles import write_embeddings_csv


ROOT = pathlib.Path(__file__).resolve().parents[1]

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


@pytest.mark.parametrize("preset", ["intersim-like", "scalability"])
@pytest.mark.parametrize("modalities", [0, -1])
def test_gen_modalities_below_one_is_config_error(tmp_path, capsys, preset,
                                                  modalities):
    code = run(["gen", "--preset", preset, "--n", 40, "--clusters", 2,
                "--modalities", modalities, "--out", tmp_path / "g"])
    assert code == cli.EXIT_CONFIG
    assert "modalities must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--clusters", 0], "clusters must be in [1, n = 500], not 0"),
    (["gen", "--clusters", -2, "--n", 10],
     "clusters must be in [1, n = 10], not -2"),
    (["gen", "--preset", "scalability", "--n", 0],
     "sizes must be at least 1: n = 0, features_per_modality = 1000"),
    (["bench", "--features", -1, "--modalities", "2,3", "--repeats", 1],
     "features_per_modality = -1"),
], ids=["clusters-0", "clusters-negative", "scalability-n-0",
        "features-negative"])
def test_generator_size_below_one_is_config_error(tmp_path, capsys, argv,
                                                  message):
    assert run([*argv, "--out", tmp_path / "g"]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_gen_ratio_without_scenario_is_config_error(tmp_path, capsys):
    code = run(["gen", "--n", 40, "--clusters", 2, "--ratio", 0.5,
                "--out", tmp_path / "g"])
    assert code == cli.EXIT_CONFIG
    assert "--ratio needs a --scenario" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_quoted_ids_keep_output_rows_whole(tmp_path, config_file):
    ds = dm.gen_clusters(n=60, clusters=2, dims=(6, 6, 6), cluster_sep=3.0,
                         noise_sd=0.3, seed=0)
    ids = [f"p{j:05d}" for j in range(ds.n_patients)]
    ids[3], ids[7] = "p,3", 'p"q'
    dm.save_csv(dataclasses.replace(ds, patient_ids=ids), tmp_path / "data")
    out = tmp_path / "run"
    assert run(["train", "--dataset", tmp_path / "data", "--config",
                config_file, "--out", out]) == cli.EXIT_OK
    for name, width in (("Z_final.csv", 1 + FAST_CONFIG["embed_dim"]),
                        ("attention.csv", 4)):
        rows = csv_rows(out / name)
        assert {len(r) for r in rows} == {width}, name
        assert {r[0] for r in rows[1:]} == set(ids), name


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


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_train_report_holds_the_eval_train_split_metrics(tmp_path, bundle,
                                                         config_file,
                                                         precision):
    out = tmp_path / "run"
    assert run(["train", "--dataset", bundle, "--config", config_file,
                "--precision", precision, "--out", out]) == cli.EXIT_OK
    assert run(["eval", "--dataset", bundle, "--params", out / "params.bin",
                "--split", "train", "--out", tmp_path / "e"]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())["report"]
    assert list(report)[-1] == "final_train_metrics"
    metrics = json.loads((tmp_path / "e" / "metrics_train.json").read_text())
    assert report["final_train_metrics"] == metrics


def test_train_runs_one_evaluation_forward(tmp_path, bundle, config_file,
                                           monkeypatch):
    # the test and training splits are scored from the same forward
    modes = []
    forward = gnn.forward
    monkeypatch.setattr(gnn, "forward", lambda *a, **k: modes.append(
        k["training"]) or forward(*a, **k))
    assert run(["train", "--dataset", bundle, "--config", config_file,
                "--out", tmp_path / "run"]) == cli.EXIT_OK
    assert modes.count(False) == 1
    assert modes.count(True) == FAST_CONFIG["epochs"]


def test_eval_missing_params_is_config_error(tmp_path, bundle):
    code = run(["eval", "--dataset", bundle, "--params",
                tmp_path / "missing.bin", "--out", tmp_path / "e"])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("flag, value", [("--config", "run.json"),
                                         ("--seed", "3"),
                                         ("--precision", "f32")])
def test_eval_rejects_the_train_config_flags(tmp_path, capsys, flag, value):
    # eval takes its config from the params file, so these flags are not
    # accepted rather than silently ignored; nothing is read or written
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--dataset", tmp_path / "data", "--params",
             tmp_path / "params.bin", flag, value, "--out", tmp_path / "e"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_train_topk_zero_is_config_error(tmp_path, bundle, config_file,
                                         capsys):
    code = run(["train", "--dataset", bundle, "--config", config_file,
                "--topk", 0, "--out", tmp_path / "r"])
    assert code == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_directory_as_input_file_is_config_error(tmp_path, bundle):
    code = run(["train", "--dataset", bundle, "--config", tmp_path,
                "--out", tmp_path / "r"])
    assert code == cli.EXIT_CONFIG
    code = run(["eval", "--dataset", bundle, "--params", tmp_path,
                "--out", tmp_path / "e"])
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


@pytest.mark.parametrize("name", ["../outside", "sub/m0", ".", ".."])
def test_modality_name_that_is_not_a_file_name_is_config_error(
        tmp_path, bundle, config_file, capsys, name):
    # a readable modality file outside the bundle must not be reached
    shutil.copy(modality_file(bundle), tmp_path / "outside.csv")
    (bundle / "sub").mkdir()
    shutil.copy(modality_file(bundle), bundle / "sub" / "m0.csv")
    edit_manifest(bundle, lambda m: {
        **m, "modality_names": [name, *m["modality_names"][1:]]})
    code, err = train_on(bundle, config_file, capsys)
    assert code == cli.EXIT_CONFIG
    assert f"modality name {name!r} is not a file name" in err


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


def src_env():
    """The environment with the package sources first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_scripts_print_help():
    env = src_env()
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert len(scripts) == 3
    for script in scripts:
        done = subprocess.run([sys.executable, str(script), "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (script.name, done.stderr)


@pytest.mark.parametrize("study", ["ablation", "missingness", "scalability"])
def test_reproduce_study_prints_help(study):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce.py"),
                           study, "--help"], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "--epochs" in done.stdout and "--seed" in done.stdout


def test_module_entry_point_prints_help():
    done = subprocess.run([sys.executable, "-m", "magnetkit", "--help"],
                          env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "graph-stats" in done.stdout


def test_cli_import_loads_no_scipy_linalg_or_spatial():
    # the package needs scipy.sparse alone; scipy.linalg and scipy.spatial
    # each add several MB to every process that loads them
    probe = ("import sys, magnetkit.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'linalg'], "
             "['scipy', 'spatial'])))")
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fields", [dm.FIELDS_PER_WRITE, 16, 1])
def test_embedding_csv_bytes_match_per_row_writer(tmp_path, monkeypatch,
                                                  dtype, fields):
    # 16 fields are 2 rows of 7: the last of the 11 rows is a short block
    rng = np.random.default_rng(5)
    emb = (rng.normal(size=(11, 6)) * 10.0 ** rng.integers(-9, 9, size=(11, 6))
           ).astype(dtype)
    emb[0, :3] = [0.0, -0.0, 1.0]
    ids = [f"p{j:05d}" for j in range(len(emb))]
    ids[1:3] = ["p,3", 'p"q']
    monkeypatch.setattr(dm, "FIELDS_PER_WRITE", fields)
    cli._write_embeddings_csv(tmp_path / "blocks.csv", ids, emb)
    write_embeddings_csv(tmp_path / "rows.csv", ids, emb)
    assert (tmp_path / "blocks.csv").read_bytes() == \
        (tmp_path / "rows.csv").read_bytes()


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_loads_the_bundle_once(tmp_path, bundle, config_file,
                                     monkeypatch, jobs):
    # in this process, whatever --jobs is; workers get the loaded dataset
    loads = []
    load = dm.load_bundle
    monkeypatch.setattr(dm, "load_bundle",
                        lambda path: loads.append(path) or load(path))
    assert run(["sweep", "--dataset", bundle, "--config", config_file,
                "--scenario", "random_mask", "--levels", "0,0.4",
                "--repeats", 2, "--jobs", jobs,
                "--out", tmp_path / "s"]) == cli.EXIT_OK
    assert len(loads) == 1


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


@pytest.mark.parametrize("command", ["sweep", "gen"])
def test_intact_modality_out_of_range_is_config_error(tmp_path, bundle,
                                                      config_file, capsys,
                                                      command):
    argv = (["sweep", "--dataset", bundle, "--config", config_file,
             "--levels", "0,0.4", "--repeats", 1] if command == "sweep" else
            ["gen", "--preset", "intersim-like", "--n", 40, "--clusters", 2,
             "--ratio", 0.4])
    code = run(argv + ["--scenario", "intact_one", "--intact-modality", 9,
                       "--out", tmp_path / "out"])
    assert code == cli.EXIT_CONFIG
    assert "intact modality 9" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["random_mask", "shared_core"])
@pytest.mark.parametrize("command", ["sweep", "gen"])
def test_intact_modality_with_another_scenario_is_config_error(
        tmp_path, bundle, config_file, capsys, command, scenario):
    argv = (["sweep", "--dataset", bundle, "--config", config_file,
             "--levels", "0,0.4", "--repeats", 1] if command == "sweep" else
            ["gen", "--preset", "intersim-like", "--n", 40, "--clusters", 2,
             "--ratio", 0.4])
    code = run(argv + ["--scenario", scenario, "--intact-modality", 1,
                       "--out", tmp_path / "out"])
    assert code == cli.EXIT_CONFIG
    assert "--intact-modality applies to --scenario intact_one" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gen_intact_one_keeps_modality_0_by_default(tmp_path):
    argv = ["gen", "--preset", "intersim-like", "--n", 40, "--clusters", 2,
            "--ratio", 0.4]
    assert run(argv + ["--scenario", "intact_one", "--out",
                       tmp_path / "one"]) == cli.EXIT_OK
    mask = dm.load_bundle(tmp_path / "one").mask
    assert mask[:, 0].all() and not mask[:, 1:].all()
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert manifest["scenario"]["intact_modality"] == 0
    # a scenario with no intact modality records none
    assert run(argv + ["--scenario", "random_mask", "--out",
                       tmp_path / "random"]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "random" / "manifest.json").read_text())
    assert manifest["scenario"]["intact_modality"] is None


@pytest.mark.parametrize("repeats", [0, -1])
def test_sweep_without_repeats_is_config_error(tmp_path, bundle, config_file,
                                               capsys, repeats):
    code = run(["sweep", "--dataset", bundle, "--config", config_file,
                "--scenario", "random_mask", "--levels", "0.2",
                "--repeats", repeats, "--out", tmp_path / "s"])
    assert code == cli.EXIT_CONFIG
    assert "repeats" in capsys.readouterr().err


def fill(argv, tmp_path, bundle):
    """``argv`` with its upper-case words replaced by paths; FILE is a file
    that exists, and OUT and MISSING do not exist."""
    (tmp_path / "file").write_text("")
    paths = {"BUNDLE": bundle, "MISSING": tmp_path / "missing",
             "OUT": tmp_path / "out", "FILE": tmp_path / "file",
             "FILE/run": tmp_path / "file" / "run"}
    return [paths.get(a, a) for a in argv]


SWEEP = ["sweep", "--dataset", "BUNDLE", "--scenario", "random_mask"]
BENCH = ["bench", "--repeats", 1, "--features", 20]


@pytest.mark.parametrize("argv", [
    ["train", "--dataset", "MISSING"],
    ["eval", "--dataset", "BUNDLE", "--params", "MISSING"],
    ["ablate", "--dataset", "MISSING"],
    [*SWEEP, "--repeats", 0],
    [*SWEEP, "--jobs", 0],
    [*SWEEP, "--jobs", -3],
    [*SWEEP, "--levels", "0,0.9"],
    [*BENCH, "--modalities", "2,11"],
    ["graph-stats", "--dataset", "MISSING"],
], ids=["train-bundle", "eval-params", "ablate-bundle", "sweep-repeats",
        "sweep-jobs-0", "sweep-jobs-negative", "sweep-levels",
        "bench-modalities", "graph-stats-bundle"])
def test_rejected_command_leaves_no_out(tmp_path, bundle, config_file,
                                        capsys, argv):
    # eval takes no --config: its config is in the params file
    config = [] if argv[0] == "eval" else ["--config", config_file]
    code = run(fill([*argv, *config, "--out", "OUT"], tmp_path, bundle))
    assert code == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    [*SWEEP, "--levels", "0,0.9", "--out", "OUT"],
    [*SWEEP, "--jobs", 0, "--out", "OUT"],
    [*SWEEP, "--jobs", -3, "--out", "OUT"],
    [*BENCH, "--modalities", "2,11", "--out", "OUT"],
    ["train", "--dataset", "BUNDLE", "--out", "FILE"],
    ["train", "--dataset", "BUNDLE", "--out", "FILE/run"],
    [*SWEEP, "--out", "FILE"],
], ids=["sweep-levels", "sweep-jobs-0", "sweep-jobs-negative",
        "bench-modalities", "train-out-file",
        "train-out-under-file", "sweep-out-file"])
def test_rejected_grid_or_out_runs_no_training(tmp_path, bundle, config_file,
                                               monkeypatch, argv):
    calls = []
    train = tr.train
    monkeypatch.setattr(tr, "train",
                        lambda *a, **k: calls.append(a) or train(*a, **k))
    code = run(fill([*argv, "--config", config_file], tmp_path, bundle))
    assert code == cli.EXIT_CONFIG
    assert calls == []


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
