"""``scripts/reproduce.py``: each study runs the ``magnetkit`` commands on
the paper's config, and its tables hold the rows the library harnesses
give on the same data in memory."""

import csv
import importlib.util
import json
from pathlib import Path

from magnetkit import cli
from magnetkit import datamodel as dm
from magnetkit import trainer as tr

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "reproduce", ROOT / "scripts" / "reproduce.py")
reproduce = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reproduce)

# the clustered benchmark's config, as the per-study scripts stated it
PAPER = dict(embed_dim=32, heads=2, encoder_hidden=64, gnn_layers=2,
             sparsity_rate=0.9, dropout=0.1, learning_rate=3e-3)


def table(path):
    """The rows of a CSV table, without their empty fields."""
    with open(path, newline="") as fh:
        return [{k: v for k, v in r.items() if v != ""}
                for r in csv.DictReader(fh)]


def as_written(rows):
    return [{k: str(v) for k, v in r.items() if v is not None} for r in rows]


def test_ablation_rows_match_run_ablation(tmp_path):
    out = tmp_path / "ablation"
    assert reproduce.main(["ablation", "--seed", "3", "--epochs", "2",
                           "--out", str(out)]) == cli.EXIT_OK
    assert "ablation.csv" in json.loads(
        (out / "manifest.json").read_text())["artifacts"]
    ds = dm.apply_scenario(dm.gen_clusters(seed=3), dm.ScenarioSpec(
        kind="random_mask", ratio=0.3, seed=3))
    prepped, assignment = dm.split_and_preprocess(ds, 3)
    results = tr.run_ablation(prepped, tr.RunConfig(seed=3, epochs=2, **PAPER),
                              assignment)
    assert table(out / "ablation.csv") == as_written(
        {"variant": name, "final_loss": res["final_loss"],
         "param_count": res["param_count"], **res["test_metrics"]}
        for name, res in results.items())


def test_missingness_rows_match_scenario_sweep(tmp_path):
    out = tmp_path / "missingness"
    assert reproduce.main(["missingness", "--seed", "3", "--epochs", "2",
                           "--levels", "0,0.4", "--repeats", "1",
                           "--out", str(out)]) == cli.EXIT_OK
    base = dm.gen_clusters(seed=3)
    config = tr.RunConfig(seed=3, epochs=2, **PAPER)
    for kind in ("intact_one", "shared_core", "random_mask"):
        assert (out / kind / "manifest.json").exists()
        assert table(out / kind / "sweep.csv") == as_written(
            tr.run_scenario_sweep(base, kind, [0.0, 0.4], 1, config))


def test_scalability_runs_bench_on_the_f32_config(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(reproduce.cli, "main",
                        lambda argv: calls.append(argv) or cli.EXIT_OK)
    assert reproduce.main(["scalability", "--repeats", "2",
                           "--out", str(tmp_path)]) == cli.EXIT_OK
    config = str(tmp_path / "config.json")
    assert calls == [["bench", "--config", config, "--repeats", "2",
                      "--out", str(tmp_path)]]
    assert tr.RunConfig.from_dict(json.loads(Path(config).read_text())) == \
        tr.RunConfig(seed=0, epochs=30, **{**PAPER, "dropout": 0.0,
                                           "learning_rate": 1e-3},
                     precision="f32")


def test_first_failing_command_ends_the_study(tmp_path, capsys):
    # a ratio above 0.8 is refused by gen, so ablate never runs
    out = tmp_path / "ablation"
    assert reproduce.main(["ablation", "--ratio", "0.9",
                           "--out", str(out)]) == cli.EXIT_CONFIG
    assert "scenario ratio" in capsys.readouterr().err
    assert not (out / "ablation.csv").exists()
