import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import datamodel as dm
from magnetkit import numerics as nm
from magnetkit import trainer as tr
from oracles import add_parameter


FAST = dict(embed_dim=16, heads=2, encoder_hidden=16, gnn_layers=2,
            sparsity_rate=0.5, dropout=0.0, epochs=8, learning_rate=3e-3)


def toy_dataset(seed=0, n=60, clusters=2, dims=(6, 6, 6)):
    return dm.gen_clusters(n=n, clusters=clusters, dims=dims,
                           cluster_sep=3.0, noise_sd=0.3, seed=seed)


def prepared(seed=0, **gen_kw):
    ds = toy_dataset(seed=seed, **gen_kw)
    assignment = dm.split(ds, seed=seed)
    return dm.preprocess(ds, split=assignment), assignment


def test_config_validation():
    with pytest.raises(tr.ConfigError):
        tr.RunConfig(seed=0, precision="f16")
    with pytest.raises(tr.ConfigError):
        tr.RunConfig(seed=0, lam=-0.1)
    with pytest.raises(tr.ConfigError):
        tr.RunConfig(seed=0, sparsity_rate=1.0)
    with pytest.raises(tr.ConfigError):
        tr.RunConfig(seed=0, embed_dim=10, heads=4)
    tr.RunConfig(seed=0, gnn_layers=0, epochs=0)  # A2; nothing trained


def test_config_dict_roundtrip_rejects_unknown_keys():
    cfg = tr.RunConfig(seed=3, lam=0.25)
    back = tr.RunConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(tr.ConfigError):
        tr.RunConfig.from_dict({"seed": 1, "learnig_rate": 0.1})


def test_learning_rate_schedule_exact():
    cfg = tr.RunConfig(seed=0, learning_rate=3.2e-4, lr_decay=0.8,
                       decay_every=20)
    for epoch in range(0, 200):
        expected = 3.2e-4 * 0.8 ** (epoch // 20)
        assert tr.learning_rate_at(cfg, epoch) == expected
    assert tr.learning_rate_at(cfg, 0) == 3.2e-4
    assert tr.learning_rate_at(cfg, 19) == 3.2e-4
    assert tr.learning_rate_at(cfg, 20) == pytest.approx(2.56e-4)
    assert tr.learning_rate_at(cfg, 40) == pytest.approx(2.048e-4)


def test_adam_minimizes_quadratic():
    g = nm.ComputeGraph()
    x = add_parameter(g, "x", [5.0, -3.0])
    state = tr.AdamState.for_params(g.flat)
    for _ in range(800):
        x.grad_out[...] = 2.0 * x.data
        tr.adam_step(g, state, lr=0.05)
    assert np.all(np.abs(x.data) < 1e-3)


def reference_adam(values, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                   eps=1e-8):
    """Out-of-place Adam: new value, first and second moment arrays."""
    out = {}
    for name, g in grads.items():
        g = g.astype(values[name].dtype, copy=False)
        m[name] = beta1 * m[name] + (1 - beta1) * g
        v[name] = beta2 * v[name] + (1 - beta2) * (g * g)
        m_hat = m[name] / (1 - beta1 ** t)
        v_hat = v[name] / (1 - beta2 ** t)
        out[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def check_adam_against_reference(shapes, dtype, steps, seed):
    """Run the flat chunked Adam and ``reference_adam`` side by side on
    parameters of the given shapes: values and moments bit for bit, the
    parameter arrays updated in place."""
    rng = np.random.default_rng(seed)
    g = nm.ComputeGraph(dtype)
    for name, shape in shapes.items():
        add_parameter(g, name, rng.normal(size=shape))
    arrays = g.values()
    ref = {k: a.copy() for k, a in arrays.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    state = tr.AdamState.for_params(g.flat)
    for t in range(1, steps + 1):
        grads = {k: rng.normal(size=a.shape) for k, a in ref.items()}
        for k, grad in grads.items():
            g.params[k].grad_out[...] = grad
        lr = 1e-2 * 0.8 ** (t // 10)
        tr.adam_step(g, state, lr)
        ref = reference_adam(ref, grads, m, v, t, lr)
        for k in ref:
            assert g.params[k].data is arrays[k]
            assert arrays[k].dtype == dtype
            assert np.array_equal(arrays[k], ref[k])
        assert np.array_equal(state.m, np.concatenate([m[k].ravel() for k in ref]))
        assert np.array_equal(state.v, np.concatenate([v[k].ravel() for k in ref]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_in_place_bit_equal_to_out_of_place(dtype):
    check_adam_against_reference({"w": (7, 5), "b": (5,)}, dtype, steps=40,
                                 seed=0)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.sampled_from([1, 7, tr.ADAM_CHUNK - 1, tr.ADAM_CHUNK,
                                 tr.ADAM_CHUNK + 1]), min_size=1, max_size=4),
       st.sampled_from([np.float64, np.float32]), st.integers(0, 2 ** 31 - 1))
def test_chunked_adam_bit_equal_across_chunk_edges(sizes, dtype, seed):
    # tensors that end inside, at and just past a chunk, so chunks span
    # tensor boundaries and the last chunk is partial
    check_adam_against_reference({f"p{i}": (s,) for i, s in enumerate(sizes)},
                                 dtype, steps=3, seed=seed)


def test_adam_rejects_nonfinite_gradient():
    # one check over the flat gradient; the error names the tensor and
    # nothing is updated
    for bad in (np.nan, np.inf, -np.inf):
        g = nm.ComputeGraph()
        for name, size in (("a", 3), ("b", tr.ADAM_CHUNK + 2), ("c", 4)):
            add_parameter(g, name, np.ones(size))
        g.params["b"].grad_out[tr.ADAM_CHUNK + 1] = bad
        state = tr.AdamState.for_params(g.flat)
        with pytest.raises(tr.DivergenceError, match="'b'"):
            tr.adam_step(g, state, lr=0.1)
        assert np.all(g.flat == 1.0) and state.step == 0


def test_label_guard_counts_and_raises():
    guard = tr.LabelGuard(np.arange(10), allowed=[0, 1, 2])
    assert guard.take([0, 2]).tolist() == [0, 2]
    assert guard.reads == 2
    with pytest.raises(RuntimeError):
        guard.take([5])
    assert guard.violations == 1


def test_train_separable_two_clusters_perfect_train_accuracy():
    ds, assignment = prepared(seed=0)
    cfg = tr.RunConfig(seed=0, epochs=60, **{k: v for k, v in FAST.items()
                                             if k != "epochs"})
    trained, report = tr.train(ds, cfg, assignment)
    assert report.final_train_metrics["accuracy"] == 1.0
    assert report.label_violations == 0
    assert report.crossing_edges_in_train_view == 0
    assert len(report.loss_log) == 60


def test_train_deterministic_to_the_last_bit():
    ds, assignment = prepared(seed=1)
    cfg = tr.RunConfig(seed=1, **FAST)
    _, r1 = tr.train(ds, cfg, assignment)
    t2, r2 = tr.train(ds, cfg, assignment)
    assert r1.loss_log == r2.loss_log
    t3, _ = tr.train(ds, cfg, assignment)
    for k, v in t2.values.items():
        assert np.array_equal(v, t3.values[k])


def test_train_loss_log_matches_schedule():
    ds, assignment = prepared(seed=2)
    cfg = tr.RunConfig(seed=2, **{**FAST, "epochs": 25, "decay_every": 10})
    _, report = tr.train(ds, cfg, assignment)
    for epoch, ce, kl, total, lr in report.loss_log:
        assert lr == cfg.learning_rate * 0.8 ** (epoch // 10)
        assert total == pytest.approx(ce + cfg.lam * kl, rel=1e-9)


def test_train_kl_logged_zero_when_disabled():
    ds, assignment = prepared(seed=4)
    cfg = tr.RunConfig(seed=4, **{**FAST, "lam": 0.0})
    _, report = tr.train(ds, cfg, assignment)
    assert all(row[2] == 0.0 for row in report.loss_log)


def test_train_diverges_cleanly_on_huge_learning_rate():
    ds, assignment = prepared(seed=5)
    cfg = tr.RunConfig(seed=5, **{**FAST, "learning_rate": 1e200, "epochs": 10})
    with pytest.raises(tr.DivergenceError):
        tr.train(ds, cfg, assignment)


def test_f32_precision_casts_parameters():
    ds, assignment = prepared(seed=6)
    cfg = tr.RunConfig(seed=6, precision="f32", **{**FAST, "epochs": 2})
    trained, _ = tr.train(ds, cfg, assignment)
    assert all(v.dtype == np.float32 for v in trained.values.values())


def test_trained_values_are_the_model_arrays(monkeypatch):
    ds, assignment = prepared(seed=6)
    cfg = tr.RunConfig(seed=6, **{**FAST, "epochs": 3})
    trained, _ = tr.train(ds, cfg, assignment)
    for name, p in trained.params.graph.params.items():
        assert trained.values[name] is p.data

    def no_rebuild(*args, **kwargs):
        raise AssertionError("evaluate rebuilt the model")

    monkeypatch.setattr(tr.gnn, "init_model", no_rebuild)
    tr.evaluate(trained, ds, assignment, dm.TEST)


def test_evaluate_uses_full_graph_and_is_deterministic():
    ds, assignment = prepared(seed=7)
    cfg = tr.RunConfig(seed=7, **FAST)
    trained, _ = tr.train(ds, cfg, assignment)
    a = tr.evaluate(trained, ds, assignment, dm.TEST)
    b = tr.evaluate(trained, ds, assignment, dm.TEST)
    assert a["metrics"] == b["metrics"]
    tags = assignment.tags
    edges = a["graph"].edges
    is_test = tags == dm.TEST
    crossing = (is_test[edges[:, 0]] != is_test[edges[:, 1]]).sum()
    assert crossing > 0  # full-mode graph restores crossing edges
    with pytest.raises(tr.ConfigError):
        tr.evaluate(trained, ds, assignment, "holdout")


def test_no_test_label_access_during_training():
    ds, assignment = prepared(seed=8)
    cfg = tr.RunConfig(seed=8, **FAST)
    _, report = tr.train(ds, cfg, assignment)
    # every label read covered by train+validation, none from the test set
    assert report.label_violations == 0
    assert report.train_label_reads == len(assignment.indices(dm.TRAIN, dm.VAL))


def test_train_metrics_score_the_rows_trained_on():
    # trained on the training split alone, the reported train metrics
    # leave the held-out validation rows out
    ds, assignment = prepared(seed=8)
    cfg = tr.RunConfig(seed=8, **{**FAST, "epochs": 3})
    trained, report = tr.train(ds, cfg, assignment, train_side=(dm.TRAIN,))
    own = tr.evaluate(trained, ds, assignment, dm.TRAIN,
                      train_side=(dm.TRAIN,))
    assert np.array_equal(own["indices"], assignment.train)
    assert report.final_train_metrics == own["metrics"]


def test_ablation_harness_runs_all_variants():
    ds, assignment = prepared(seed=9)
    cfg = tr.RunConfig(seed=9, **{**FAST, "epochs": 4})
    results = tr.run_ablation(ds, cfg, assignment)
    assert set(results) == {"full", "A1", "A2", "A3", "A4"}
    for name, r in results.items():
        assert "macro_f1" in r["test_metrics"]
    # removing components changes the parameter count in the expected way
    assert results["A1"]["param_count"] < results["full"]["param_count"]
    assert results["A2"]["param_count"] < results["full"]["param_count"]
    assert results["A3"]["param_count"] == results["full"]["param_count"]
    assert results["A4"]["param_count"] == results["full"]["param_count"]


def test_ablation_a4_matches_lambda_zero_run_bitwise():
    ds, assignment = prepared(seed=10)
    cfg = tr.RunConfig(seed=10, **{**FAST, "epochs": 5})
    results = tr.run_ablation(ds, cfg, assignment)
    lam0, _ = tr.train(ds, tr.RunConfig(**{**cfg.to_dict(), "lam": 0.0}),
                       assignment)
    lam0_test = tr.evaluate(lam0, ds, assignment, dm.TEST)["metrics"]
    assert results["A4"]["test_metrics"] == lam0_test
    assert results["A4"]["loss_log"] == [
        (e, ce, 0.0, ce, lr) for e, ce, _, _, lr in results["A4"]["loss_log"]]


def test_scenario_sweep_shape_and_levels():
    ds = toy_dataset(seed=11, n=60)
    cfg = tr.RunConfig(seed=11, **{**FAST, "epochs": 3})
    rows = tr.run_scenario_sweep(ds, "random_mask", levels=[0.0, 0.4],
                                 repeats=2, config=cfg)
    assert len(rows) == 4
    assert {r["level"] for r in rows} == {0.0, 0.4}
    summary = tr.summarize_sweep(rows)
    assert [s["level"] for s in summary] == [0.0, 0.4]
    assert all(s["n"] == 2 for s in summary)


def test_lambda_and_sparsity_sweeps_run():
    ds, assignment = prepared(seed=12)
    cfg = tr.RunConfig(seed=12, **{**FAST, "epochs": 3})
    lam_rows = tr.run_validation_sweep(ds, cfg, assignment, "lam", (0.0, 0.1))
    assert [r["lam"] for r in lam_rows] == [0.0, 0.1]
    sp_rows = tr.run_validation_sweep(ds, cfg, assignment, "sparsity_rate",
                                      (0.5, 0.8))
    assert [r["sparsity_rate"] for r in sp_rows] == [0.5, 0.8]
    for r in lam_rows + sp_rows:
        assert "macro_f1" in r


def test_linear_fit_recovers_line():
    fit = tr.linear_fit([1, 2, 3, 4], [2.0, 4.0, 6.0, 8.0])
    assert fit["slope"] == pytest.approx(2.0)
    assert fit["intercept"] == pytest.approx(0.0, abs=1e-9)
    assert fit["r2"] == pytest.approx(1.0)


def test_scalability_bench_sweeps_every_m_per_repeat(monkeypatch):
    calls = []

    def fake_train(ds, cfg, assignment):
        calls.append((ds.n_modalities, cfg.seed, cfg.epochs))
        return None, tr.TrainReport(train_seconds=float(len(calls)))

    monkeypatch.setattr(tr, "train", fake_train)
    cfg = tr.RunConfig(seed=13, **FAST)
    rows, _ = tr.run_scalability_bench(cfg, m_values=[3, 2], repeats=2, n=40,
                                       features_per_modality=4)
    # untimed warm-up on the first case, then repeat 0 over every M, then 1
    assert calls == [(3, 16, 2), (3, 16, 8), (2, 15, 8),
                     (3, 1016, 8), (2, 1015, 8)]
    assert [(r["M"], r["repeat"], r["seconds"]) for r in rows] == [
        (3, 0, 2.0), (3, 1, 4.0), (2, 0, 3.0), (2, 1, 5.0)]


def test_scalability_bench_rows():
    cfg = tr.RunConfig(seed=13, precision="f32",
                       **{**FAST, "epochs": 2, "sparsity_rate": 0.9})
    rows, fit = tr.run_scalability_bench(cfg, m_values=[2, 3], repeats=1,
                                         n=60, features_per_modality=20)
    assert [r["M"] for r in rows] == [2, 3]
    assert all(r["seconds"] > 0 for r in rows)
    assert set(fit) == {"slope", "intercept", "r2"}
