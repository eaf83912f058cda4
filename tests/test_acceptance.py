"""End-to-end acceptance gate: eleven numbered criteria, each with the
tolerance it must meet. One status line per criterion is printed as the
suite runs (see conftest.py)."""

import itertools
import math
import time

import numpy as np
import pytest

from magnetkit import datamodel as dm
from magnetkit import evalkit as ek
from magnetkit import fusion as fu
from magnetkit import gnn
from magnetkit import graph as gr
from magnetkit import numerics as nm
from magnetkit import objective as ob
from magnetkit import trainer as tr
from oracles import (add, add_parameter, alignment_target, build_Q,
                     concat_last_dim, constant, dense_of_tiles,
                     dense_similarity, einsum, grad_check, kl_loss,
                     kl_target, log, masked_softmax, matmul, mul,
                     packed_similarity, relu, scatter_rows, select_rows,
                     set_values, shift, sum_all)


# ---------------------------------------------------------------------------
# shared helpers


def pipeline_fixture(seed=0, n=6, m=2, d=4, heads=2, layers=2):
    """Small full-pipeline instance: model params, inputs, mask, graph view."""
    config = tr.RunConfig(seed=seed, embed_dim=d, heads=heads,
                          encoder_hidden=d, gnn_layers=layers, dropout=0.0)
    rng = np.random.default_rng(seed)
    params = gnn.init_model([5, 3], 3, config, rng)
    if params.attention is not None:
        for w in params.attention["w_att"]:
            w.data = rng.normal(scale=0.5, size=w.data.shape)
    mods = [rng.normal(size=(n, 5)), rng.normal(size=(n, 3))]
    mask = rng.integers(0, 2, size=(n, m))
    mask[mask.sum(axis=1) == 0, 0] = 1
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    g = gr.PatientGraph(n_nodes=n, edges=np.array(edges, dtype=np.int64),
                        similarities=np.linspace(-0.5, 0.9, len(edges)),
                        reconnection=np.zeros(len(edges), dtype=bool))
    view = gnn.GraphView.from_graph(g)
    return config, params, mods, mask, view


def brute_similarity(ds):
    n = ds.n_patients
    values = np.zeros((n, n))
    valid = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            if u == v:
                values[u, v], valid[u, v] = 1.0, True
                continue
            coss = []
            for i in range(ds.n_modalities):
                if ds.mask[u, i] and ds.mask[v, i]:
                    a, b = ds.modalities[i][u], ds.modalities[i][v]
                    na, nb = np.linalg.norm(a), np.linalg.norm(b)
                    coss.append(a @ b / (na * nb) if na > 0 and nb > 0 else 0.0)
            if coss:
                values[u, v] = np.clip(np.mean(coss), -1.0, 1.0)
                valid[u, v] = True
    return values, valid


def random_masked_ds(rng, n=10, m=3, d=4):
    mods = [rng.normal(size=(n, d)) for _ in range(m)]
    mask = rng.integers(0, 2, size=(n, m))
    mask[mask.sum(axis=1) == 0, 0] = 1
    mask[:, 0] = 1  # everyone shares modality 0: all pairs valid
    return dm.MultiomicsDataset(modalities=mods,
                                labels=rng.integers(0, 3, size=n), mask=mask,
                                modality_names=[f"m{i}" for i in range(m)],
                                class_count=3)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_correctness():
    """Full-pipeline finite differences < 1e-4; per-op < 1e-6; < 30 s."""
    started = time.perf_counter()

    # full pipeline: N=6, M=2, d=4, K=2, L=2, CE + 0.1 * KL, 64-bit
    config, params, mods, mask, view = pipeline_fixture(seed=7)
    labels = np.array([0, 1, 2, 0, 1, 2])
    train_idx = np.arange(6)
    valid = ~np.eye(6, dtype=bool)
    rng = np.random.default_rng(11)
    p_raw = np.where(valid, rng.uniform(size=(6, 6)), 0.0)
    p_mat = p_raw / p_raw.sum()
    start = params.graph.values()
    obs = fu.ObservedRows.of(mods, mask, config.dtype)

    def build(values):
        cfg, p, _, _, _ = pipeline_fixture(seed=7)
        set_values(p.graph, values)
        logits, _, z_fused, _ = gnn.forward(p, obs, view, cfg)
        ce = ob.ce_loss(select_rows(logits, train_idx), labels)
        kl = ob.kl_alignment_loss(select_rows(z_fused, train_idx),
                                  alignment_target(p_mat, valid))
        return ob.total_loss(ce, kl, 0.1), p.graph

    assert grad_check(build, start) < 1e-4

    # per-op checks
    def simple(op, shapes, seed):
        rng = np.random.default_rng(seed)
        values = {k: rng.normal(size=s) for k, s in shapes.items()}

        def build(vals):
            g = nm.ComputeGraph()
            ts = {k: add_parameter(g, k, v) for k, v in vals.items()}
            return op(ts), g

        return grad_check(build, values)

    def sq(t):
        return mul(t, t)

    x_enc = np.random.default_rng(12).normal(size=(4, 3))
    obs_enc = fu.ObservedRows.of([x_enc], np.array([[1], [0], [1], [1]]),
                                 np.float64)
    mask_att = np.array([[1, 1], [0, 1], [1, 0]])
    view_sage = gnn.GraphView.from_graph(gr.PatientGraph(
        n_nodes=4, edges=np.array([[0, 1], [1, 2]]),
        similarities=np.array([0.3, -0.6]),
        reconnection=np.zeros(2, dtype=bool)))

    ops = [
        (lambda t: sum_all(matmul(t["a"], t["b"])),
         {"a": (4, 3), "b": (3, 2)}),
        (lambda t: sum_all(mul(t["a"], t["a"])), {"a": (3, 3)}),
        (lambda t: sum_all(relu(shift(t["a"], 0.05))), {"a": (4, 3)}),
        (lambda t: sum_all(log(shift(mul(t["a"], t["a"]), 1.0))),
         {"a": (3, 3)}),
        (lambda t: ob.kl_alignment_loss(t["a"], kl_target(4, seed=1)),
         {"a": (4, 2)}),
        (lambda t: sum_all(sq(einsum("nmkh,hk->nmk", t["a"], t["b"]))),
         {"a": (3, 2, 2, 3), "b": (3, 2)}),
        (lambda t: ob.kl_alignment_loss(t["a"], kl_target(5, seed=2)),
         {"a": (5, 3)}),
        (lambda t: sum_all(sq(einsum("nmk,nmkh->nkh", t["a"], t["b"]))),
         {"a": (3, 2, 2), "b": (3, 2, 2, 3)}),
        (lambda t: sum_all(add(t["a"], t["b"])),
         {"a": (3, 4), "b": (4,)}),
        (lambda t: ob.ce_loss(t["a"], np.array([0, 2, 1])),
         {"a": (3, 3)}),
        (lambda t: sum_all(select_rows(t["a"], np.array([0, 2, 2]))),
         {"a": (4, 3)}),
        (lambda t: sum_all(concat_last_dim([t["a"], t["b"]])),
         {"a": (3, 2), "b": (3, 3)}),
        (lambda t: sum_all(sq(einsum("nm,nmd->nd", t["a"], t["b"]))),
         {"a": (3, 2), "b": (3, 2, 4)}),
        (lambda t: sum_all(sq(scatter_rows(t["a"], np.array([3, 0, 4]),
                                              6))),
         {"a": (3, 2)}),
        # the fused layer nodes, masked entries and an isolated node included
        (lambda t: sum_all(sq(fu.encode(
            obs_enc, [tuple(t[k] for k in ("a", "b", "c", "d"))]))),
         {"a": (3, 4), "b": (4,), "c": (4, 2), "d": (2,)}),
        (lambda t: sum_all(sq(fu.fuse_multi_head(
            t["a"], mask_att, {"w_lin": t["b"], "w_att": [t["c"], t["d"]],
                               "w_out": t["e"], "heads": 2, "d_h": 2})[1])),
         {"a": (3, 2, 4), "b": (4, 4), "c": (2, 1), "d": (2, 1),
          "e": (4, 4)}),
        (lambda t: sum_all(sq(fu.equal_weight_fuse(t["a"], mask_att)[1])),
         {"a": (3, 2, 4)}),
        (lambda t: sum_all(sq(gnn.sage_layer(
            t["a"], view_sage, {"w_root": t["b"], "w_msg": t["c"],
                                "w_agg": t["d"]}))),
         {"a": (4, 2), "b": (2, 3), "c": (3, 3), "d": (3, 3)}),
        (lambda t: sum_all(sq(gnn.decode(
            t["a"], {"w1": t["b"], "b1": t["c"], "w2": t["d"],
                     "b2": t["e"]}))),
         {"a": (3, 2), "b": (2, 4), "c": (4,), "d": (4, 3), "e": (3,)}),
        (lambda t: ob.ce_loss(select_rows(t["a"], np.array([1, 3])),
                              np.array([2, 0])),
         {"a": (4, 3)}),
        (lambda t: ob.total_loss(sum_all(sq(t["a"])), sum_all(t["b"]), 0.3),
         {"a": (2, 2), "b": (3,)}),
    ]
    for i, (op, shapes) in enumerate(ops):
        assert simple(op, shapes, seed=100 + i) < 1e-6, f"op #{i}"

    assert time.perf_counter() - started < 30.0


def test_criterion_02_masked_attention_contract():
    """1000 random cases: masked weights and gradients exactly 0; available
    weights sum to 1 +- 1e-6."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(2, 7))
        logits = rng.normal(scale=4.0, size=(n, m))
        mask = rng.integers(0, 2, size=(n, m))
        mask[np.arange(n), rng.integers(0, m, size=n)] = 1
        g = nm.ComputeGraph()
        t = add_parameter(g, "logits", logits)
        p = masked_softmax(t, mask)
        assert np.all(p.data[mask == 0] == 0.0)
        assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-6)
        grads = g.backward(sum_all(mul(p, p)))
        assert np.all(grads["logits"][mask == 0] == 0.0)


def test_criterion_03_missingness_independence():
    """100 trials: perturbing masked features leaves logits, CE, and KL
    bitwise unchanged."""
    for trial in range(100):
        rng = np.random.default_rng(trial)
        config, params, mods, mask, view = pipeline_fixture(seed=trial)
        if not np.any(mask == 0):
            continue
        labels = rng.integers(0, 3, size=6)
        train_idx = np.arange(6)
        ds = dm.MultiomicsDataset(modalities=[x.copy() for x in mods],
                                  labels=labels, mask=mask,
                                  modality_names=["a", "b"], class_count=3)
        sims = gr.pairwise_similarity(ds)
        target = ob.build_P(sims, train_idx)

        def quantities(mod_arrays):
            cfg, p, _, _, _ = pipeline_fixture(seed=trial)
            # gathered from the given (perturbed) matrices on every call
            obs = fu.ObservedRows.of(mod_arrays, mask, cfg.dtype)
            logits, _, z_fused, _ = gnn.forward(p, obs, view, cfg)
            ce = ob.ce_loss(select_rows(logits, train_idx), labels)
            kl = ob.kl_alignment_loss(select_rows(z_fused, train_idx),
                                      target)
            return logits.data, float(ce.data), float(kl.data)

        base_logits, base_ce, base_kl = quantities(mods)
        pert = [x.copy() for x in mods]
        for j in range(mask.shape[0]):
            for i in range(mask.shape[1]):
                if mask[j, i] == 0:
                    pert[i][j] = rng.normal(scale=1e4, size=pert[i][j].shape)
        # masked rows must not reach the similarity matrix either
        pert_ds = dm.MultiomicsDataset(modalities=[x.copy() for x in pert],
                                       labels=labels, mask=mask,
                                       modality_names=["a", "b"], class_count=3)
        t2 = ob.build_P(gr.pairwise_similarity(pert_ds), train_idx)
        for name in ("p", "weights"):
            got, want = getattr(t2, name), getattr(target, name)
            assert len(got) == len(want)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert t2.p_log_p == target.p_log_p
        logits2, ce2, kl2 = quantities(pert)
        assert np.array_equal(base_logits, logits2)
        assert base_ce == ce2
        assert base_kl == kl2


def test_criterion_04_graph_invariants():
    """100 random datasets: edges share modalities, min degree >= 1,
    train-mode view has zero crossing edges; sims match brute force 1e-12."""
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(12, 51))
        ds = random_masked_ds(rng, n=n, m=3, d=4)
        sims = gr.pairwise_similarity(ds)

        ref_values, ref_valid = brute_similarity(ds)
        values, valid = dense_similarity(sims)
        assert np.array_equal(valid, ref_valid)
        assert np.max(np.abs(values - ref_values)) < 1e-12

        rate = float(rng.uniform(0.0, 0.9))
        g = gr.build_graph(ds, sims, rate)
        for (u, v), recon in zip(g.edges, g.reconnection):
            if not recon:
                assert np.any(ds.mask[u] & ds.mask[v])
        assert np.all(g.degrees() >= 1)

        assignment = dm.split(ds, seed=trial)
        nodes = assignment.indices(dm.TRAIN, dm.VAL)
        g_train = gr.inductive_filter(g, sims, nodes)
        assert g_train.n_nodes == len(nodes)
        is_train = np.isin(assignment.tags, (dm.TRAIN, dm.VAL))
        if len(g_train.edges):
            ends = nodes[g_train.edges]
            crossing = is_train[ends[:, 0]] != is_train[ends[:, 1]]
            assert crossing.sum() == 0


def test_criterion_05_loss_oracles():
    """CE, KL, P, Q match brute force to 1e-10 on N<=10; KL >= 0 over 1000
    pairs with equality iff P=Q."""
    rng = np.random.default_rng(1)

    # CE
    logits = rng.normal(scale=2.0, size=(10, 4))
    labels = rng.integers(0, 4, size=10)
    ref_ce = 0.0
    for row, y in zip(logits, labels):
        p = np.exp(row - row.max())
        p /= p.sum()
        ref_ce += -math.log(p[y])
    got = float(ob.ce_loss(constant(logits), labels).data)
    assert abs(got - ref_ce) < 1e-10

    # P
    vals = rng.uniform(-1, 1, size=(8, 8))
    vals = (vals + vals.T) / 2
    valid = np.ones((8, 8), dtype=bool)
    ids = list(range(8))
    target = ob.build_P(packed_similarity(vals, valid), ids)
    p_mat, vmask = dense_of_tiles(target.p), dense_of_tiles(target.weights)
    aff = np.zeros((8, 8))
    for a in range(8):
        for b in range(8):
            if a != b:
                aff[a, b] = (1.0 + vals[a, b]) / 2.0
    assert np.max(np.abs(p_mat - aff / aff.sum())) < 1e-10

    # Q
    z = rng.normal(size=(9, 3))
    vq = ~np.eye(9, dtype=bool)
    q = build_Q(z, vq)
    k = np.zeros((9, 9))
    for a in range(9):
        for b in range(9):
            if a != b:
                k[a, b] = 1.0 / (1.0 + ((z[a] - z[b]) ** 2).sum())
    assert np.max(np.abs(q - k / k.sum())) < 1e-10

    # KL against a double loop, on matched flattened prefixes of equal length
    p_flat = p_mat[vmask][:56] / p_mat[vmask][:56].sum()
    q_flat = q[vq][:56] / q[vq][:56].sum()
    ref_kl = sum(pa * math.log(pa / qa) for pa, qa in zip(p_flat, q_flat)
                 if pa > 0)
    assert abs(kl_loss(p_flat, q_flat) - ref_kl) < 1e-10

    # nonnegativity with equality iff P=Q
    for trial in range(1000):
        r = np.random.default_rng(10_000 + trial)
        n = int(r.integers(2, 10))
        p = r.uniform(size=n)
        p /= p.sum()
        if trial % 10 == 0:
            q = p.copy()
        else:
            q = r.uniform(1e-6, 1.0, size=n)
            q /= q.sum()
        kl = kl_loss(p, q)
        assert kl >= -1e-12
        if np.max(np.abs(p - q)) < 1e-15:
            assert abs(kl) < 1e-12
        elif np.max(np.abs(p - q)) > 1e-6:
            assert kl > 0.0


def test_criterion_06_metric_oracles():
    """All eight metrics match brute-force definitions to 1e-10 on <=20-point
    instances; the all-ties AUROC is exactly 0.5."""
    rng = np.random.default_rng(2)

    for _ in range(30):
        c = int(rng.integers(2, 5))
        n = int(rng.integers(4, 21))
        y = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        m = ek.classification_metrics(y, pred, c)
        # brute-force counts
        acc = float((y == pred).mean())
        f1s, sup = [], []
        for k in range(c):
            tp = int(((y == k) & (pred == k)).sum())
            fp = int(((y != k) & (pred == k)).sum())
            fn = int(((y == k) & (pred != k)).sum())
            pr = tp / (tp + fp) if tp + fp else 0.0
            rc = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * pr * rc / (pr + rc) if pr + rc else 0.0)
            sup.append(int((y == k).sum()))
        cm = np.zeros((c, c))
        for a, b in zip(y, pred):
            cm[a, b] += 1
        tk, pk = cm.sum(axis=1), cm.sum(axis=0)
        num = np.trace(cm) * n - tk @ pk
        den = math.sqrt(n * n - pk @ pk) * math.sqrt(n * n - tk @ tk)
        mcc = float(num / den) if den > 0 else 0.0
        assert abs(m["accuracy"] - acc) < 1e-10
        assert abs(m["macro_f1"] - float(np.mean(f1s))) < 1e-10
        assert abs(m["weighted_f1"] - float(np.dot(f1s, sup) / n)) < 1e-10
        assert abs(m["mcc"] - mcc) < 1e-10

    for _ in range(30):
        n = int(rng.integers(4, 21))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        s = np.round(rng.uniform(size=n), 2)
        m = ek.ranking_metrics(y, s)
        pos = s[y == 1]
        neg = s[y == 0]
        wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
                   for a, b in itertools.product(pos, neg))
        assert abs(m["auroc"] - wins / (len(pos) * len(neg))) < 1e-10
        area, prev = 0.0, 0.0
        for t in sorted(set(s), reverse=True):
            sel = s >= t
            tp = int((y[sel] == 1).sum())
            rec = tp / len(pos)
            area += (rec - prev) * (tp / sel.sum())
            prev = rec
        assert abs(m["auprc"] - area) < 1e-10

    assert ek.ranking_metrics([0, 1, 0, 1], [0.3, 0.3, 0.3, 0.3])["auroc"] == 0.5

    for _ in range(10):
        n = int(rng.integers(6, 21))
        z = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        m = ek.cluster_metrics(z, labels)
        # silhouette double loop
        vals = []
        for i in range(n):
            own = [j for j in range(n) if labels[j] == labels[i] and j != i]
            if not own:
                vals.append(0.0)
                continue
            a = np.mean([np.linalg.norm(z[i] - z[j]) for j in own])
            b = min(np.mean([np.linalg.norm(z[i] - z[j]) for j in range(n)
                             if labels[j] == cc])
                    for cc in set(labels) if cc != labels[i])
            vals.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
        assert abs(m["silhouette"] - float(np.mean(vals))) < 1e-10
        classes = sorted(set(labels))
        cents = {cc: z[labels == cc].mean(axis=0) for cc in classes}
        spr = {cc: np.mean([np.linalg.norm(x - cents[cc])
                            for x in z[labels == cc]]) for cc in classes}
        db = float(np.mean([max((spr[i] + spr[j]) /
                                np.linalg.norm(cents[i] - cents[j])
                                for j in classes if j != i)
                            for i in classes]))
        assert abs(m["davies_bouldin"] - db) < 1e-10


CLUSTER_CONFIG = dict(embed_dim=32, heads=2, encoder_hidden=64, gnn_layers=2,
                      sparsity_rate=0.9, dropout=0.1, lam=0.1,
                      learning_rate=3e-3, epochs=100)


def test_criterion_07_simulated_performance():
    """Centroid oracle macro-F1 >= 0.95; trained test macro-F1 >= 0.85 at 0%
    missingness; mean macro-F1 at level 0.8 <= mean at level 0 over 5
    repeats; < 10 min."""
    started = time.perf_counter()
    base = dm.gen_clusters(seed=0)  # 500 patients, 15 clusters, 3 modalities

    # centroid-classifier oracle on complete data
    assignment = dm.split(base, seed=0)
    prepped = dm.preprocess(base, split=assignment)
    x = np.concatenate(prepped.modalities, axis=1)
    tri, tei = assignment.indices(dm.TRAIN, dm.VAL), assignment.indices(dm.TEST)
    cents = np.stack([x[tri][prepped.labels[tri] == c].mean(axis=0)
                      for c in range(15)])
    d2 = ((x[tei][:, None, :] - cents[None]) ** 2).sum(-1)
    oracle = ek.classification_metrics(prepped.labels[tei], d2.argmin(1), 15)
    assert oracle["macro_f1"] >= 0.95

    cfg = tr.RunConfig(seed=0, **CLUSTER_CONFIG)
    rows = tr.run_scenario_sweep(base, "random_mask", levels=[0.0, 0.8],
                                 repeats=5, config=cfg)
    by_level = {lvl: [r["macro_f1"] for r in rows if r["level"] == lvl]
                for lvl in (0.0, 0.8)}
    assert len(by_level[0.0]) == 5 and len(by_level[0.8]) == 5
    mean0 = float(np.mean(by_level[0.0]))
    mean8 = float(np.mean(by_level[0.8]))
    assert mean0 >= 0.85
    assert mean8 <= mean0
    assert time.perf_counter() - started < 600.0


def test_criterion_08_scalability_linear():
    """Training time over M=2..10 (mask 0.5, f32, 5 repeats) fits a line with
    R^2 >= 0.9; < 20 min."""
    started = time.perf_counter()
    cfg = tr.RunConfig(seed=0, embed_dim=32, heads=2, encoder_hidden=64,
                       gnn_layers=2, sparsity_rate=0.9, dropout=0.0,
                       lam=0.1, learning_rate=1e-3, epochs=30,
                       precision="f32")
    rows, fit = tr.run_scalability_bench(cfg, m_values=range(2, 11),
                                         mask_p=0.5, repeats=5)
    assert len(rows) == 9 * 5
    assert fit["r2"] >= 0.9
    assert fit["slope"] > 0
    assert time.perf_counter() - started < 1200.0


def test_criterion_09_ablation_harness():
    """A1-A4 run under shared seeds; A4 is bit-identical to lambda=0."""
    ds = dm.gen_clusters(n=80, clusters=3, dims=(8, 8, 8), cluster_sep=3.0,
                         noise_sd=0.3, seed=0)
    assignment = dm.split(ds, seed=0)
    prepped = dm.preprocess(ds, split=assignment)
    cfg = tr.RunConfig(seed=0, embed_dim=16, heads=2, encoder_hidden=16,
                       gnn_layers=2, sparsity_rate=0.5, dropout=0.0,
                       epochs=8, learning_rate=3e-3)
    results = tr.run_ablation(prepped, cfg, assignment)
    assert set(results) == {"full", "A1", "A2", "A3", "A4"}
    for r in results.values():
        assert set(r["test_metrics"]) >= {"accuracy", "macro_f1", "mcc"}

    a4_cfg = tr.RunConfig(**{**cfg.to_dict(), **tr.ABLATIONS["A4"]})
    lam0_cfg = tr.RunConfig(**{**cfg.to_dict(), "lam": 0.0})
    a4, _ = tr.train(prepped, a4_cfg, assignment)
    lam0, _ = tr.train(prepped, lam0_cfg, assignment)
    for k in a4.values:
        assert np.array_equal(a4.values[k], lam0.values[k])
    assert results["A4"]["loss_log"] == tr.train(
        prepped, lam0_cfg, assignment)[1].loss_log


def test_criterion_10_determinism_and_protocol():
    """Identical reruns match bitwise; LR schedule is exact; no test-label
    access during training."""
    ds = dm.gen_clusters(n=80, clusters=3, dims=(8, 8, 8), cluster_sep=3.0,
                         noise_sd=0.3, seed=1)
    assignment = dm.split(ds, seed=1)
    prepped = dm.preprocess(ds, split=assignment)
    cfg = tr.RunConfig(seed=1, embed_dim=16, heads=2, encoder_hidden=16,
                       gnn_layers=2, sparsity_rate=0.5, dropout=0.1,
                       epochs=12, learning_rate=3e-3)
    t1, r1 = tr.train(prepped, cfg, assignment)
    t2, r2 = tr.train(prepped, cfg, assignment)
    assert r1.loss_log == r2.loss_log
    for k in t1.values:
        assert np.array_equal(t1.values[k], t2.values[k])

    sched_cfg = tr.RunConfig(seed=0, learning_rate=3.2e-4)
    for epoch in range(200):
        assert tr.learning_rate_at(sched_cfg, epoch) == \
            3.2e-4 * 0.8 ** (epoch // 20)
    for epoch, _, _, _, lr in r1.loss_log:
        assert lr == cfg.learning_rate * 0.8 ** (epoch // 20)

    assert r1.label_violations == 0
    assert r1.train_label_reads == len(assignment.indices(dm.TRAIN, dm.VAL))
    assert r1.crossing_edges_in_train_view == 0


def test_criterion_11_homophily():
    """15-cluster synthetic graph at default sparsity: node and edge homophily
    each >= 1.5x the class-proportion baseline."""
    ds = dm.gen_clusters(seed=0)
    assignment = dm.split(ds, seed=0)
    prepped = dm.preprocess(ds, split=assignment)
    sims = gr.pairwise_similarity(prepped)
    g = gr.build_graph(prepped, sims, sparsity_rate=0.6)  # default rate
    node_h, edge_h, baseline = gr.homophily(g, prepped.labels)
    assert node_h >= 1.5 * baseline
    assert edge_h >= 1.5 * baseline
