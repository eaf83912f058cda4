import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import gnn
from magnetkit import graph as gr
from magnetkit import numerics as nm
from magnetkit import objective as ob
from magnetkit.trainer import RunConfig
from oracles import (add_parameter, constant, grad_check,
                     init_decoder_params, mul, set_values, sum_all)


def make_view(edges, sims=None, n=None, **kw):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n = n if n is not None else int(edges.max()) + 1
    g = gr.PatientGraph(n_nodes=n, edges=edges,
                        similarities=(np.asarray(sims, dtype=float)
                                      if sims is not None
                                      else np.zeros(len(edges))),
                        reconnection=np.zeros(len(edges), dtype=bool))
    return gnn.GraphView.from_graph(g, **kw)


def make_sage(values):
    g = nm.ComputeGraph()
    return g, {k: add_parameter(g, k, np.asarray(values[k], dtype=float))
               for k in ("w_root", "w_msg", "w_agg")}


def brute_sage(z, edges, sims, w_root, w_msg, w_agg):
    """Per-definition recomputation with explicit neighbor loops."""
    n, d_out = z.shape[0], w_root.shape[1]
    nbrs = [[] for _ in range(n)]
    for (a, b), s in zip(edges, sims):
        nbrs[a].append((b, s))
        nbrs[b].append((a, s))
    out = np.zeros((n, d_out))
    for u in range(n):
        agg = np.zeros(d_out)
        if nbrs[u]:
            msgs = [np.concatenate([z[v], [s]]) @ w_msg for v, s in nbrs[u]]
            agg = np.mean(msgs, axis=0) @ w_agg
        out[u] = np.maximum(z[u] @ w_root + agg, 0.0)
    return out


def test_sage_single_neighbor_identity_weights():
    z = constant(np.array([[1.0, -2.0], [3.0, 4.0]]))
    _, params = make_sage({"w_root": np.eye(2),
                           "w_msg": np.vstack([np.eye(2), np.zeros((1, 2))]),
                           "w_agg": np.eye(2)})
    out = gnn.sage_layer(z, make_view([[0, 1]]), params)
    assert np.allclose(out.data[0], np.maximum(z.data[0] + z.data[1], 0.0))
    assert np.allclose(out.data[1], np.maximum(z.data[0] + z.data[1], 0.0))


def test_sage_zero_agg_is_graph_independent():
    rng = np.random.default_rng(0)
    z = constant(rng.normal(size=(4, 3)))
    vals = {"w_root": rng.normal(size=(3, 3)), "w_msg": rng.normal(size=(4, 3)),
            "w_agg": np.zeros((3, 3))}
    _, p1 = make_sage(vals)
    out1 = gnn.sage_layer(z, make_view([[0, 1], [2, 3]]), p1)
    _, p2 = make_sage(vals)
    out2 = gnn.sage_layer(z, make_view([[0, 3], [1, 2], [0, 2]]), p2)
    assert np.allclose(out1.data, out2.data)
    assert np.allclose(out1.data, np.maximum(z.data @ vals["w_root"], 0.0))


def test_sage_path_graph_matches_brute_force():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 2))
    edges = [(0, 1), (1, 2), (2, 3)]
    sims = [0.3, -0.2, 0.9]
    vals = {"w_root": rng.normal(size=(2, 2)), "w_msg": rng.normal(size=(3, 2)),
            "w_agg": rng.normal(size=(2, 2))}
    _, params = make_sage(vals)
    out = gnn.sage_layer(constant(z), make_view(edges, sims), params)
    ref = brute_sage(z, edges, sims, vals["w_root"], vals["w_msg"], vals["w_agg"])
    assert np.allclose(out.data, ref, atol=1e-12)


def test_sage_empty_neighborhood_aggregates_zero():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 2))
    vals = {"w_root": rng.normal(size=(2, 2)), "w_msg": rng.normal(size=(3, 2)),
            "w_agg": rng.normal(size=(2, 2))}
    _, params = make_sage(vals)
    view = make_view([[0, 1]], n=3)  # node 2 isolated
    out = gnn.sage_layer(constant(z), view, params)
    assert np.allclose(out.data[2], np.maximum(z[2] @ vals["w_root"], 0.0))


@st.composite
def sage_cases(draw):
    """A random simple graph (isolated nodes included) with layer weights."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    sims = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(edges),
                         max_size=len(edges)))
    n_iso = draw(st.integers(0, 2))
    d_in, d_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(n + n_iso, d_in))
    vals = {"w_root": rng.normal(size=(d_in, d_out)),
            "w_msg": rng.normal(size=(d_in + 1, d_out)),
            "w_agg": rng.normal(size=(d_out, d_out))}
    return n + n_iso, edges, sims, z, vals


@settings(max_examples=80, deadline=None)
@given(case=sage_cases(), edge_features_on=st.booleans())
def test_sage_layer_matches_brute_force_property(case, edge_features_on):
    n, edges, sims, z, vals = case
    view = make_view(edges, sims, n=n, edge_features_on=edge_features_on)
    _, params = make_sage(vals)
    out = gnn.sage_layer(constant(z), view, params)
    ref_sims = sims if edge_features_on else np.zeros(len(edges))
    ref = brute_sage(z, edges, ref_sims, vals["w_root"], vals["w_msg"],
                     vals["w_agg"])
    assert np.allclose(out.data, ref, rtol=0.0, atol=1e-10)


def test_sage_gradient():
    rng = np.random.default_rng(3)
    z0 = rng.normal(size=(4, 2))
    view = make_view([(0, 1), (1, 2), (2, 3)], [0.5, 0.5, -0.1])

    def build(values):
        g = nm.ComputeGraph()
        params = {k: add_parameter(g, k, values[k])
                  for k in ("w_root", "w_msg", "w_agg")}
        out = gnn.sage_layer(constant(z0), view, params)
        return sum_all(mul(out, out)), g

    values = {"w_root": rng.normal(size=(2, 2)),
              "w_msg": rng.normal(size=(3, 2)),
              "w_agg": rng.normal(size=(2, 2))}
    assert grad_check(build, values) < 1e-4


def test_edge_features_off_zeroes_feature_column():
    g = gr.PatientGraph(n_nodes=2, edges=np.array([[0, 1]]),
                        similarities=np.array([0.7]),
                        reconnection=np.array([False]))
    view = gnn.GraphView.from_graph(g, edge_features_on=False)
    assert np.all(view.edge_mean == 0.0)
    view_on = gnn.GraphView.from_graph(g)
    assert np.all(view_on.edge_mean == 0.7)


def test_decoder_shapes_and_zero_weights_uniform():
    g = nm.ComputeGraph()
    dec = init_decoder_params(g, 4, 3, 5, np.random.default_rng(0))
    dec["w2"].data[:] = 0.0
    logits = gnn.decode(constant(np.random.default_rng(1).normal(size=(7, 4))),
                        dec)
    assert logits.shape == (7, 5)
    assert np.allclose(logits.data, 0.0)  # uniform class scores


def fixture_model(n=6, m=2, d=4, heads=2, layers=2, seed=0, **kw):
    config = RunConfig(seed=seed, embed_dim=d, heads=heads,
                       encoder_hidden=d, gnn_layers=layers, dropout=0.0, **kw)
    rng = np.random.default_rng(seed)
    params = gnn.init_model([5, 3], 3, config, rng)
    # attention vectors are zero-initialized; randomize for nontrivial grads
    if params.attention is not None:
        for w in params.attention["w_att"]:
            w.data = rng.normal(scale=0.5, size=w.data.shape)
    mods = [rng.normal(size=(n, 5)), rng.normal(size=(n, 3))]
    mask = rng.integers(0, 2, size=(n, m))
    mask[mask.sum(axis=1) == 0, 0] = 1
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    view = make_view(edges, np.linspace(-0.5, 0.9, len(edges)), n=n)
    return config, params, mods, mask, view


def test_forward_shapes():
    config, params, mods, mask, view = fixture_model()
    logits, att, z, z_final = gnn.forward(params, mods, mask, view, config)
    assert logits.shape == (6, 3)
    assert att.shape == (6, 2, 2)
    assert z.shape == (6, 4)
    assert z_final.shape == (6, 4)


def test_decoder_only_equals_zero_layer_forward():
    config, params, mods, mask, view = fixture_model(layers=0)
    logits, state, z, z_final = gnn.forward(params, mods, mask, view, config)
    direct = gnn.decode(z, params.decoder)
    assert np.array_equal(logits.data, direct.data)
    assert z_final is z


def test_f32_forward_returns_float32_logits():
    config, params, mods, mask, _ = fixture_model(precision="f32")
    for p in params.graph.params.values():
        p.data = p.data.astype(np.float32)
    view = make_view([(0, 1), (1, 2), (3, 4)], [0.2, -0.4, 0.9], n=6,
                     dtype=config.dtype)
    logits, _, _, z_final = gnn.forward(
        params, [x.astype(np.float32) for x in mods], mask, view, config)
    assert z_final.data.dtype == np.float32
    assert logits.data.dtype == np.float32


def test_forward_missingness_independence_bitwise():
    config, params, mods, mask, view = fixture_model(seed=4)
    base, *_ = gnn.forward(params, mods, mask, view, config)
    pert = [x.copy() for x in mods]
    hit = False
    for j in range(mask.shape[0]):
        for i in range(mask.shape[1]):
            if mask[j, i] == 0:
                pert[i][j] += 1e6
                hit = True
    assert hit
    again, *_ = gnn.forward(params, pert, mask, view, config)
    assert np.array_equal(base.data, again.data)


def test_forward_permutation_equivariance():
    config, params, mods, mask, view = fixture_model(seed=5)
    n = 6
    perm = np.random.default_rng(6).permutation(n)
    logits, *_ = gnn.forward(params, mods, mask, view, config)

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    sims = np.linspace(-0.5, 0.9, len(edges))
    p_edges = [tuple(sorted((perm[a], perm[b]))) for a, b in edges]
    view_p = make_view(p_edges, sims, n=n)
    mods_p = [x[np.argsort(perm)] for x in mods]
    mask_p = mask[np.argsort(perm)]
    logits_p, *_ = gnn.forward(params, mods_p, mask_p, view_p, config)
    assert np.allclose(logits_p.data[perm], logits.data, atol=1e-12)


def test_forward_locality_two_layers():
    # path 0-1-2-3-4 with L=2: node 4 is at distance 4 from node 0, so
    # changing node 4's inputs cannot reach node 0's logits
    config, params, mods, mask, view = fixture_model()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    path_view = make_view(edges, np.zeros(4), n=6)
    base, *_ = gnn.forward(params, mods, mask, path_view, config)
    pert = [x.copy() for x in mods]
    for x in pert:
        x[4] += 3.0
    again, *_ = gnn.forward(params, pert, mask, path_view, config)
    assert np.array_equal(base.data[0], again.data[0])
    assert not np.array_equal(base.data[3], again.data[3])


def test_no_pmmha_uses_equal_weight_fusion():
    config, params, mods, mask, view = fixture_model(no_pmmha=True)
    assert params.attention is None
    logits, att, *_ = gnn.forward(params, mods, mask, view, config)
    # one head of fixed weights: the mask over each patient's modality count
    assert np.array_equal(att[:, :, 0], mask / mask.sum(axis=1, keepdims=True))
    assert logits.shape == (6, 3)


def test_no_gnn_skips_message_passing():
    config, params, mods, mask, view = fixture_model(layers=0)
    assert params.sage == []
    logits, state, z, z_final = gnn.forward(params, mods, mask, view, config)
    assert z_final is z


def test_full_pipeline_gradient_check():
    config, params, mods, mask, view = fixture_model(seed=7)
    labels = np.array([0, 1, 2, 0, 1, 2])
    names = list(params.graph.params)
    start = params.graph.values()

    def build(values):
        cfg, p, _, _, _ = fixture_model(seed=7)
        set_values(p.graph, values)
        logits, *_ = gnn.forward(p, mods, mask, view, cfg)
        return ob.ce_loss(logits, labels), p.graph

    err = grad_check(build, start)
    assert err < 1e-4


def test_dropout_only_in_training_mode():
    config, params, mods, mask, view = fixture_model()
    config.dropout = 0.5
    a, *_ = gnn.forward(params, mods, mask, view, config, training=False)
    b, *_ = gnn.forward(params, mods, mask, view, config, training=False)
    assert np.array_equal(a.data, b.data)
    rng = np.random.default_rng(0)
    c, *_ = gnn.forward(params, mods, mask, view, config,
                        rng=np.random.default_rng(1), training=True)
    assert not np.array_equal(a.data, c.data)
