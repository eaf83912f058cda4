"""Each fused layer and loss node against its chain-of-ops oracle in
`tests/oracles.py`: values and gradients, in float64 and float32."""

import numpy as np
from hypothesis import given, settings, strategies as st

from magnetkit import fusion as fu
from magnetkit import gnn
from magnetkit import graph as gr
from magnetkit import numerics as nm
from magnetkit import objective as ob
from magnetkit.trainer import RunConfig
from oracles import (add_parameter, alignment_target, chain_decode,
                     chain_encode, chain_equal_weight_fuse, chain_forward,
                     chain_fuse_multi_head, chain_sage_layer, constant, mul,
                     select_rows, sum_all)

DTYPES = st.sampled_from([np.float64, np.float32])
SEEDS = st.integers(0, 2 ** 31 - 1)
# largest deviation from the oracle, relative to the oracle's largest entry
TOL = {np.float64: 1e-10, np.float32: 1e-4}


def run(build, values, dtype, seed):
    """``build``'s output for parameters holding ``values`` in ``dtype``,
    and the gradients of a random linear function of it."""
    g = nm.ComputeGraph(dtype)
    tensors = {k: add_parameter(g, k, v) for k, v in values.items()}
    out = build(tensors)
    weights = np.random.default_rng(seed).normal(size=out.shape).astype(dtype)
    grads = g.backward(sum_all(mul(out, constant(weights))))
    return out.data, {k: v.copy() for k, v in grads.items()}


def assert_close(got, want, dtype):
    assert got.dtype == want.dtype == dtype
    scale = np.max(np.abs(want), initial=1e-30)
    assert np.max(np.abs(got - want), initial=0.0) <= TOL[dtype] * scale


def check(node, oracle, values, dtype, seed):
    """Values and every gradient of ``node`` match ``oracle``; returns the
    node's output and gradients."""
    out, grads = run(node, values, dtype, seed)
    ref, ref_grads = run(oracle, values, dtype, seed)
    assert_close(out, ref, dtype)
    for name in values:
        assert_close(grads[name], ref_grads[name], dtype)
    return out, grads


def random_mask(rng, n, m):
    """An N x M availability mask in which every patient has a modality."""
    mask = rng.integers(0, 2, size=(n, m))
    mask[np.arange(n), rng.integers(0, m, size=n)] = 1
    return mask


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4),
       st.sampled_from(["random", "one_unobserved", "all_observed"]),
       st.booleans(), DTYPES, SEEDS)
def test_encode_node_matches_chain(n, m, observed, drop, dtype, seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 6, size=m)]
    mods = [rng.normal(size=(n, d)) for d in dims]
    mask = {"random": rng.integers(0, 2, size=(n, m)),
            "one_unobserved": np.eye(1, m, dtype=int).repeat(n, 0) ^ 1,
            "all_observed": np.ones((n, m), dtype=int)}[observed]
    values = {}
    for i, d_in in enumerate(dims):
        values.update({f"{i}.w1": rng.normal(size=(d_in, 5)),
                       f"{i}.b1": rng.normal(size=5),
                       f"{i}.w2": rng.normal(size=(5, 3)),
                       f"{i}.b2": rng.normal(size=3)})

    def build(encoder):
        def encode(t):
            params = [tuple(t[f"{i}.{w}"] for w in ("w1", "b1", "w2", "b2"))
                      for i in range(m)]
            return encoder(mods, mask, params, 0.3 if drop else 0.0,
                           np.random.default_rng(seed))
        return encode

    out, _ = check(build(fu.encode), build(chain_encode), values, dtype, seed)
    assert out.shape == (n, m, 3)
    assert np.all(out[mask == 0] == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.sampled_from([1, 2, 4]),
       DTYPES, SEEDS)
def test_attention_node_matches_chain_with_exact_zeros(n, m, heads, dtype,
                                                       seed):
    rng = np.random.default_rng(seed)
    d_h = 2
    d = heads * d_h
    mask = random_mask(rng, n, m)
    mask[0] = 0
    mask[0, rng.integers(0, m)] = 1  # a row with one available modality
    values = {"h": rng.normal(size=(n, m, d)),
              "w_lin": rng.normal(size=(d, d)),
              "w_out": rng.normal(size=(d, d))}
    values.update({f"a{k}": rng.normal(size=(d_h, 1)) for k in range(heads)})
    atts = []

    def build(fuse):
        def fused(t):
            att, z = fuse(t["h"], mask, {
                "w_lin": t["w_lin"], "w_out": t["w_out"],
                "w_att": [t[f"a{k}"] for k in range(heads)],
                "heads": heads, "d_h": d_h})
            atts.append(att.data if isinstance(att, nm.Tensor) else att)
            return z
        return fused

    _, grads = check(build(fu.fuse_multi_head), build(chain_fuse_multi_head),
                     values, dtype, seed)
    att, ref = atts
    assert_close(att, ref, dtype)
    # criterion 2's contract: masked weights and their gradients exactly 0
    assert np.all(att[mask == 0] == 0.0)
    assert np.all(grads["h"][mask == 0] == 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), DTYPES, SEEDS)
def test_equal_weight_node_matches_chain(n, m, dtype, seed):
    rng = np.random.default_rng(seed)
    mask = random_mask(rng, n, m)
    _, grads = check(lambda t: fu.equal_weight_fuse(t["h"], mask)[1],
                     lambda t: chain_equal_weight_fuse(t["h"], mask),
                     {"h": rng.normal(size=(n, m, 3))}, dtype, seed)
    assert np.all(grads["h"][mask == 0] == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2), st.integers(1, 4),
       st.integers(1, 4), st.booleans(), st.booleans(), DTYPES, SEEDS)
def test_sage_node_matches_chain(n, n_isolated, d_in, d_out, edge_features_on,
                                 drop, dtype, seed):
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = np.array([p for p in pairs if rng.random() < 0.5],
                     dtype=np.int64).reshape(-1, 2)
    graph = gr.PatientGraph(n_nodes=n + n_isolated, edges=edges,
                            similarities=rng.uniform(-1, 1, size=len(edges)),
                            reconnection=np.zeros(len(edges), dtype=bool))
    view = gnn.GraphView.from_graph(graph, edge_features_on, dtype)
    assert np.array_equal(view.mean_adj_t.toarray(), view.mean_adj.toarray().T)
    values = {"z": rng.normal(size=(n + n_isolated, d_in)),
              "w_root": rng.normal(size=(d_in, d_out)),
              "w_msg": rng.normal(size=(d_in + 1, d_out)),
              "w_agg": rng.normal(size=(d_out, d_out))}
    rate = 0.3 if drop else 0.0

    def build(layer):
        return lambda t: layer(t["z"], view, t, rate,
                               np.random.default_rng(seed))

    check(build(gnn.sage_layer), build(chain_sage_layer), values, dtype, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(2, 5), st.booleans(), DTYPES, SEEDS)
def test_decoder_and_row_ce_match_chain(n, classes, repeated, dtype, seed):
    rng = np.random.default_rng(seed)
    rows = (rng.integers(0, n, size=n + 2) if repeated
            else np.flatnonzero(rng.random(n) < 0.6))
    labels = rng.integers(0, classes, size=len(rows))
    values = {"z": rng.normal(size=(n, 4)), "w1": rng.normal(size=(4, 3)),
              "b1": rng.normal(size=3), "w2": rng.normal(size=(3, classes)),
              "b2": rng.normal(size=classes)}

    def build(decode, ce):
        return lambda t: ce(decode(t["z"], t), labels, rows)

    def chain_ce(logits, labels, rows):
        return ob.ce_loss(select_rows(logits, rows), labels)

    check(build(gnn.decode, ob.ce_loss), build(chain_decode, chain_ce),
          values, dtype, seed)
    check(lambda t: gnn.decode(t["z"], t), lambda t: chain_decode(t["z"], t),
          values, dtype, seed)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, ob.KL_TILE - 1, ob.KL_TILE, ob.KL_TILE + 1,
                        2 * ob.KL_TILE + 3]),
       st.sampled_from(["split", "shuffled", "repeated"]), DTYPES, SEEDS)
def test_row_kl_matches_select_rows_then_node(n, order, dtype, seed):
    # the KL node's own row gather against the gather op before the node,
    # bit for bit, at sizes below, at and past the row tile. A training
    # split's rows increase; shuffled and repeated rows take the
    # scatter-add path of the gradient.
    rng = np.random.default_rng(seed)
    n_rows = n + 5
    if order == "repeated":
        rows = rng.integers(0, n_rows, size=n)
    else:
        rows = np.sort(rng.choice(n_rows, size=n, replace=False))
        if order == "shuffled":
            rng.shuffle(rows)
    valid = rng.random((n, n)) < 0.7
    valid[0, 1] = True
    p_raw = np.where(valid, rng.uniform(size=(n, n)), 0.0)
    target = alignment_target(p_raw / p_raw.sum(), valid, dtype)
    values = {"z": rng.normal(scale=2.0, size=(n_rows, 4))}
    out, grads = run(lambda t: ob.kl_alignment_loss(t["z"], target, rows),
                     values, dtype, seed)
    ref, ref_grads = run(
        lambda t: ob.kl_alignment_loss(select_rows(t["z"], rows), target),
        values, dtype, seed)
    assert out.dtype == grads["z"].dtype == dtype
    assert np.array_equal(out, ref)
    assert np.array_equal(grads["z"], ref_grads["z"])


@settings(max_examples=20, deadline=None)
@given(st.booleans(), st.sampled_from([0, 2]), st.booleans(), DTYPES, SEEDS)
def test_forward_matches_chain_for_ablations(no_pmmha, layers, training,
                                             dtype, seed):
    # A1 (equal-weight fusion) and A2 (no message passing) and the full
    # model, with dropout drawn in the same order in training mode
    config = RunConfig(seed=0, embed_dim=4, heads=2, encoder_hidden=5,
                       gnn_layers=layers, dropout=0.25, no_pmmha=no_pmmha,
                       precision="f32" if dtype == np.float32 else "f64")
    rng = np.random.default_rng(seed)
    params = gnn.init_model([5, 3], 3, config, rng)
    if params.attention is not None:
        for w in params.attention["w_att"]:
            w.data[...] = rng.normal(scale=0.5, size=w.data.shape)
    n = 7
    mods = [rng.normal(size=(n, 5)), rng.normal(size=(n, 3))]
    mask = random_mask(rng, n, 2)
    edges = np.array([(0, 1), (1, 2), (2, 3), (4, 5)])
    view = gnn.GraphView.from_graph(gr.PatientGraph(
        n_nodes=n, edges=edges, similarities=np.linspace(-0.5, 0.9, 4),
        reconnection=np.zeros(4, dtype=bool)), dtype=dtype)
    weights = rng.normal(size=(n, 3)).astype(dtype)
    outputs = []
    for forward in (gnn.forward, chain_forward):
        logits, *_ = forward(params, mods, mask, view, config,
                             rng=np.random.default_rng(seed),
                             training=training)
        grads = params.graph.backward(sum_all(mul(logits, constant(weights))))
        outputs.append((logits.data, {k: v.copy() for k, v in grads.items()}))
    (out, grads), (ref, ref_grads) = outputs
    assert_close(out, ref, dtype)
    for name in grads:
        assert_close(grads[name], ref_grads[name], dtype)
