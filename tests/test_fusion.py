import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import fusion as fu
from magnetkit import numerics as nm
from magnetkit.trainer import ConfigError, RunConfig
from oracles import (add_parameter, constant, dense_encode, grad_check,
                     init_attention_params, init_encoder_params, mul, sum_all)


def make_encoders(graph, dims, hidden, d, seed=0):
    return init_encoder_params(graph, dims, hidden, d,
                               np.random.default_rng(seed))


def block(arrays):
    """The N x M x d block of M per-modality N x d arrays, as a constant."""
    return constant(np.stack(arrays, axis=1))


def test_encode_zero_params_gives_zero():
    g = nm.ComputeGraph()
    enc = make_encoders(g, [3, 4], hidden=5, d=2)
    for w1, b1, w2, b2 in enc:
        w1.data[:] = 0
        w2.data[:] = 0
    h = fu.encode([np.ones((6, 3)), np.ones((6, 4))], np.ones((6, 2)), enc)
    assert np.all(h.data == 0.0)


def test_encode_output_shapes():
    g = nm.ComputeGraph()
    enc = make_encoders(g, [3, 7], hidden=5, d=4)
    h = fu.encode([np.ones((6, 3)), np.ones((6, 7))], np.ones((6, 2)), enc)
    assert h.shape == (6, 2, 4)


def test_observed_rows_are_gathered_once_in_run_dtype():
    rng = np.random.default_rng(3)
    mods = [np.asfortranarray(rng.normal(size=(6, d))) for d in (3, 5)]
    mask = np.array([[1, 0], [1, 1], [0, 1], [1, 1], [1, 0], [0, 1]])
    obs = fu.ObservedRows.of(mods, mask, np.float32)
    for i, (rows, block) in enumerate(zip(obs.rows, obs.blocks)):
        assert np.array_equal(rows, np.flatnonzero(mask[:, i]))
        assert block.dtype == np.float32 and block.flags.c_contiguous
        assert np.array_equal(block, mods[i][rows].astype(np.float32))
    g = nm.ComputeGraph(np.float32)
    enc = make_encoders(g, [3, 5], hidden=4, d=2)
    packed = fu.encode(obs, mask, enc)
    raw = fu.encode(mods, mask, enc)
    assert np.array_equal(packed.data, raw.data)


def test_encode_gradient():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))

    def build(values):
        g = nm.ComputeGraph()
        enc = [(add_parameter(g, "w1", values["w1"]),
                add_parameter(g, "b1", values["b1"]),
                add_parameter(g, "w2", values["w2"]),
                add_parameter(g, "b2", values["b2"]))]
        h = fu.encode([x], np.ones((4, 1)), enc)
        return sum_all(mul(h, h)), g

    values = {"w1": rng.normal(size=(3, 5)), "b1": rng.normal(size=5),
              "w2": rng.normal(size=(5, 2)), "b2": rng.normal(size=2)}
    assert grad_check(build, values) < 1e-4


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_encode_matches_dense_oracle(n, m, seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 7, size=m)]
    mods = [rng.normal(size=(n, d)) for d in dims]
    mask = rng.integers(0, 2, size=(n, m))
    mask[np.arange(n), rng.integers(0, m, size=n)] = 1

    def run(encoder):
        g = nm.ComputeGraph()
        enc = make_encoders(g, dims, hidden=5, d=4, seed=seed)
        att_rng = np.random.default_rng(seed)
        params = init_attention_params(g, 4, 2, att_rng)
        for w in params["w_att"]:
            w.data = att_rng.normal(size=w.data.shape)
        hs = encoder(mods, mask, enc)
        _, z = fu.fuse_multi_head(hs, mask, params)
        return hs, z.data, g.backward(sum_all(mul(z, z)))

    hs, z, grads = run(fu.encode)
    _, z_ref, grads_ref = run(dense_encode)
    assert np.allclose(z, z_ref, rtol=1e-10, atol=1e-12)
    for i in range(m):
        assert np.all(hs.data[:, i][mask[:, i] == 0] == 0.0)
    for name, ref in grads_ref.items():
        # the error measure of grad_check
        scale = np.maximum(np.maximum(abs(grads[name]), abs(ref)), 1e-12)
        assert np.max(abs(grads[name] - ref) / scale) < 1e-6, name


def brute_single_head(h_arrays, mask, w_lin, w_att):
    """Per-definition recomputation with explicit loops."""
    n = h_arrays[0].shape[0]
    m = len(h_arrays)
    d = w_lin.shape[1]
    transformed = [h @ w_lin for h in h_arrays]
    att = np.zeros((n, m))
    z = np.zeros((n, d))
    for j in range(n):
        logits = np.array([transformed[i][j] @ w_att[:, 0] for i in range(m)])
        avail = [i for i in range(m) if mask[j, i]]
        e = np.exp(logits[avail] - max(logits[avail]))
        att[j, avail] = e / e.sum()
        for i in range(m):
            z[j] += att[j, i] * transformed[i][j]
    return att, z


def brute_multi_head(h_arrays, mask, w_lin, w_atts, w_out):
    """Loop oracle for K heads: brute_single_head on each head's channel
    slice of W_lin, concat, output projection."""
    d_h = w_lin.shape[1] // len(w_atts)
    atts, zs = [], []
    for k, w_att in enumerate(w_atts):
        att, z = brute_single_head(h_arrays, mask,
                                   w_lin[:, k * d_h:(k + 1) * d_h], w_att)
        atts.append(att)
        zs.append(z)
    return np.stack(atts, axis=2), np.concatenate(zs, axis=1) @ w_out


def fuse_single_head(h, mask, w_lin, w_att):
    """Single-head fusion: fuse_multi_head with K=1 and W_out = I.
    Returns (N x M attention array, fused tensor)."""
    d = w_lin.shape[1]
    params = {"w_lin": w_lin, "w_att": [w_att], "w_out": constant(np.eye(d)),
              "heads": 1, "d_h": d}
    att, z = fu.fuse_multi_head(block([x.data for x in h]), mask, params)
    return att[:, :, 0], z


def test_fuse_single_head_matches_hand_computation():
    rng = np.random.default_rng(2)
    h = [rng.normal(size=(2, 2)) for _ in range(2)]
    mask = np.array([[1, 1], [1, 0]])
    w_lin_v = rng.normal(size=(2, 2))
    w_att_v = rng.normal(size=(2, 1))
    att_ref, z_ref = brute_single_head(h, mask, w_lin_v, w_att_v)

    g = nm.ComputeGraph()
    w_lin = add_parameter(g, "w_lin", w_lin_v)
    w_att = add_parameter(g, "w_att", w_att_v)
    att, z = fuse_single_head([constant(x) for x in h], mask, w_lin, w_att)
    assert np.allclose(att, att_ref, atol=1e-12)
    assert np.allclose(z.data, z_ref, atol=1e-12)


def test_single_available_modality_forces_weight_one():
    rng = np.random.default_rng(3)
    h = [constant(rng.normal(size=(3, 2))) for _ in range(3)]
    mask = np.eye(3, dtype=int)
    g = nm.ComputeGraph()
    w_lin = add_parameter(g, "w_lin", rng.normal(size=(2, 2)))
    w_att = add_parameter(g, "w_att", rng.normal(size=(2, 1)))
    att, z = fuse_single_head(h, mask, w_lin, w_att)
    assert np.array_equal(att, np.eye(3))
    for j in range(3):
        assert np.allclose(z.data[j], (h[j].data @ w_lin.data)[j])


def test_zero_attention_vector_gives_uniform_weights():
    rng = np.random.default_rng(4)
    h = [constant(rng.normal(size=(4, 2))) for _ in range(3)]
    mask = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]])
    g = nm.ComputeGraph()
    w_lin = add_parameter(g, "w_lin", rng.normal(size=(2, 2)))
    w_att = add_parameter(g, "w_att", np.zeros((2, 1)))
    att, _ = fuse_single_head(h, mask, w_lin, w_att)
    expected = mask / mask.sum(axis=1, keepdims=True)
    assert np.allclose(att, expected)


def test_multi_head_k1_identity_projection_matches_single_head():
    rng = np.random.default_rng(5)
    h = [rng.normal(size=(3, 4)) for _ in range(2)]
    mask = np.array([[1, 1], [1, 0], [0, 1]])
    g = nm.ComputeGraph()
    params = init_attention_params(g, 4, 1, rng)
    params["w_att"][0].data = rng.normal(size=(4, 1))
    params["w_out"].data = np.eye(4)
    att, z_multi = fu.fuse_multi_head(block(h), mask, params)
    att_s, z_single = brute_single_head(h, mask, params["w_lin"].data,
                                        params["w_att"][0].data)
    assert att.shape == (3, 2, 1)
    assert np.allclose(att[:, :, 0], att_s)
    assert np.allclose(z_multi.data, z_single)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1, 2, 4]))
def test_multi_head_matches_loop_oracle(seed, heads):
    rng = np.random.default_rng(seed)
    n, m, d = int(rng.integers(1, 9)), int(rng.integers(1, 6)), 4 * heads
    h = [rng.normal(size=(n, d)) for _ in range(m)]
    mask = rng.integers(0, 2, size=(n, m))
    mask[np.arange(n), rng.integers(0, m, size=n)] = 1
    mask[0] = 0
    mask[0, rng.integers(0, m)] = 1  # a row with one available modality
    g = nm.ComputeGraph()
    params = init_attention_params(g, d, heads, rng)
    for w in params["w_att"]:
        w.data = rng.normal(size=w.data.shape)
    att, z = fu.fuse_multi_head(block(h), mask, params)
    att_ref, z_ref = brute_multi_head(h, mask, params["w_lin"].data,
                                      [w.data for w in params["w_att"]],
                                      params["w_out"].data)
    assert att.shape == (n, m, heads)
    assert np.allclose(att, att_ref, rtol=0, atol=1e-10)
    assert np.allclose(z.data, z_ref, rtol=0, atol=1e-10)
    assert np.all(att[mask == 0] == 0.0)


@pytest.mark.parametrize("heads", [2, 4, 8])
def test_multi_head_row_stochastic(heads):
    rng = np.random.default_rng(heads)
    d = 128
    h = block([rng.normal(size=(5, d)) for _ in range(3)])
    mask = rng.integers(0, 2, size=(5, 3))
    mask[:, 0] = 1
    g = nm.ComputeGraph()
    params = init_attention_params(g, d, heads, rng)
    for w in params["w_att"]:
        w.data = rng.normal(size=w.data.shape)
    atts, z = fu.fuse_multi_head(h, mask, params)
    assert z.shape == (5, d)
    assert atts.shape == (5, 3, heads)
    assert np.allclose(atts.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(atts[mask == 0] == 0.0)


def test_head_count_must_divide_dim():
    with pytest.raises(ConfigError, match="divide"):
        RunConfig(seed=0, embed_dim=6, heads=4)


def test_equal_weight_fuse():
    h0 = constant(np.array([[2.0, 0.0], [4.0, 4.0]]))
    h1 = constant(np.array([[4.0, 2.0], [0.0, 0.0]]))
    h2 = constant(np.array([[6.0, 4.0], [8.0, 8.0]]))
    mask = np.array([[1, 1, 0], [1, 1, 1]])
    _, z = fu.equal_weight_fuse(block([h0.data, h1.data, h2.data]), mask)
    assert np.allclose(z.data[0], [3.0, 1.0])
    assert np.allclose(z.data[1], [4.0, 4.0])


def test_equal_weight_equals_zero_att_identity_lin():
    rng = np.random.default_rng(6)
    h = [constant(rng.normal(size=(4, 3))) for _ in range(3)]
    mask = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 0], [1, 1, 0]])
    g = nm.ComputeGraph()
    w_lin = add_parameter(g, "w_lin", np.eye(3))
    w_att = add_parameter(g, "w_att", np.zeros((3, 1)))
    _, z_att = fuse_single_head(h, mask, w_lin, w_att)
    _, z_eq = fu.equal_weight_fuse(block([x.data for x in h]), mask)
    assert np.allclose(z_att.data, z_eq.data, atol=1e-12)


def test_multi_head_gradient_check():
    rng = np.random.default_rng(7)
    mask = np.array([[1, 1], [1, 0], [0, 1]])
    h_arrays = [rng.normal(size=(3, 4)) for _ in range(2)]

    for heads in (1, 2, 4):
        def build(values):
            g = nm.ComputeGraph()
            params = {
                "w_lin": add_parameter(g, "w_lin", values["w_lin"]),
                "w_out": add_parameter(g, "w_out", values["w_out"]),
                "w_att": [add_parameter(g, f"w_att{k}", values[f"w_att{k}"])
                          for k in range(heads)],
                "heads": heads, "d_h": 4 // heads,
            }
            _, z = fu.fuse_multi_head(block(h_arrays), mask, params)
            return sum_all(mul(z, z)), g

        values = {"w_lin": rng.normal(size=(4, 4)),
                  "w_out": rng.normal(size=(4, 4))}
        for k in range(heads):
            values[f"w_att{k}"] = rng.normal(size=(4 // heads, 1))
        assert grad_check(build, values) < 1e-4


def test_missingness_independence_of_fused_embedding():
    rng = np.random.default_rng(8)
    mask = np.array([[1, 0], [1, 1], [0, 1]])
    x0 = rng.normal(size=(3, 5))
    x1 = rng.normal(size=(3, 5))

    def fused(x0v, x1v):
        g = nm.ComputeGraph()
        enc = make_encoders(g, [5, 5], hidden=4, d=4, seed=0)
        params = init_attention_params(g, 4, 2, np.random.default_rng(1))
        att_rng = np.random.default_rng(2)
        for w in params["w_att"]:
            w.data = att_rng.normal(size=w.data.shape)
        hs = fu.encode([x0v, x1v], mask, enc)
        _, z = fu.fuse_multi_head(hs, mask, params)
        return z.data

    base = fused(x0, x1)
    x0_pert = x0.copy()
    x0_pert[2] += 100.0  # patient 2 has modality 0 masked
    x1_pert = x1.copy()
    x1_pert[0] -= 42.0  # patient 0 has modality 1 masked
    assert np.array_equal(base, fused(x0_pert, x1_pert))


def test_parameter_count_linear_in_modalities():
    def count(m):
        g = nm.ComputeGraph()
        init_encoder_params(g, [6] * m, 5, 4, np.random.default_rng(0))
        init_attention_params(g, 4, 2, np.random.default_rng(1))
        return sum(p.data.size for p in g.params.values())

    c2, c3, c4 = count(2), count(3), count(4)
    assert c3 - c2 == c4 - c3  # adding a modality adds a fixed block


def test_export_attention_rows(tmp_path):
    path = tmp_path / "att.csv"
    fu.write_attention_csv(np.full((3, 3, 2), 1 / 3), path, ["p0", "p1", "p2"],
                           ["a", "b", "c"])
    rows = [line.split(",") for line in path.read_text().split()[1:]]
    assert len(rows) == 18
    per_key = {}
    for pid, head, mod, w in rows:
        per_key.setdefault((pid, head), 0.0)
        per_key[(pid, head)] += float(w)
    # six written decimals per weight
    assert all(abs(v - 1.0) < 1e-5 for v in per_key.values())


def test_export_attention_csv_format(tmp_path):
    path = tmp_path / "att.csv"
    fu.write_attention_csv(np.array([[[0.25], [0.75]]]), path, ["pA"],
                           ["dna", "rna"])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "patient_id,head,modality,weight"
    assert lines[1] == "pA,0,dna,0.250000"
