import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from magnetkit import gnn
from magnetkit import graph as gr
from magnetkit import numerics as nm
from magnetkit import objective as ob
from oracles import (add, add_parameter, concat_last_dim, constant, dropout,
                     einsum, grad_check, kl_target, log, masked_softmax,
                     matmul, mul, relu, reshape, scatter_rows, select_rows,
                     shift, sparse_matmul_const, sum_all, upper_tiles)


def build_simple(op):
    """Wrap a tensor op into a grad_check-compatible scalar builder."""
    def build(values):
        g = nm.ComputeGraph()
        tensors = {k: add_parameter(g, k, v) for k, v in values.items()}
        return op(tensors), g
    return build


def test_matmul_identity():
    a = constant([[1.0, 0.0], [0.0, 1.0]])
    b = constant([[3.0], [4.0]])
    assert np.allclose(matmul(a, b).data, [[3.0], [4.0]])


def test_matmul_hand():
    out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
    assert np.allclose(out.data, [[11.0]])


def test_matmul_shape_error():
    with pytest.raises(nm.NumericsError):
        matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    values = {"a": rng.normal(size=(5, 4)), "b": rng.normal(size=(4, 3))}
    err = grad_check(
        build_simple(lambda t: sum_all(matmul(t["a"], t["b"]))), values)
    assert err < 1e-6


def test_masked_softmax_uniform():
    out = masked_softmax(constant([[0.0, 0.0, 0.0]]), [[1, 1, 1]])
    assert np.allclose(out.data, [[1 / 3] * 3])


def test_masked_softmax_single_available():
    out = masked_softmax(constant([[5.0, -2.0, 9.0]]), [[0, 1, 0]])
    assert np.array_equal(out.data, [[0.0, 1.0, 0.0]])


def test_masked_softmax_two_entry():
    out = masked_softmax(constant([[1.0, 2.0, 3.0]]), [[1, 1, 0]])
    e1, e2 = np.exp(1.0), np.exp(2.0)
    assert np.allclose(out.data, [[e1 / (e1 + e2), e2 / (e1 + e2), 0.0]])
    assert out.data[0, 2] == 0.0


def test_masked_softmax_empty_row_rejected():
    with pytest.raises(nm.NumericsError):
        masked_softmax(constant([[1.0, 2.0]]), [[0, 0]])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_masked_softmax_contract(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 8), rng.integers(2, 6)
    logits = rng.normal(scale=3.0, size=(n, m))
    mask = rng.integers(0, 2, size=(n, m))
    mask[np.arange(n), rng.integers(0, m, size=n)] = 1  # no empty row
    g = nm.ComputeGraph()
    t = add_parameter(g, "logits", logits)
    p = masked_softmax(t, mask)
    assert np.all(p.data[mask == 0] == 0.0)
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-6)
    grads = g.backward(sum_all(mul(p, p)))
    assert np.all(grads["logits"][mask == 0] == 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_masked_softmax_3d_contract(seed):
    """N x M x K logits under an N x M mask: each head is the 2-D softmax
    of its column, masked weights and their gradients are exactly 0."""
    rng = np.random.default_rng(seed)
    n, m, k = rng.integers(1, 8), rng.integers(2, 6), rng.integers(1, 5)
    logits = rng.normal(scale=3.0, size=(n, m, k))
    mask = rng.integers(0, 2, size=(n, m))
    mask[np.arange(n), rng.integers(0, m, size=n)] = 1  # no empty row
    g = nm.ComputeGraph()
    t = add_parameter(g, "logits", logits)
    p = masked_softmax(t, mask)
    grads = g.backward(sum_all(mul(p, p)))
    for head in range(k):
        assert np.all(p.data[:, :, head][mask == 0] == 0.0)
        assert np.all(grads["logits"][:, :, head][mask == 0] == 0.0)
        assert np.array_equal(
            p.data[:, :, head],
            masked_softmax(constant(logits[:, :, head]), mask).data)
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-6)


def test_masked_softmax_3d_mask_shape_rejected():
    with pytest.raises(nm.NumericsError):
        masked_softmax(constant(np.zeros((2, 3, 2))), np.ones((2, 2)))


def test_einsum_forward_and_rejected_specs():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 2, 4))
    out = einsum("nm,nmd->nd", constant(a), constant(b))
    assert np.allclose(out.data, np.einsum("nm,nmd->nd", a, b), atol=1e-14)
    # an index summed inside one operand (i only in a, or a diagonal), no
    # '->', one operand, three operands
    for spec, x, y in [("ij,jk->jk", a.T, b[0]), ("ii,ij->j", a[:2], a[:2]),
                       ("ij,jk", a, b[0]), ("ij->j", a, a),
                       ("ij,jk,kl->il", a, b[0])]:
        with pytest.raises(nm.NumericsError):
            einsum(spec, constant(x), constant(y))


def test_relu_and_pairwise():
    assert relu(constant([[-1.0, 2.0]])).data.tolist() == [[0.0, 2.0]]
    # squared distances 25, 0, 25 give kernels 1/26, 1, 1/26 and S = 56/26;
    # with P on the pair (0, 1) both ways, KL = log(1/2) + log 26 + log S
    z = constant([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
    valid = ~np.eye(3, dtype=bool)
    p = np.zeros((3, 3))
    p[0, 1] = p[1, 0] = 0.5
    kl = ob.kl_alignment_loss(z, ob.AlignmentTarget(
        p=upper_tiles(p), weights=upper_tiles(valid), p_log_p=np.log(0.5)))
    assert float(kl.data) == pytest.approx(np.log(28.0), abs=1e-12)


def test_concat_and_slice_roundtrip():
    a = constant(np.arange(6.0).reshape(2, 3))
    b = constant(np.arange(4.0).reshape(2, 2))
    c = concat_last_dim([a, b])
    assert c.shape == (2, 5)
    assert np.array_equal(c.data[:, 3:5], b.data)
    r = reshape(c, (5, 2))
    assert np.array_equal(r.data.reshape(2, 5), c.data)


def test_backward_sum_gives_ones():
    g = nm.ComputeGraph()
    w = add_parameter(g, "w", np.ones((2, 2)))
    grads = g.backward(sum_all(w))
    assert np.array_equal(grads["w"], np.ones((2, 2)))


def test_backward_quadratic_closed_form():
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=(3, 2))
    x = rng.normal(size=(2, 1))
    g = nm.ComputeGraph()
    w = add_parameter(g, "w", w0)
    y = matmul(w, constant(x))
    grads = g.backward(sum_all(mul(y, y)))
    assert np.allclose(grads["w"], 2.0 * (w0 @ x) @ x.T, atol=1e-12)


def test_backward_requires_scalar():
    g = nm.ComputeGraph()
    w = add_parameter(g, "w", np.ones((2, 2)))
    with pytest.raises(nm.NumericsError):
        g.backward(relu(w))


def test_unreachable_parameter_gets_zeros():
    g = nm.ComputeGraph()
    w = add_parameter(g, "w", np.ones((2,)))
    unused = add_parameter(g, "unused", np.ones((3,)))
    grads = g.backward(sum_all(w))
    assert np.array_equal(grads["unused"], np.zeros(3))


def test_backward_deterministic():
    rng = np.random.default_rng(2)
    values = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=(4, 4))}

    def run():
        g = nm.ComputeGraph()
        a = add_parameter(g, "a", values["a"])
        b = add_parameter(g, "b", values["b"])
        loss = sum_all(relu(matmul(a, b)))
        return g.backward(loss)

    g1, g2 = run(), run()
    assert np.array_equal(g1["a"], g2["a"])
    assert np.array_equal(g1["b"], g2["b"])


def test_grad_check_quadratic():
    def build(values):
        g = nm.ComputeGraph()
        x = add_parameter(g, "x", values["x"])
        return sum_all(mul(x, x)), g

    err = grad_check(build, {"x": np.array([1.0, -2.0, 0.5])})
    assert err < 1e-8


def test_grad_check_masked_softmax_ce():
    mask = np.array([[1, 1, 0], [0, 1, 1]])
    labels = np.array([0, 2])

    def build(values):
        g = nm.ComputeGraph()
        logits = add_parameter(g, "logits", values["logits"])
        p = masked_softmax(logits, mask)
        return ob.ce_loss(shift(p, 0.1), labels), g

    rng = np.random.default_rng(3)
    err = grad_check(build, {"logits": rng.normal(size=(2, 3))})
    assert err < 1e-5


def test_grad_check_constant_function():
    def build(values):
        g = nm.ComputeGraph()
        add_parameter(g, "x", values["x"])
        return sum_all(constant(np.zeros(2))), g

    assert grad_check(build, {"x": np.array([1.0, 2.0])}) == 0.0


def _square(t):
    return mul(t, t)


@pytest.mark.parametrize("op,shapes", [
    (lambda t: sum_all(relu(shift(t["x"], 0.05))), {"x": (4, 3)}),
    (lambda t: sum_all(log(shift(mul(t["x"], t["x"]), 1.0))),
     {"x": (3, 3)}),
    (lambda t: ob.kl_alignment_loss(t["x"], kl_target(4, seed=1)), {"x": (4, 2)}),
    (lambda t: sum_all(_square(einsum("nmkh,hk->nmk", t["x"], t["w"]))),
     {"x": (3, 2, 2, 3), "w": (3, 2)}),
    (lambda t: ob.kl_alignment_loss(t["x"], kl_target(5, seed=2)), {"x": (5, 3)}),
    (lambda t: sum_all(_square(einsum("nmk,nmkh->nkh", t["a"], t["x"]))),
     {"a": (3, 2, 2), "x": (3, 2, 2, 3)}),
    (lambda t: sum_all(add(t["x"], t["b"])), {"x": (3, 4), "b": (4,)}),
    (lambda t: ob.ce_loss(t["x"], np.array([0, 2, 1])), {"x": (3, 3)}),
    (lambda t: sum_all(select_rows(t["x"], np.array([0, 2, 2]))),
     {"x": (4, 3)}),
    (lambda t: sum_all(_square(einsum("nm,nmd->nd", t["w"], t["x"]))),
     {"w": (3, 2), "x": (3, 2, 4)}),
    (lambda t: sum_all(_square(scatter_rows(t["x"], np.array([3, 0, 4]),
                                               6))),
     {"x": (3, 2)}),
])
def test_per_op_gradients(op, shapes):
    rng = np.random.default_rng(7)
    values = {k: rng.normal(size=s) for k, s in shapes.items()}
    assert grad_check(build_simple(op), values) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_composite_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    mask = rng.integers(0, 2, size=(3, 3))
    mask[np.arange(3), rng.integers(0, 3, size=3)] = 1

    def build(values):
        g = nm.ComputeGraph()
        w = add_parameter(g, "w", values["w"])
        x = constant(rng_input)
        h = relu(matmul(x, w))
        att = masked_softmax(h, mask)
        return sum_all(mul(att, att)), g

    rng_input = rng.normal(size=(3, 3))
    err = grad_check(build, {"w": rng.normal(size=(3, 3))})
    assert err < 1e-4


def test_sparse_matmul_and_selectors():
    mat = sp.csr_matrix(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, -1.0]]))
    g = nm.ComputeGraph()
    x = add_parameter(g, "x", np.arange(6.0).reshape(3, 2))
    out = sparse_matmul_const(mat, x)
    assert np.array_equal(out.data, mat.toarray() @ x.data)
    w = np.array([[1.0, 2.0], [3.0, -1.0]])
    grads = g.backward(sum_all(mul(out, constant(w))))
    assert np.allclose(grads["x"], mat.toarray().T @ w)

    # path 0-1-2 plus isolated node 3: rows average the neighbours, node 3
    # gets a zero row in both operators
    graph = gr.PatientGraph(n_nodes=4, edges=np.array([[0, 1], [1, 2]]),
                            similarities=np.array([0.2, 0.6]),
                            reconnection=np.zeros(2, dtype=bool))
    view = gnn.GraphView.from_graph(graph)
    assert np.allclose(view.mean_adj.toarray(),
                       [[0, 1, 0, 0], [0.5, 0, 0.5, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert np.allclose(view.edge_mean[:, 0], [0.2, 0.4, 0.6, 0.0])
    z = constant(np.arange(8.0).reshape(4, 2))
    agg = sparse_matmul_const(view.mean_adj, z)
    assert np.allclose(agg.data, [[2, 3], [2, 3], [2, 3], [0, 0]])


@pytest.mark.parametrize("idx", [[0, 2, 5], [1], [0, 2, 2], [4, 1, 1, 3],
                                 [-5, 1, 3]])
def test_select_rows_gradient_matches_dense_scatter_add(idx):
    # increasing indices take the assignment path, repeats (also a negative
    # index naming a later row) the scatter-add path
    rng = np.random.default_rng(11)
    x0, up = rng.normal(size=(6, 3)), rng.normal(size=(len(idx), 3))
    g = nm.ComputeGraph()
    x = add_parameter(g, "x", x0)
    out = select_rows(x, np.array(idx))
    assert np.array_equal(out.data, x0[idx])
    grads = g.backward(sum_all(mul(out, constant(up))))
    onehot = np.zeros((len(idx), 6))
    onehot[np.arange(len(idx)), idx] = 1.0
    assert np.allclose(grads["x"], onehot.T @ up, rtol=0, atol=1e-15)


def test_kl_node_peak_memory_below_one_dense_pair_matrix():
    # forward plus backward at N = 1000, f64: the node keeps the upper row
    # tiles of its kernel, never a dense N x N temporary
    n = 1000
    rng = np.random.default_rng(12)
    target = kl_target(n, seed=12)
    g = nm.ComputeGraph()
    z = add_parameter(g, "z", rng.normal(size=(n, 32)))
    tracemalloc.start()
    try:
        g.backward(ob.kl_alignment_loss(z, target))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * n * n * 8


def test_constant_leaves_get_no_gradient():
    g = nm.ComputeGraph()
    w = add_parameter(g, "w", np.ones((3, 2)))
    x = constant(np.arange(12.0).reshape(4, 3))
    feats = relu(matmul(x, constant(np.eye(3))))
    edge = constant(np.ones((4, 1)))
    out = concat_last_dim([matmul(feats, w), edge])
    assert not feats.requires_grad and out.requires_grad
    grads = g.backward(sum_all(out))
    assert x.grad is None and feats.grad is None and edge.grad is None
    assert np.array_equal(grads["w"], x.data.T @ np.ones((4, 2)))


def test_scatter_rows_places_rows_in_zero_block():
    a = constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = scatter_rows(a, [2, 0], 3)
    assert np.array_equal(out.data, [[3, 4], [0, 0], [1, 2]])
    assert np.array_equal(select_rows(out, [2, 0]).data, a.data)
    with pytest.raises(nm.NumericsError):
        scatter_rows(a, [0], 3)


def test_checked_creation_rejects_nonfinite():
    with pytest.raises(nm.NumericsError):
        nm.Tensor([np.nan, 1.0], checked=True)


def test_dropout_disabled_at_zero_rate():
    x = constant(np.ones((3, 3)))
    assert dropout(x, 0.0, np.random.default_rng(0)) is x
