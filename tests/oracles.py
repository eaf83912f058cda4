"""Plain-array reference versions of the alignment objective, used by the
tests to check the differentiable code in `magnetkit.objective`, alignment
targets built from asymmetric matrices, the Student-t KL node for
asymmetric pair matrices, the generic tape ops and the chain-of-ops
oracles of the fused layer nodes, the dense modality encoder, the
single-component parameter builders the unit tests start from, and the
finite-difference gradient oracle."""

import numpy as np

from magnetkit import fusion as fu
from magnetkit import gnn
from magnetkit import numerics as nm
from magnetkit import objective as ob

LOG_FLOOR = 1e-12


def build_Q(z, valid):
    """Fused-space pairwise distribution from the Student-t kernel,
    restricted to the same valid-pair set as P. Plain-array version."""
    z = np.asarray(z, dtype=float)
    sq = (z * z).sum(axis=1)
    d = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)
    k = np.where(valid, 1.0 / (1.0 + d), 0.0)
    return k / k.sum()


def kl_loss(p, q, valid=None):
    """KL(P || Q) over the valid pair set; terms with p == 0 contribute 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if valid is not None:
        mask &= valid
    return float((p[mask] * np.log(p[mask] / np.maximum(q[mask], LOG_FLOOR))).sum())


def kl_target(n, seed):
    """Alignment target for gradient checks: asymmetric P and one invalid
    off-diagonal pair."""
    rng = np.random.default_rng(seed)
    valid = ~np.eye(n, dtype=bool)
    valid[0, n - 1] = False
    p = np.where(valid, rng.uniform(size=(n, n)), 0.0)
    return alignment_target(p / p.sum(), valid)


def alignment_target(p, valid, dtype=np.float64):
    """`objective.AlignmentTarget` of any P and valid-pair matrix: P and W
    stored as their symmetric parts (the loss sees them only through those,
    its kernel being symmetric), a symmetric input kept bit for bit, and
    the sum of p log p from the given P in ``dtype``."""
    p = np.asarray(p, dtype=dtype)
    pos = p[p > 0].astype(np.float64, copy=False)
    return ob.AlignmentTarget(p=_symmetric_part(p, dtype),
                              weights=_symmetric_part(np.asarray(valid), dtype),
                              p_log_p=float((pos * np.log(pos)).sum()))


def _symmetric_part(a, dtype):
    """(a + a^T) / 2 in ``dtype``, built in one new array."""
    out = np.add(a, a.T, dtype=dtype)
    out *= 0.5
    return out


def student_t_kl(z, p, weights, p_log_p):
    """Reference for `objective.kl_alignment_loss` that takes P and W as
    they come, symmetric or not: the same KL node with the general t-SNE
    gradient
    dz = 2 ((rowsum G + colsum G) z - G z - G^T z), G = k * (P - W * k / S).
    """
    x = z.data
    sq = (x * x).sum(axis=1)
    k = 1.0 / (1.0 + np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T),
                                0.0))
    s = float(np.vdot(weights, k))

    def backward(g):
        grad = k * (p - weights * k / s)
        dz = (grad.sum(axis=1) + grad.sum(axis=0))[:, None] * x
        dz -= grad @ x + grad.T @ x
        nm.accumulate(z, 2.0 * float(g) * dz)

    value = p_log_p - float(np.vdot(p, np.log(k))) + np.log(s)
    return nm.Tensor(np.asarray(value), parents=(z,), backward=backward,
                     op="student_t_kl")


# ---------------------------------------------------------------------------
# generic tape ops: the pieces the fused layer and loss nodes were built
# from, kept as their oracles, plus ops that only test losses use


def constant(data):
    return nm.Tensor(data, requires_grad=False, op="const")


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise nm.NumericsError(f"matmul shape mismatch {a.shape} x {b.shape}")

    def backward(g):
        if a.requires_grad:
            nm.accumulate(a, g @ b.data.T)
        if b.requires_grad:
            nm.accumulate(b, a.data.T @ g)

    return nm.Tensor(a.data @ b.data, parents=(a, b), backward=backward,
                     op="matmul")


def add(a, b):
    """Elementwise addition; the only broadcast allowed is a row-vector bias."""
    if a.data.shape == b.data.shape:
        def backward(g):
            nm.accumulate(a, g)
            nm.accumulate(b, g)
    elif a.data.ndim == 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[1]:
        def backward(g):
            nm.accumulate(a, g)
            if b.requires_grad:
                nm.accumulate(b, g.sum(axis=0))
    else:
        raise nm.NumericsError(f"add shape mismatch {a.shape} + {b.shape}")
    return nm.Tensor(a.data + b.data, parents=(a, b), backward=backward,
                     op="add")


def scale(a, c):
    c = float(c)

    def backward(g):
        nm.accumulate(a, g * c)

    return nm.Tensor(a.data * c, parents=(a,), backward=backward, op="scale")


def relu(a):
    keep = a.data > 0

    def backward(g):
        nm.accumulate(a, g * keep)

    return nm.Tensor(a.data * keep, parents=(a,), backward=backward, op="relu")


def concat_last_dim(tensors):
    if not tensors:
        raise nm.NumericsError("concat of nothing")
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.shape[:-1] != lead:
            raise nm.NumericsError("concat leading-shape mismatch")
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            nm.accumulate(t, g[..., lo:hi])

    return nm.Tensor(np.concatenate([t.data for t in tensors], axis=-1),
                     parents=tuple(tensors), backward=backward, op="concat")


def reshape(a, shape):
    def backward(g):
        nm.accumulate(a, g.reshape(a.data.shape))

    return nm.Tensor(a.data.reshape(shape), parents=(a,), backward=backward,
                     op="reshape")


def einsum(spec, a, b):
    """Two-operand ``np.einsum`` with an explicit output, e.g. "nm,nmd->nd".

    The grad of each operand is the einsum of the output grad with the
    other operand, spec swapped. That holds only if every index of an
    operand also appears in the other operand or in the output, so an
    index summed inside one operand is rejected.
    """
    ins, arrow, out = spec.partition("->")
    sa, _, sb = ins.partition(",")
    if not arrow or not sb or "," in sb:
        raise nm.NumericsError(f"einsum spec {spec!r} needs two operands and '->'")
    for own, other in ((sa, sb), (sb, sa)):
        if len(set(own)) != len(own) or set(own) - set(other) - set(out):
            raise nm.NumericsError(
                f"einsum spec {spec!r} sums an index inside one operand")

    def backward(g):
        if a.requires_grad:
            nm.accumulate(a, np.einsum(f"{out},{sb}->{sa}", g, b.data))
        if b.requires_grad:
            nm.accumulate(b, np.einsum(f"{sa},{out}->{sb}", a.data, g))

    return nm.Tensor(np.einsum(spec, a.data, b.data), parents=(a, b),
                     backward=backward, op="einsum")


def select_rows(a, idx):
    """The rows ``idx`` of ``a``; repeated rows sum their gradients."""
    idx = np.asarray(idx, dtype=np.int64)

    def backward(g):
        nm.accumulate(a, nm.rows_grad(a.data, idx, g))

    return nm.Tensor(a.data[idx], parents=(a,), backward=backward,
                     op="select")


def scatter_rows(a, idx, n_rows):
    """The rows of ``a`` placed at the distinct row indices ``idx`` of an
    ``n_rows``-row zero block; the inverse of ``select_rows``."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != a.data.shape[:1]:
        raise nm.NumericsError(f"scatter of {a.shape} to {idx.shape} row indices")
    out = np.zeros((n_rows,) + a.data.shape[1:], dtype=a.data.dtype)
    out[idx] = a.data

    def backward(g):
        nm.accumulate(a, g[idx])

    return nm.Tensor(out, parents=(a,), backward=backward, op="scatter")


def sparse_matmul_const(mat, a):
    """Product of a constant scipy sparse matrix with a dense tensor."""
    def backward(g):
        nm.accumulate(a, np.asarray(mat.T @ g))

    return nm.Tensor(np.asarray(mat @ a.data), parents=(a,), backward=backward,
                     op="spmm")


def dropout(a, rate, rng):
    if rate <= 0.0:
        return a
    keep = nm.dropout_mask(a.data.shape, rate, rng, a.data.dtype)

    def backward(g):
        nm.accumulate(a, g * keep)

    return nm.Tensor(a.data * keep, parents=(a,), backward=backward,
                     op="dropout")


def masked_softmax(logits, mask):
    """`numerics.masked_softmax_probs` over axis 1 as a tape op, with
    `numerics.masked_softmax_grad` as its backward."""
    m = np.asarray(mask)
    if m.ndim != 2 or m.shape != logits.data.shape[:2]:
        raise nm.NumericsError("mask shape mismatch")
    if np.any(m.sum(axis=1) < 1):
        raise nm.NumericsError("patient with no available modality")
    p = nm.masked_softmax_probs(logits.data, mask)

    def backward(g):
        nm.accumulate(logits, nm.masked_softmax_grad(p, g))

    return nm.Tensor(p, parents=(logits,), backward=backward,
                     op="masked_softmax")


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise nm.NumericsError(f"mul shape mismatch {a.shape} * {b.shape}")

    def backward(g):
        nm.accumulate(a, g * b.data)
        nm.accumulate(b, g * a.data)

    return nm.Tensor(a.data * b.data, parents=(a, b), backward=backward,
                     op="mul")


def shift(a, c):
    c = float(c)

    def backward(g):
        nm.accumulate(a, g)

    return nm.Tensor(a.data + c, parents=(a,), backward=backward, op="shift")


def log(a):
    def backward(g):
        nm.accumulate(a, g / a.data)

    return nm.Tensor(np.log(a.data), parents=(a,), backward=backward, op="log")


def sum_all(a):
    def backward(g):
        nm.accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return nm.Tensor(a.data.sum(), parents=(a,), backward=backward,
                     op="sum_all")


# ---------------------------------------------------------------------------
# chain-of-ops oracles of the fused layer nodes: each layer as a chain of
# the generic tape ops above, drawing dropout in the same order and shapes


def stack_modalities(hs):
    """M tensors of N x d as the N x M x d block the fusion nodes read."""
    n, d = hs[0].shape
    return reshape(concat_last_dim(hs), (n, len(hs), d))


def chain_encode(modalities, mask, enc_params, rate=0.0, rng=None):
    """Reference for `fusion.encode`: per modality matmul, bias, ReLU,
    matmul, bias on the observed rows, scatter, dropout."""
    obs = modalities
    if not isinstance(obs, fu.ObservedRows):
        obs = fu.ObservedRows.of(modalities, mask, enc_params[0][0].data.dtype)
    hs = []
    for rows, x, (w1, b1, w2, b2) in zip(obs.rows, obs.blocks, enc_params):
        h = relu(add(matmul(constant(x), w1), b1))
        out = scatter_rows(add(matmul(h, w2), b2), rows, obs.n_patients)
        hs.append(dropout(out, rate, rng))
    return stack_modalities(hs)


def dense_encode(modalities, mask, enc_params):
    """Reference for `fusion.encode`: every row of each modality through its
    MLP, placeholders included, then the rows of absent modalities zeroed."""
    hs = []
    for i, (x, (w1, b1, w2, b2)) in enumerate(zip(modalities, enc_params)):
        h = relu(add(matmul(constant(x), w1), b1))
        out = add(matmul(h, w2), b2)
        keep = np.broadcast_to(np.asarray(mask)[:, i:i + 1], out.shape)
        hs.append(mul(out, constant(keep.astype(out.data.dtype))))
    return stack_modalities(hs)


def chain_fuse_multi_head(h, mask, att_params):
    """Reference for `fusion.fuse_multi_head`; returns (attention tensor,
    fused tensor)."""
    heads, d_h = att_params["heads"], att_params["d_h"]
    n, m, d = h.shape
    t = reshape(matmul(reshape(h, (n * m, d)), att_params["w_lin"]),
                (n, m, heads, d_h))
    w_att = concat_last_dim(att_params["w_att"])  # d_h x K
    att = masked_softmax(einsum("nmkh,hk->nmk", t, w_att), mask)
    z = reshape(einsum("nmk,nmkh->nkh", att, t), (n, d))
    return att, matmul(z, att_params["w_out"])


def chain_equal_weight_fuse(h, mask):
    w = np.asarray(mask, dtype=h.data.dtype)
    return einsum("nm,nmd->nd", constant(w / w.sum(axis=1, keepdims=True)), h)


def chain_sage_layer(z, view, params, rate=0.0, rng=None):
    """Reference for `gnn.sage_layer`: ReLU(z W_root + [A z || e] W_msg
    W_agg), then dropout."""
    neigh = concat_last_dim([sparse_matmul_const(view.mean_adj, z),
                             constant(view.edge_mean)])
    agg = matmul(matmul(neigh, params["w_msg"]), params["w_agg"])
    return dropout(relu(add(matmul(z, params["w_root"]), agg)), rate, rng)


def chain_decode(z, dec):
    h = relu(add(matmul(z, dec["w1"]), dec["b1"]))
    return add(matmul(h, dec["w2"]), dec["b2"])


def chain_forward(params, modalities, mask, view, config, rng=None,
                  training=False):
    """Reference for `gnn.forward` from the chain oracles; returns (logits
    tensor, fused embedding tensor)."""
    rate = config.dropout if training else 0.0
    h = chain_encode(modalities, mask, params.encoders, rate, rng)
    if params.attention is None:
        z = chain_equal_weight_fuse(h, mask)
    else:
        _, z = chain_fuse_multi_head(h, mask, params.attention)
    z_out = z
    for layer_params in params.sage:
        z_out = chain_sage_layer(z_out, view, layer_params, rate, rng)
    return chain_decode(z_out, params.decoder), z


def add_parameter(graph, name, data):
    """Register a trainable leaf in ``graph`` holding a copy of ``data`` in
    the registry's dtype."""
    p, = graph.add_parameters([(name, np.shape(data))])
    p.data[...] = data
    return p


def set_values(graph, values):
    """Write ``values`` by name into a registry's parameter arrays in place,
    so they stay views of its flat buffer."""
    for name, p in graph.params.items():
        p.data[...] = values[name]


# ---------------------------------------------------------------------------
# single-component parameter builders (`gnn.init_model` builds the whole
# model from `gnn.param_table`; these draw the same values per component)


def init_encoder_params(graph, feature_dims, hidden_dim, embed_dim, rng):
    """Two-layer ReLU MLP per modality as (w1, b1, w2, b2) tuples."""
    params = []
    for i, d_in in enumerate(feature_dims):
        w1 = add_parameter(graph, f"enc{i}.w1",
                           gnn._he_uniform(rng, (d_in, hidden_dim)))
        b1 = add_parameter(graph, f"enc{i}.b1", np.zeros(hidden_dim))
        w2 = add_parameter(graph, f"enc{i}.w2",
                           gnn._he_uniform(rng, (hidden_dim, embed_dim)))
        b2 = add_parameter(graph, f"enc{i}.b2", np.zeros(embed_dim))
        params.append((w1, b1, w2, b2))
    return params


def init_attention_params(graph, embed_dim, heads, rng):
    """W_lin, zero per-head attention vectors and a near-identity W_out, in
    the dict `fusion.fuse_multi_head` reads."""
    d_h = embed_dim // heads
    w_lin = add_parameter(graph, "att.w_lin",
                          gnn._he_uniform(rng, (embed_dim, embed_dim)))
    w_att = [add_parameter(graph, f"att.w_att{k}", np.zeros((d_h, 1)))
             for k in range(heads)]
    w_out = add_parameter(graph, "att.w_out",
                          gnn._near_identity(rng, (embed_dim, embed_dim)))
    return {"w_lin": w_lin, "w_att": w_att, "w_out": w_out,
            "heads": heads, "d_h": d_h}


def init_decoder_params(graph, d_in, hidden, n_classes, rng):
    return {
        "w1": add_parameter(graph, "dec.w1",
                            gnn._he_uniform(rng, (d_in, hidden))),
        "b1": add_parameter(graph, "dec.b1", np.zeros(hidden)),
        "w2": add_parameter(graph, "dec.w2",
                            gnn._he_uniform(rng, (hidden, n_classes))),
        "b2": add_parameter(graph, "dec.b2", np.zeros(n_classes)),
    }


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(build_loss, param_values, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``build_loss`` maps a dict of plain numpy parameter values to a
    ``(loss Tensor, ComputeGraph)`` pair; it is re-invoked at perturbed
    parameter values for the numeric side.
    """
    loss, graph = build_loss(param_values)
    if not np.isfinite(loss.data):
        raise nm.NumericsError("non-finite loss in grad_check")
    analytic = graph.backward(loss)

    def eval_at(values):
        l, _ = build_loss(values)
        v = float(l.data)
        if not np.isfinite(v):
            raise nm.NumericsError("non-finite loss during finite differences")
        return v

    max_err = 0.0
    for name, base in param_values.items():
        base = np.asarray(base, dtype=nm.DEFAULT_DTYPE)
        flat = base.ravel()
        for j in range(flat.size):
            bumped = {k: np.array(v, dtype=nm.DEFAULT_DTYPE, copy=True)
                      for k, v in param_values.items()}
            bumped[name].ravel()[j] = flat[j] + eps
            up = eval_at(bumped)
            bumped[name].ravel()[j] = flat[j] - eps
            down = eval_at(bumped)
            numeric = (up - down) / (2.0 * eps)
            a = analytic[name].ravel()[j]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            max_err = max(max_err, err)
    return max_err
