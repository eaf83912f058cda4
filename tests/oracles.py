"""Plain-array reference versions of the alignment objective, used by the
tests to check the differentiable code in `magnetkit.objective`, a shared
alignment target for gradient checks, the Student-t KL node for asymmetric
pair matrices, the tape ops only the tests build
losses from, the dense modality encoder, the single-component parameter
builders the unit tests start from, and the finite-difference gradient
oracle."""

import numpy as np

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
    return ob.AlignmentTarget.of(p / p.sum(), valid)


def student_t_kl(z, p, weights, p_log_p):
    """Reference for `numerics.student_t_kl` that takes P and W as they come,
    symmetric or not: the same KL node with the general t-SNE gradient
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
        nm._accum(z, 2.0 * float(g) * dz)

    value = p_log_p - float(np.vdot(p, np.log(k))) + np.log(s)
    return nm.Tensor(np.asarray(value), parents=(z,), backward=backward,
                     op="student_t_kl")


# ---------------------------------------------------------------------------
# tape ops that only test losses use


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise nm.NumericsError(f"mul shape mismatch {a.shape} * {b.shape}")

    def backward(g):
        nm._accum(a, g * b.data)
        nm._accum(b, g * a.data)

    return nm.Tensor(a.data * b.data, parents=(a, b), backward=backward,
                     op="mul")


def shift(a, c):
    c = float(c)

    def backward(g):
        nm._accum(a, g)

    return nm.Tensor(a.data + c, parents=(a,), backward=backward, op="shift")


def log(a):
    def backward(g):
        nm._accum(a, g / a.data)

    return nm.Tensor(np.log(a.data), parents=(a,), backward=backward, op="log")


def sum_all(a):
    def backward(g):
        nm._accum(a, np.broadcast_to(g, a.data.shape).copy())

    return nm.Tensor(a.data.sum(), parents=(a,), backward=backward,
                     op="sum_all")


# ---------------------------------------------------------------------------
# dense encoder


def dense_encode(modalities, mask, enc_params):
    """Reference for `fusion.encode`: every row of each modality through its
    MLP, placeholders included, then the rows of absent modalities zeroed."""
    hs = []
    for i, (x, (w1, b1, w2, b2)) in enumerate(zip(modalities, enc_params)):
        h = nm.relu(nm.add(nm.matmul(nm.constant(x), w1), b1))
        out = nm.add(nm.matmul(h, w2), b2)
        keep = np.broadcast_to(np.asarray(mask)[:, i:i + 1], out.shape)
        hs.append(mul(out, nm.constant(keep.astype(out.data.dtype))))
    return hs


# ---------------------------------------------------------------------------
# single-component parameter builders (`gnn.init_model` builds the whole
# model from `gnn.param_table`; these draw the same values per component)


def init_encoder_params(graph, feature_dims, hidden_dim, embed_dim, rng):
    """Two-layer ReLU MLP per modality as (w1, b1, w2, b2) tuples."""
    params = []
    for i, d_in in enumerate(feature_dims):
        w1 = graph.add_parameter(f"enc{i}.w1",
                                 gnn._he_uniform(rng, (d_in, hidden_dim)))
        b1 = graph.add_parameter(f"enc{i}.b1", np.zeros(hidden_dim))
        w2 = graph.add_parameter(f"enc{i}.w2",
                                 gnn._he_uniform(rng, (hidden_dim, embed_dim)))
        b2 = graph.add_parameter(f"enc{i}.b2", np.zeros(embed_dim))
        params.append((w1, b1, w2, b2))
    return params


def init_attention_params(graph, embed_dim, heads, rng):
    """W_lin, zero per-head attention vectors and a near-identity W_out, in
    the dict `fusion.fuse_multi_head` reads."""
    d_h = embed_dim // heads
    w_lin = graph.add_parameter("att.w_lin",
                                gnn._he_uniform(rng, (embed_dim, embed_dim)))
    w_att = [graph.add_parameter(f"att.w_att{k}", np.zeros((d_h, 1)))
             for k in range(heads)]
    w_out = graph.add_parameter(
        "att.w_out", gnn._near_identity(rng, (embed_dim, embed_dim)))
    return {"w_lin": w_lin, "w_att": w_att, "w_out": w_out,
            "heads": heads, "d_h": d_h}


def init_decoder_params(graph, d_in, hidden, n_classes, rng):
    return {
        "w1": graph.add_parameter("dec.w1", gnn._he_uniform(rng, (d_in, hidden))),
        "b1": graph.add_parameter("dec.b1", np.zeros(hidden)),
        "w2": graph.add_parameter("dec.w2",
                                  gnn._he_uniform(rng, (hidden, n_classes))),
        "b2": graph.add_parameter("dec.b2", np.zeros(n_classes)),
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
