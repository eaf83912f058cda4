"""GraphSAGE message passing with scalar edge features, and the MLP decoder."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fusion as fu
from . import numerics as nm


class ModelError(ValueError):
    pass


@dataclass
class GraphView:
    """Node-level operators for one graph: the row-normalised adjacency A,
    its transpose (for the backward pass) and each node's mean incident
    edge feature. A node with an empty neighbourhood has a zero row in A
    and in the edge means, so it aggregates to zero."""

    n_nodes: int
    mean_adj: object        # N x N sparse, rows sum to 1 (0 if isolated)
    edge_mean: np.ndarray   # N x 1

    @classmethod
    def from_graph(cls, g, edge_features_on=True, dtype=nm.DEFAULT_DTYPE):
        src, dst, feat = g.directed()
        n = g.n_nodes
        deg = np.bincount(dst, minlength=n)
        inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
        edge_mean = np.zeros((n, 1), dtype=dtype)
        if edge_features_on:
            edge_mean[:, 0] = np.bincount(dst, weights=feat, minlength=n) * inv
        return cls(n_nodes=n, mean_adj=sp.csr_matrix(
            (inv[dst], (dst, src)), shape=(n, n), dtype=dtype),
            edge_mean=edge_mean)

    @cached_property
    def mean_adj_t(self):
        """A's transpose, built by the first backward pass that needs it
        (an evaluation never does)."""
        return self.mean_adj.T.tocsr()


def sage_layer(z, view, params, dropout=0.0, rng=None):
    """One GraphSAGE step as one tape node:
    ReLU(z W_root + ((A z) W_msg[:d] + e W_msg[d]) W_agg).

    The mean of the messages W_msg [z_v || e_uv] over u's neighbours is
    linear, so it equals W_msg applied to the mean neighbour embedding
    (A z, A row-normalised) and the mean edge feature e. With ``dropout``
    > 0 the output is multiplied by an N x d mask drawn from ``rng``.
    """
    if z.shape[0] != view.n_nodes:
        raise ModelError("embedding row count does not match graph")
    w_root, w_msg, w_agg = (params[k] for k in ("w_root", "w_msg", "w_agg"))
    d = z.shape[1]
    x = z.data
    az = view.mean_adj @ x
    msg = az @ w_msg.data[:d]
    msg += view.edge_mean @ w_msg.data[d:]
    pre = x @ w_root.data
    pre += msg @ w_agg.data
    active = pre > 0
    out = pre * active
    if dropout > 0:
        keep = nm.dropout_mask(out.shape, dropout, rng, out.dtype)
        out *= keep

    def backward(g):
        g = g * active
        if dropout > 0:
            g *= keep
        nm.accumulate(w_root, x.T @ g)
        nm.accumulate(w_agg, msg.T @ g)
        g_msg = g @ w_agg.data.T
        nm.accumulate(w_msg, np.vstack((az.T @ g_msg,
                                        view.edge_mean.T @ g_msg)))
        g_z = g @ w_root.data.T
        g_z += view.mean_adj_t @ (g_msg @ w_msg.data[:d].T)
        nm.accumulate(z, g_z)

    return nm.Tensor(out, parents=(z, w_root, w_msg, w_agg), backward=backward,
                     op="sage")


def decode(z, dec_params):
    """The two-layer MLP decoder, ReLU(z W1 + b1) W2 + b2, as one tape
    node."""
    params = [dec_params[k] for k in ("w1", "b1", "w2", "b2")]
    h, logits = nm.mlp_forward(z.data, *params)

    def backward(g):
        g_h = nm.mlp_backward(z.data, h, g, *params)
        nm.accumulate(z, g_h @ params[0].data.T)

    return nm.Tensor(logits, parents=(z, *params), backward=backward,
                     op="decode")


@dataclass
class ModelParams:
    """All learnable pieces plus their registry."""

    graph: nm.ComputeGraph
    encoders: list
    attention: dict | None
    sage: list
    decoder: dict


def _he_uniform(rng, shape):
    """He-style uniform fan-in init of a fan_in x fan_out weight."""
    limit = np.sqrt(6.0 / shape[0])
    return rng.uniform(-limit, limit, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _near_identity(rng, shape):
    return np.eye(shape[0]) + rng.normal(0.0, 0.01, size=shape)


def param_table(feature_dims, n_classes, config):
    """(name, shape, init) of every model parameter under a RunConfig, in
    creation order; ``init(rng, shape)`` draws its initial values.

    This is the one statement of the model's shapes: ``init_model`` builds
    from it and a stored parameter table is checked against it. It is a
    generator, so a check against a much smaller stored table can stop at
    the first missing name without building the whole table.
    """
    d = config.embed_dim
    hidden = config.encoder_hidden or d
    for i, d_in in enumerate(feature_dims):  # two-layer ReLU MLP per modality
        yield f"enc{i}.w1", (d_in, hidden), _he_uniform
        yield f"enc{i}.b1", (hidden,), _zeros
        yield f"enc{i}.w2", (hidden, d), _he_uniform
        yield f"enc{i}.b2", (d,), _zeros
    if not config.no_pmmha:
        # W_lin, per-head attention vectors (zero, so epoch-0 attention is
        # uniform over the available modalities) and a near-identity W_out
        yield "att.w_lin", (d, d), _he_uniform
        for k in range(config.heads):
            yield f"att.w_att{k}", (d // config.heads, 1), _zeros
        yield "att.w_out", (d, d), _near_identity
    for layer in range(config.gnn_layers):
        yield f"sage{layer}.w_root", (d, d), _he_uniform
        yield f"sage{layer}.w_msg", (d + 1, d), _he_uniform
        yield f"sage{layer}.w_agg", (d, d), _he_uniform
    dec = max(2, d // 2)
    yield "dec.w1", (d, dec), _he_uniform
    yield "dec.b1", (dec,), _zeros
    yield "dec.w2", (dec, n_classes), _he_uniform
    yield "dec.b2", (n_classes,), _zeros


def init_model(feature_dims, n_classes, config, rng=None, values=None):
    """Build the parameters of ``param_table`` in one flat buffer of the
    run dtype, filled from the ``values`` table by name if given (a stored
    model, already checked against the table), else drawn from ``rng``;
    group them by layer."""
    table = list(param_table(feature_dims, n_classes, config))
    g = nm.ComputeGraph(config.dtype)
    for p, (name, shape, init) in zip(
            g.add_parameters((name, shape) for name, shape, _ in table), table):
        p.data[...] = init(rng, shape) if values is None else values[name]
    p = g.params
    attention = None
    if not config.no_pmmha:
        attention = {"w_lin": p["att.w_lin"], "w_out": p["att.w_out"],
                     "w_att": [p[f"att.w_att{k}"] for k in range(config.heads)],
                     "heads": config.heads,
                     "d_h": config.embed_dim // config.heads}
    return ModelParams(
        graph=g,
        encoders=[tuple(p[f"enc{i}.{w}"] for w in ("w1", "b1", "w2", "b2"))
                  for i in range(len(feature_dims))],
        attention=attention,
        sage=[{w: p[f"sage{layer}.{w}"] for w in ("w_root", "w_msg", "w_agg")}
              for layer in range(config.gnn_layers)],
        decoder={w: p[f"dec.{w}"] for w in ("w1", "b1", "w2", "b2")})


def forward(params, modalities, mask, view, config, rng=None, training=False):
    """Full pipeline: encode, fuse, message-pass, decode. ``modalities`` is
    what ``fusion.encode`` takes: the full matrices or their ObservedRows.

    Returns (logits tensor, N x M x K attention array (K = 1 for the
    equal-weight fusion), fused embedding tensor, final embedding tensor).
    """
    drop = config.dropout if training else 0.0
    h = fu.encode(modalities, mask, params.encoders, drop, rng)
    att, z = (fu.equal_weight_fuse(h, mask) if params.attention is None
              else fu.fuse_multi_head(h, mask, params.attention))
    z_out = z
    for layer_params in params.sage:
        z_out = sage_layer(z_out, view, layer_params, drop, rng)
    logits = decode(z_out, params.decoder)
    return logits, att, z, z_out
