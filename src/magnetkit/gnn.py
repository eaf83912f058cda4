"""GraphSAGE message passing with scalar edge features, and the MLP decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fusion as fu
from . import numerics as nm


class ModelError(ValueError):
    pass


@dataclass
class GraphView:
    """Node-level operators for one graph: the row-normalised adjacency and
    each node's mean incident edge feature. A node with an empty
    neighbourhood has a zero row in both, so it aggregates to zero."""

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
        return cls(
            n_nodes=n,
            mean_adj=sp.csr_matrix((inv[dst], (dst, src)), shape=(n, n),
                                   dtype=dtype),
            edge_mean=edge_mean,
        )


def sage_layer(z, view, params):
    """One GraphSAGE step: ReLU(z W_root + ([A z || e] W_msg) W_agg).

    The mean of the messages W_msg [z_v || e_uv] over u's neighbours is
    linear, so it equals W_msg applied to the mean neighbour embedding
    (A z, A row-normalised) and the mean edge feature e.
    """
    if z.shape[0] != view.n_nodes:
        raise ModelError("embedding row count does not match graph")
    neigh = nm.concat_last_dim([nm.sparse_matmul_const(view.mean_adj, z),
                                nm.constant(view.edge_mean)])
    agg = nm.matmul(nm.matmul(neigh, params["w_msg"]), params["w_agg"])
    root = nm.matmul(z, params["w_root"])
    return nm.relu(nm.add(root, agg))


def decode(z, dec_params):
    h = nm.relu(nm.add(nm.matmul(z, dec_params["w1"]), dec_params["b1"]))
    return nm.add(nm.matmul(h, dec_params["w2"]), dec_params["b2"])


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


def init_model(feature_dims, n_classes, config, rng):
    """Build the parameter registry of ``param_table`` in the run dtype and
    group its tensors by layer."""
    g = nm.ComputeGraph(config.dtype)
    for name, shape, init in param_table(feature_dims, n_classes, config):
        g.add_parameter(name, init(rng, shape))
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

    Returns (logits tensor, FusionState, fused embedding tensor, final
    embedding tensor).
    """
    drop = config.dropout if training else 0.0
    hs = fu.encode(modalities, mask, params.encoders)
    if drop > 0:
        hs = [nm.dropout(h, drop, rng) for h in hs]
    if params.attention is None:
        atts, z = [], fu.equal_weight_fuse(hs, mask)
    else:
        att, z = fu.fuse_multi_head(hs, mask, params.attention)
        atts = list(np.moveaxis(att.data, 2, 0))
    state = fu.FusionState(attention=atts, Z=z.data)
    z_out = z
    for layer_params in params.sage:
        z_out = sage_layer(z_out, view, layer_params)
        if drop > 0:
            z_out = nm.dropout(z_out, drop, rng)
    logits = decode(z_out, params.decoder)
    return logits, state, z, z_out
