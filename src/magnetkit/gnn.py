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


def init_sage_params(graph, d_in, d_out, layer, rng, prefix="sage"):
    w_root = graph.add_parameter(f"{prefix}{layer}.w_root",
                                 fu._he_uniform(rng, d_in, d_out))
    w_msg = graph.add_parameter(f"{prefix}{layer}.w_msg",
                                fu._he_uniform(rng, d_in + 1, d_out))
    w_agg = graph.add_parameter(f"{prefix}{layer}.w_agg",
                                fu._he_uniform(rng, d_out, d_out))
    return {"w_root": w_root, "w_msg": w_msg, "w_agg": w_agg}


def init_decoder_params(graph, d_in, hidden, n_classes, rng, prefix="dec"):
    return {
        "w1": graph.add_parameter(f"{prefix}.w1", fu._he_uniform(rng, d_in, hidden)),
        "b1": graph.add_parameter(f"{prefix}.b1", np.zeros(hidden)),
        "w2": graph.add_parameter(f"{prefix}.w2", fu._he_uniform(rng, hidden, n_classes)),
        "b2": graph.add_parameter(f"{prefix}.b2", np.zeros(n_classes)),
    }


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


def init_model(feature_dims, n_classes, config, rng):
    """Build the parameter registry for the full pipeline under a RunConfig,
    every parameter in the run dtype."""
    g = nm.ComputeGraph(config.dtype)
    hidden = config.encoder_hidden or config.embed_dim
    encoders = fu.init_encoder_params(g, feature_dims, hidden, config.embed_dim, rng)
    attention = None
    if not config.no_pmmha:
        attention = fu.init_attention_params(g, config.embed_dim, config.heads, rng)
    sage = []
    if not config.no_gnn:
        for layer in range(config.gnn_layers):
            sage.append(init_sage_params(g, config.embed_dim, config.embed_dim,
                                         layer, rng))
    decoder = init_decoder_params(g, config.embed_dim,
                                  max(2, config.embed_dim // 2), n_classes, rng)
    return ModelParams(graph=g, encoders=encoders, attention=attention,
                       sage=sage, decoder=decoder)


def forward(params, modalities, mask, view, config, rng=None, training=False):
    """Full pipeline: encode, fuse, message-pass, decode.

    Returns (logits tensor, FusionState, fused embedding tensor, final
    embedding tensor).
    """
    drop = config.dropout if training else 0.0
    hs = fu.encode(modalities, params.encoders)
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
