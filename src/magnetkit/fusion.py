"""Modality encoders and patient-modality multi-head attention fusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm


class FusionError(ValueError):
    pass


@dataclass
class FusionState:
    """Forward artifacts kept for export: per-head attention and the fused
    embedding (plain arrays)."""

    attention: list          # K arrays of N x M
    Z: np.ndarray            # N x d


def init_encoder_params(graph, feature_dims, hidden_dim, embed_dim, rng,
                        prefix="enc"):
    """Two-layer ReLU MLP per modality, He-style uniform fan-in init."""
    params = []
    for i, d_in in enumerate(feature_dims):
        w1 = graph.add_parameter(f"{prefix}{i}.w1", _he_uniform(rng, d_in, hidden_dim))
        b1 = graph.add_parameter(f"{prefix}{i}.b1", np.zeros(hidden_dim))
        w2 = graph.add_parameter(f"{prefix}{i}.w2", _he_uniform(rng, hidden_dim, embed_dim))
        b2 = graph.add_parameter(f"{prefix}{i}.b2", np.zeros(embed_dim))
        params.append((w1, b1, w2, b2))
    return params


def init_attention_params(graph, embed_dim, heads, rng, prefix="att"):
    """W_lin, per-head attention vectors (zero-initialized so epoch-0
    attention is uniform over available modalities), and a near-identity
    output projection."""
    if embed_dim % heads != 0:
        raise FusionError(f"head count {heads} does not divide dim {embed_dim}")
    d_h = embed_dim // heads
    w_lin = graph.add_parameter(f"{prefix}.w_lin", _he_uniform(rng, embed_dim, embed_dim))
    w_att = [graph.add_parameter(f"{prefix}.w_att{k}", np.zeros((d_h, 1)))
             for k in range(heads)]
    w_out = graph.add_parameter(
        f"{prefix}.w_out",
        np.eye(embed_dim) + rng.normal(0.0, 0.01, size=(embed_dim, embed_dim)))
    return {"w_lin": w_lin, "w_att": w_att, "w_out": w_out,
            "heads": heads, "d_h": d_h}


def _he_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def encode(modalities, enc_params):
    """Run each modality through its MLP encoder; returns a list of N x d tensors.

    Rows of patients missing a modality are computed on the zero
    placeholders but are zeroed out of every downstream quantity by the
    attention mask.
    """
    hs = []
    for x, (w1, b1, w2, b2) in zip(modalities, enc_params):
        x_t = x if isinstance(x, nm.Tensor) else nm.constant(x)
        h = nm.relu(nm.add(nm.matmul(x_t, w1), b1))
        hs.append(nm.add(nm.matmul(h, w2), b2))
    return hs


def fuse_multi_head(h_list, mask, att_params):
    """Multi-head fusion over the stacked N x M x d embeddings: W_lin
    transform, contiguous channel split across K heads, masked softmax over
    the modalities of each head, attention-weighted sum, concat, output
    projection.

    Returns (N x M x K attention tensor, fused N x d tensor).
    """
    _check_mask(mask, len(h_list))
    heads, d_h = att_params["heads"], att_params["d_h"]
    n, m = np.shape(mask)
    h = nm.reshape(nm.concat_last_dim(h_list), (n * m, heads * d_h))
    t = nm.reshape(nm.matmul(h, att_params["w_lin"]), (n, m, heads, d_h))
    w_att = nm.concat_last_dim(att_params["w_att"])  # d_h x K
    att = nm.masked_softmax(nm.einsum("nmkh,hk->nmk", t, w_att), mask)
    z = nm.reshape(nm.einsum("nmk,nmkh->nkh", att, t), (n, heads * d_h))
    return att, nm.matmul(z, att_params["w_out"])


def equal_weight_fuse(h_list, mask):
    """Fusion ablation: plain mean of the available modality embeddings."""
    _check_mask(mask, len(h_list))
    n, m = np.shape(mask)
    h = nm.reshape(nm.concat_last_dim(h_list), (n, m, -1))
    w = np.asarray(mask, dtype=h.data.dtype)
    w = nm.constant(w / w.sum(axis=1, keepdims=True))
    return nm.einsum("nm,nmd->nd", w, h)


def _check_mask(mask, n_modalities):
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[1] != n_modalities:
        raise FusionError("mask shape does not match modality count")
    if np.any(mask.sum(axis=1) < 1):
        raise FusionError("patient with all modalities missing")


def export_attention(state, patient_ids=None, modality_names=None):
    """Flatten attention weights to (patient_id, head, modality, weight) rows.

    Missing modalities are reported with weight 0.
    """
    n, m = state.attention[0].shape
    pids = patient_ids if patient_ids is not None else [f"p{j}" for j in range(n)]
    mods = modality_names if modality_names is not None else list(range(m))
    rows = []
    for k, att in enumerate(state.attention):
        for j in range(n):
            for i in range(m):
                rows.append((pids[j], k, mods[i], float(att[j, i])))
    return rows


def write_attention_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("patient_id,head,modality,weight\n")
        for pid, head, mod, w in rows:
            fh.write(f"{pid},{head},{mod},{w:.6f}\n")
