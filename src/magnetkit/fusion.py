"""Modality encoders and patient-modality multi-head attention fusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from . import numerics as nm


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class ObservedRows:
    """The encoders' input: for each modality, the patients that have it
    (``rows[i]``) and their feature rows (``blocks[i]``), gathered into a
    C-ordered block of the run dtype. A training run builds it once and
    every epoch reads it; the rows of absent modalities are never copied.
    """

    n_patients: int
    rows: list
    blocks: list

    @classmethod
    def of(cls, modalities, mask, dtype):
        mask = np.asarray(mask)
        rows = [np.flatnonzero(mask[:, i]) for i in range(len(modalities))]
        return cls(n_patients=len(mask), rows=rows,
                   blocks=[np.ascontiguousarray(x[r], dtype=dtype)
                           for x, r in zip(modalities, rows)])


def encode(modalities, mask, enc_params, dropout=0.0, rng=None):
    """Run the observed rows of each modality through its MLP encoder
    (matmul, bias, ReLU, matmul, bias) as one tape node; returns the
    N x M x d block whose entry (j, i) is patient j's modality-i embedding.

    ``modalities`` is an ``ObservedRows`` or the full N x F_i matrices,
    whose observed rows (``mask[:, i]`` 1) are then gathered here; the
    other entries are exactly zero and their placeholders are never read.
    With ``dropout`` > 0 each modality's embeddings are multiplied by an
    N x d inverted-dropout mask drawn from ``rng``, in modality order.
    """
    obs = modalities
    if not isinstance(obs, ObservedRows):
        obs = ObservedRows.of(modalities, mask, enc_params[0][0].data.dtype)
    w_last = enc_params[0][2].data
    n, d = obs.n_patients, w_last.shape[1]
    block = np.zeros((n, len(enc_params), d), dtype=w_last.dtype)
    hidden = []
    for i, (rows, x, params) in enumerate(zip(obs.rows, obs.blocks,
                                              enc_params)):
        h, out = nm.mlp_forward(x, *params)
        keep = None
        if dropout > 0:
            keep = nm.dropout_mask((n, d), dropout, rng, block.dtype)[rows]
            out *= keep
        block[rows, i] = out
        hidden.append((h, keep))

    def backward(g):
        for i, (rows, x, (h, keep)) in enumerate(zip(obs.rows, obs.blocks,
                                                     hidden)):
            g_out = g[rows, i]
            if keep is not None:
                g_out *= keep
            nm.mlp_backward(x, h, g_out, *enc_params[i])

    return nm.Tensor(block, parents=tuple(p for ps in enc_params for p in ps),
                     backward=backward, op="encode")


def fuse_multi_head(h, mask, att_params):
    """Multi-head fusion over the N x M x d block ``h`` as one tape node:
    W_lin transform, contiguous channel split across K heads, masked
    softmax over the modalities of each head, attention-weighted sum,
    concat, output projection. The head logits are one product of the
    transformed block with the d x K block-diagonal matrix of the per-head
    attention vectors.

    Returns (N x M x K attention array, fused N x d tensor).
    """
    n, m, d = h.shape
    _check_mask(mask, m)
    heads, d_h = att_params["heads"], att_params["d_h"]
    w_lin, w_att, w_out = (att_params[k] for k in ("w_lin", "w_att", "w_out"))
    h2 = h.data.reshape(n * m, d)
    t = h2 @ w_lin.data
    t4 = t.reshape(n, m, heads, d_h)
    att_mat = block_diag(*(w.data for w in w_att))  # d x K
    att = nm.masked_softmax_probs((t @ att_mat).reshape(n, m, heads), mask)
    fused = np.einsum("nmk,nmkh->nkh", att, t4).reshape(n, d)

    def backward(g):
        nm.accumulate(w_out, fused.T @ g)
        g_fused = (g @ w_out.data.T).reshape(n, 1, heads, d_h)
        g_logits = nm.masked_softmax_grad(att, (g_fused * t4).sum(axis=3))
        g_logits = g_logits.reshape(n * m, heads)
        g_t = (att[..., None] * g_fused).reshape(n * m, d)
        g_t += g_logits @ att_mat.T
        g_att = t.T @ g_logits
        for k, w in enumerate(w_att):
            nm.accumulate(w, g_att[k * d_h:(k + 1) * d_h, k:k + 1])
        nm.accumulate(w_lin, h2.T @ g_t)
        nm.accumulate(h, (g_t @ w_lin.data.T).reshape(n, m, d))

    z = nm.Tensor(fused @ w_out.data, parents=(h, w_lin, *w_att, w_out),
                  backward=backward, op="fuse_multi_head")
    return att, z


def equal_weight_fuse(h, mask):
    """Fusion ablation: plain mean of the available modality embeddings of
    the N x M x d block ``h``, as one tape node. Returns (N x M x 1 weights,
    the mask over each patient's modality count; fused N x d tensor)."""
    _check_mask(mask, h.shape[1])
    w = np.asarray(mask, dtype=h.data.dtype)
    w = w / w.sum(axis=1, keepdims=True)

    def backward(g):
        nm.accumulate(h, w[:, :, None] * g[:, None, :])

    return w[:, :, None], nm.Tensor(np.einsum("nm,nmd->nd", w, h.data),
                                    parents=(h,), backward=backward,
                                    op="equal_weight_fuse")


def _check_mask(mask, n_modalities):
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[1] != n_modalities:
        raise FusionError("mask shape does not match modality count")
    if np.any(mask.sum(axis=1) < 1):
        raise FusionError("patient with all modalities missing")


def write_attention_csv(att, path, patient_ids, modality_names):
    """Write the N x M x K attention array as (patient_id, head, modality,
    weight) rows, head by head; a missing modality has weight 0."""
    with open(path, "w") as fh:
        fh.write("patient_id,head,modality,weight\n")
        for k, head in enumerate(np.moveaxis(att, 2, 0).tolist()):
            for pid, weights in zip(patient_ids, head):
                for mod, w in zip(modality_names, weights):
                    fh.write(f"{pid},{k},{mod},{w:.6f}\n")
