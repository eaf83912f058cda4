"""Modality encoders and patient-modality multi-head attention fusion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class ObservedRows:
    """The forward pass's input: the N x M 0/1 ``mask`` and, for each
    modality, the patients that have it (``rows[i]``) and their feature
    rows (``blocks[i]``), gathered into a C-ordered block of the run dtype.
    A training run builds it once and every epoch reads its training
    rows; the rows of absent modalities are never copied.
    """

    mask: np.ndarray
    rows: list
    blocks: list

    @classmethod
    def of(cls, modalities, mask, dtype):
        mask = np.asarray(mask)
        rows = [np.flatnonzero(mask[:, i]) for i in range(len(modalities))]
        return cls(mask=mask, rows=rows,
                   blocks=[np.ascontiguousarray(x[r], dtype=dtype)
                           for x, r in zip(modalities, rows)])

    def take(self, idx):
        """The ObservedRows of the patients ``idx``, an increasing index
        array, renumbered 0..len(idx)-1 in that order."""
        pos = np.full(len(self.mask), -1)
        pos[idx] = np.arange(len(idx))
        at = [pos[r] for r in self.rows]
        return ObservedRows(self.mask[idx], [r[r >= 0] for r in at],
                            [b[r >= 0] for r, b in zip(at, self.blocks)])


def encode(obs, enc_params, dropout=0.0, rng=None):
    """Run the observed rows of each modality (an ``ObservedRows``) through
    its MLP encoder (matmul, bias, ReLU, matmul, bias) as one tape node;
    returns the N x M x d block whose entry (j, i) is patient j's
    modality-i embedding, exactly zero where the modality is missing.
    With ``dropout`` > 0 each modality's observed embeddings are
    multiplied by a len(rows) x d inverted-dropout mask drawn from
    ``rng``, in modality order.
    """
    w_last = enc_params[0][2].data
    n, d = len(obs.mask), w_last.shape[1]
    block = np.zeros((n, len(enc_params), d), dtype=w_last.dtype)
    hidden = []
    for i, (rows, x, params) in enumerate(zip(obs.rows, obs.blocks,
                                              enc_params)):
        h, out = nm.mlp_forward(x, *params)
        keep = None
        if dropout > 0:
            keep = nm.dropout_mask(out.shape, dropout, rng, block.dtype)
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
    att_mat = np.zeros((heads * d_h, heads), dtype=w_att[0].data.dtype)
    for k, w in enumerate(w_att):
        att_mat[k * d_h:(k + 1) * d_h, k:k + 1] = w.data
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
