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


def encode(modalities, mask, enc_params):
    """Run the observed rows of each modality through its MLP encoder;
    returns a list of N x d tensors.

    ``modalities`` is an ``ObservedRows`` or the list of full N x F_i
    matrices, whose observed rows are then gathered here. Modality i's
    encoder reads only the rows where ``mask[:, i]`` is 1, so its cost is
    proportional to the patients that have the modality. The rows of the
    others are exactly zero and their placeholders are never read.
    """
    obs = modalities
    if not isinstance(obs, ObservedRows):
        obs = ObservedRows.of(modalities, mask, enc_params[0][0].data.dtype)
    hs = []
    for rows, x_obs, (w1, b1, w2, b2) in zip(obs.rows, obs.blocks, enc_params):
        h = nm.relu(nm.add(nm.matmul(nm.constant(x_obs), w1), b1))
        hs.append(nm.scatter_rows(nm.add(nm.matmul(h, w2), b2), rows,
                                  obs.n_patients))
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
