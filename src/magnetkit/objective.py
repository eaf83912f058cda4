"""Training objective: summed cross-entropy, similarity-alignment KL, and
the weighted total."""

from __future__ import annotations

import numpy as np

from . import numerics as nm


class ObjectiveError(ValueError):
    pass


def ce_loss(logits, labels):
    """Summed cross-entropy over the given rows (training patients only)."""
    return nm.cross_entropy_sum(logits, labels)


def build_P(sims, train_ids):
    """Input-space pairwise distribution: shift cosines to (1+cos)/2 on valid
    ordered pairs i != j, then normalize globally.

    Returns (P matrix over train_ids, bool valid-pair mask with zero diagonal).
    """
    idx = np.asarray(train_ids, dtype=np.int64)
    vals = sims.values[np.ix_(idx, idx)]
    valid = sims.valid[np.ix_(idx, idx)].copy()
    np.fill_diagonal(valid, False)
    if not valid.any():
        raise ObjectiveError("no valid patient pair for the alignment loss")
    aff = np.where(valid, (1.0 + vals) / 2.0, 0.0)
    total = aff.sum()
    if total <= 0:
        # all valid pairs at cosine -1; fall back to uniform over valid pairs
        aff = valid.astype(float)
        total = aff.sum()
    return aff / total, valid


def kl_alignment_loss(z_tensor, p, valid):
    """Differentiable KL(P || Q(z)) with Q built from the Student-t kernel on
    the current embeddings, normalized over the valid pair set."""
    p = np.asarray(p, dtype=float)
    valid_f = valid.astype(float)
    d = nm.squared_euclidean_pairwise(z_tensor)
    k = nm.reciprocal(nm.shift(d, 1.0))
    total = nm.dot_const(k, valid_f)  # scalar sum of kernel over valid pairs
    # KL = sum p log p - sum p log k + log(total); the p log p term is constant.
    log_k = nm.log(k)  # finite everywhere: kernel is in (0, 1]
    cross = nm.dot_const(log_k, p)
    p_pos = p[p > 0]
    entropy_term = float((p_pos * np.log(p_pos)).sum())
    return nm.add(nm.shift(nm.scale(cross, -1.0), entropy_term), nm.log(total))


def total_loss(ce, kl, lam):
    """ce + lambda * kl; lambda 0 disables the alignment term."""
    if lam < 0:
        raise ObjectiveError("lambda must be nonnegative")
    if isinstance(ce, nm.Tensor):
        if lam == 0:
            return ce
        return nm.add(ce, nm.scale(kl, lam))
    return ce + lam * kl
