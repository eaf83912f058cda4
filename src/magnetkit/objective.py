"""Training objective: summed cross-entropy, similarity-alignment KL, and
the weighted total."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm


class ObjectiveError(ValueError):
    pass


def ce_loss(logits, labels, rows=None):
    """Summed cross-entropy, log-sum-exp stabilized, over the rows of
    ``logits`` that the training patients occupy, as one tape node: label
    i belongs to row ``rows[i]`` (all rows if ``rows`` is None), and the
    other rows get a zero gradient."""
    y = np.asarray(labels, dtype=np.int64)
    x = logits.data if rows is None else logits.data[rows]
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise nm.NumericsError("cross_entropy shape mismatch")
    z = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    at = np.arange(len(y))
    probs = np.exp(z - lse[:, None])

    def backward(g):
        d = probs.copy()
        d[at, y] -= 1.0
        d *= g
        nm.accumulate(logits, d if rows is None
                      else nm.rows_grad(logits.data, rows, d))

    return nm.Tensor(np.asarray((lse - z[at, y]).sum()), parents=(logits,),
                     backward=backward, op="ce")


@dataclass(frozen=True)
class AlignmentTarget:
    """The constants of the alignment loss, built once per training run.

    ``p`` is the N x N pair distribution P, ``weights`` is 1 on the valid
    pairs and 0 elsewhere, both symmetric and in the run dtype; ``p_log_p``
    is the constant sum of p log p over p > 0.
    """

    p: np.ndarray
    weights: np.ndarray
    p_log_p: float


def build_P(sims, train_ids, dtype=np.float64):
    """Input-space pairwise distribution: shift cosines to (1+cos)/2 on valid
    ordered pairs i != j, then normalize globally.

    Returns the AlignmentTarget over train_ids; its valid pairs have a zero
    diagonal. The similarity matrix is symmetric, so P and W are too, bit
    for bit.
    """
    idx = np.asarray(train_ids, dtype=np.int64)
    block = np.ix_(idx, idx)
    vals = sims.values[block]
    valid = sims.valid[block]
    np.fill_diagonal(valid, False)
    if not valid.any():
        raise ObjectiveError("no valid patient pair for the alignment loss")
    aff = np.where(valid, (1.0 + vals) / 2.0, 0.0)
    del vals
    total = aff.sum()
    if total <= 0:
        # all valid pairs at cosine -1; fall back to uniform over valid pairs
        aff = valid.astype(float)
        total = aff.sum()
    aff /= total
    p = aff.astype(dtype, copy=False)
    pos = p[p > 0].astype(np.float64, copy=False)
    return AlignmentTarget(p=p, weights=valid.astype(dtype),
                           p_log_p=float((pos * np.log(pos)).sum()))


def kl_alignment_loss(z_tensor, target):
    """Differentiable KL(P || Q(z)) with Q built from the Student-t kernel on
    the current embeddings, normalized over the valid pair set."""
    return nm.student_t_kl(z_tensor, target.p, target.weights, target.p_log_p)


def total_loss(ce, kl, lam):
    """ce + lambda * kl as one tape node; lambda 0 disables the alignment
    term (``kl`` may then be None)."""
    if lam < 0:
        raise ObjectiveError("lambda must be nonnegative")
    if lam == 0:
        return ce

    def backward(g):
        nm.accumulate(ce, g)
        nm.accumulate(kl, g * lam)

    return nm.Tensor(ce.data + kl.data * lam, parents=(ce, kl),
                     backward=backward, op="total")
