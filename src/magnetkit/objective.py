"""Training objective: summed cross-entropy, similarity-alignment KL, and
the weighted total."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm


class ObjectiveError(ValueError):
    pass


def ce_loss(logits, labels):
    """Summed cross-entropy over the given rows (training patients only)."""
    return nm.cross_entropy_sum(logits, labels)


@dataclass(frozen=True)
class AlignmentTarget:
    """The constants of the alignment loss, built once per training run.

    ``p`` is the N x N pair distribution P, ``weights`` is 1 on the valid
    pairs and 0 elsewhere, both in the run dtype; ``p_log_p`` is the
    constant sum of p log p over p > 0. The loss sees P and the weights only
    through their symmetric parts (its kernel is symmetric), so both are
    stored symmetrised; a symmetric input is kept bit for bit.
    """

    p: np.ndarray
    weights: np.ndarray
    p_log_p: float

    @classmethod
    def of(cls, p, valid, dtype=np.float64):
        p = np.asarray(p, dtype=dtype)
        pos = p[p > 0].astype(np.float64, copy=False)
        p_log_p = float((pos * np.log(pos)).sum())
        del pos
        return cls(p=_symmetric_part(p, dtype),
                   weights=_symmetric_part(np.asarray(valid), dtype),
                   p_log_p=p_log_p)


def _symmetric_part(a, dtype):
    """(a + a^T) / 2 in ``dtype``, built in one new array."""
    out = np.add(a, a.T, dtype=dtype)
    out *= 0.5
    return out


def build_P(sims, train_ids, dtype=np.float64):
    """Input-space pairwise distribution: shift cosines to (1+cos)/2 on valid
    ordered pairs i != j, then normalize globally.

    Returns the AlignmentTarget over train_ids; its valid pairs have a zero
    diagonal.
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
    aff /= total
    return AlignmentTarget.of(aff, valid, dtype)


def kl_alignment_loss(z_tensor, target):
    """Differentiable KL(P || Q(z)) with Q built from the Student-t kernel on
    the current embeddings, normalized over the valid pair set."""
    return nm.student_t_kl(z_tensor, target.p, target.weights, target.p_log_p)


def total_loss(ce, kl, lam):
    """ce + lambda * kl on tensors; lambda 0 disables the alignment term."""
    if lam < 0:
        raise ObjectiveError("lambda must be nonnegative")
    if lam == 0:
        return ce
    return nm.add(ce, nm.scale(kl, lam))
