"""Training objective: summed cross-entropy, similarity-alignment KL, and
the weighted total."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm


# Rows per tile of the Student-t KL node's walk over the upper triangle.
KL_TILE = 128


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


def kl_alignment_loss(z, target, rows=None):
    """KL(P || Q) of the ``target`` pair distribution P against the
    Student-t pair distribution Q of the rows of ``z`` that the training
    patients occupy, as one tape node: patient i of P is row ``rows[i]``
    (all rows if ``rows`` is None), and the other rows get a zero gradient.

    With d the squared distances between rows, k = 1 / (1 + d), W the valid
    pairs and S = sum(W * k): Q = W * k / S and KL = p_log_p +
    sum(p log(1 + d)) + log S. The backward is the t-SNE gradient: with the
    symmetric G = k * (P - W * k / S), dz = 4 (rowsum G * z - G z).

    k is symmetric, as P and W are, so the node reads only the upper
    triangle: it walks row tiles I = i0:i0+KL_TILE against the columns i0:,
    where the square block on the diagonal counts once and the columns to
    its right twice, and keeps about N^2 / 2 kernel values between forward
    and backward.
    """
    p, weights = target.p, target.weights
    x = z.data if rows is None else z.data[rows]
    if x.ndim != 2:
        raise nm.NumericsError("pairwise distance expects a matrix")
    n, dim = x.shape
    if p.shape != (n, n) or weights.shape != (n, n):
        raise nm.NumericsError(f"pair matrices {p.shape} and {weights.shape} "
                               f"do not match {n} rows")
    sq = (x * x).sum(axis=1)
    ones = np.ones(n, dtype=x.dtype)
    # rows [z, 1, 1 + |z|^2] times columns [-2 z, |z|^2, 1] give 1 + d in
    # one product of two distinct operands (a plain GEMM, not numpy's slower
    # symmetric path for x @ x.T); the backward multiplies by [z, 1]
    ext = np.column_stack((x, ones, sq + 1.0))
    cols = np.vstack((-2.0 * x.T, sq, ones))
    starts = range(0, n, KL_TILE)
    tiles = []
    cross = s = 0.0
    logs = np.empty(min(KL_TILE, n) * n, dtype=x.dtype)
    for i0 in starts:
        i1 = min(i0 + KL_TILE, n)
        k = ext[i0:i1] @ cols[:, i0:]
        np.maximum(k, 1.0, out=k)
        cross += _upper_sum(p[i0:i1, i0:],
                            np.log(k, out=logs[:k.size].reshape(k.shape)))
        np.reciprocal(k, out=k)
        s += _upper_sum(weights[i0:i1, i0:], k)
        tiles.append(k)

    def backward(g):
        # products with [z, 1] give G z and rowsum G together
        xa = ext[:, :dim + 1]
        acc = np.zeros((n, dim + 1), dtype=x.dtype)
        buf = np.empty(min(KL_TILE, n) * n, dtype=x.dtype)
        for i0, k in zip(starts, tiles):
            i1 = i0 + k.shape[0]
            grad = np.multiply(weights[i0:i1, i0:], k,
                               out=buf[:k.size].reshape(k.shape))
            grad *= -1.0 / s
            grad += p[i0:i1, i0:]
            grad *= k
            acc[i0:i1] += grad @ xa[i0:]
            acc[i1:] += grad[:, i1 - i0:].T @ xa[i0:i1]
        dz = acc[:, dim:] * x
        dz -= acc[:, :dim]
        dz *= 4.0 * float(g)
        nm.accumulate(z, dz if rows is None
                      else nm.rows_grad(z.data, rows, dz))

    value = np.asarray(target.p_log_p + cross + np.log(s), dtype=x.dtype)
    return nm.Tensor(value, parents=(z,), backward=backward, op="kl")


def _upper_sum(a, b):
    """Sum of a * b over a row tile of the upper triangle of two symmetric
    matrices: the leading square block once, the columns right of it
    twice. Row sums in the operands' dtype, the rest in float64."""
    db = a.shape[0]
    return (2.0 * float(np.vecdot(a, b).sum(dtype=np.float64))
            - float(np.vecdot(a[:, :db], b[:, :db]).sum(dtype=np.float64)))


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
