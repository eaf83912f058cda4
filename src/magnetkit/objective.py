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


def ce_loss(logits, labels):
    """Summed cross-entropy, log-sum-exp stabilized, of the rows of
    ``logits`` against their ``labels``, as one tape node."""
    y = np.asarray(labels, dtype=np.int64)
    x = logits.data
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
        nm.accumulate(logits, d)

    return nm.Tensor(np.asarray((lse - z[at, y]).sum()), parents=(logits,),
                     backward=backward, op="ce")


@dataclass(frozen=True)
class AlignmentTarget:
    """The constants of the alignment loss, built once per training run.

    P and W are stored as the KL node reads them: for each row tile
    I = i0:i0+KL_TILE of the N training rows, ``p`` holds the tile
    ``P[I, i0:]`` in the run dtype and ``weights`` the tile ``W[I, i0:]``
    of the symmetric matrices, so the lower triangle below the square
    blocks on the diagonal is never stored. A W tile is bool (the valid
    pairs) or a float weight. ``p_log_p`` is the constant sum of p log p
    over p > 0.
    """

    p: tuple
    weights: tuple
    p_log_p: float


def build_P(sims, train_ids, dtype=np.float64):
    """Input-space pairwise distribution: shift cosines to (1+cos)/2 on valid
    ordered pairs i != j, then normalize globally.

    Returns the AlignmentTarget over train_ids in the KL node's row tiles,
    each read as one block of the packed similarity; its valid pairs have a
    zero diagonal, and W is the block's validity. Both orders of a pair
    read the same packed similarity, so each square block on the diagonal
    is symmetric bit for bit. The normaliser and the sum of p log p are
    taken in float64 tile by tile, the square block once and the columns
    right of it twice.
    """
    ids = np.asarray(train_ids, dtype=np.int64)
    aff, weights = [], []
    for i0 in range(0, len(ids), KL_TILE):
        a, valid = sims.block(ids[i0:i0 + KL_TILE], ids[i0:])
        a += 1.0
        a /= 2.0
        np.copyto(a, 0.0, where=~valid)
        aff.append(a)
        weights.append(valid)
    if not any(valid.any() for valid in weights):
        raise ObjectiveError("no valid patient pair for the alignment loss")
    total = sum(map(_upper_sum, aff, weights))
    if total <= 0:
        # all valid pairs at cosine -1; fall back to uniform over valid pairs
        aff = [valid.astype(float) for valid in weights]
        total = sum(map(_upper_sum, aff, weights))
    p, p_log_p = [], 0.0
    while aff:  # each float64 tile goes once its run-dtype copy is made
        a = aff.pop(0)
        a /= total
        p.append(a.astype(dtype, copy=False))
        pos = p[-1].astype(np.float64, copy=False)
        p_log_p += _upper_sum(pos, np.log(pos, out=np.zeros_like(pos),
                                          where=pos > 0))
    return AlignmentTarget(p=tuple(p), weights=tuple(weights),
                           p_log_p=p_log_p)


def kl_alignment_loss(z, target):
    """KL(P || Q) of the ``target`` pair distribution P against the
    Student-t pair distribution Q of the rows of ``z``, as one tape node:
    row i of ``z`` is patient i of P.

    With d the squared distances between rows, k = 1 / (1 + d), W the valid
    pairs and S = sum(W * k): Q = W * k / S and KL = p_log_p +
    sum(p log(1 + d)) + log S. The backward is the t-SNE gradient: with the
    symmetric G = k * (P - W * k / S), dz = 4 (rowsum G * z - G z).

    k is symmetric, as P and W are, so the node reads only the upper
    triangle: it walks the target's row tiles I = i0:i0+KL_TILE against the
    columns i0:, where the square block on the diagonal counts once and the
    columns to its right twice. It keeps about N^2 / 2 kernel values from
    the forward to its backward, which frees them; a second backward
    through the node raises.
    """
    p, weights = target.p, target.weights
    x = z.data
    if x.ndim != 2:
        raise nm.NumericsError("pairwise distance expects a matrix")
    n, dim = x.shape
    starts = range(0, n, KL_TILE)
    shapes = [(min(KL_TILE, n - i0), n - i0) for i0 in starts]
    if any([t.shape for t in tiles] != shapes for tiles in (p, weights)):
        raise nm.NumericsError(f"pair tiles do not match {n} rows")
    sq = (x * x).sum(axis=1)
    ones = np.ones(n, dtype=x.dtype)
    # rows [z, 1, 1 + |z|^2] times columns [-2 z, |z|^2, 1] give 1 + d in
    # one product of two distinct operands (a plain GEMM, not numpy's slower
    # symmetric path for x @ x.T); the backward multiplies by [z, 1]
    ext = np.column_stack((x, ones, sq + 1.0))
    cols = np.vstack((-2.0 * x.T, sq, ones))
    tiles = []
    cross = s = 0.0
    logs = np.empty(min(KL_TILE, n) * n, dtype=x.dtype)
    for i0, p_t, w_t in zip(starts, p, weights):
        k = ext[i0:i0 + KL_TILE] @ cols[:, i0:]
        np.maximum(k, 1.0, out=k)
        cross += _upper_sum(p_t, np.log(k, out=logs[:k.size].reshape(k.shape)))
        np.reciprocal(k, out=k)
        s += _upper_sum(w_t, k)
        tiles.append(k)

    def backward(g):
        nonlocal tiles
        if tiles is None:
            raise nm.NumericsError("the KL node's kernel is freed after its "
                                   "first backward")
        # products with [z, 1] give G z and rowsum G together
        xa = ext[:, :dim + 1]
        acc = np.zeros((n, dim + 1), dtype=x.dtype)
        buf = np.empty(min(KL_TILE, n) * n, dtype=x.dtype)
        for i0, k, p_t, w_t in zip(starts, tiles, p, weights):
            i1 = i0 + k.shape[0]
            grad = np.multiply(w_t, k, out=buf[:k.size].reshape(k.shape))
            grad *= -1.0 / s
            grad += p_t
            grad *= k
            acc[i0:i1] += grad @ xa[i0:]
            acc[i1:] += grad[:, i1 - i0:].T @ xa[i0:i1]
        tiles = None
        dz = acc[:, dim:] * x
        dz -= acc[:, :dim]
        dz *= 4.0 * float(g)
        nm.accumulate(z, dz)

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
