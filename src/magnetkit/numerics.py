"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Covers exactly the operations needed by the rest of the package: dense
matmul, two-operand einsum, row-bias addition, ReLU, row gather and
scatter, masked softmax over the modality axis, sparse-constant matrix
products for graph aggregation, a stabilized cross-entropy and the
Student-t KL alignment loss as one fused node. Everything is double
precision by default; float32 is opt-in for the scalability benchmark.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float64

# Additive mask value standing in for -inf; large enough that exp() of a
# masked logit underflows to 0 after row-max shifting, small enough to
# avoid inf arithmetic.
NEG_MASK = 1e30

# Rows per tile of the Student-t KL node's walk over the upper triangle.
KL_TILE = 128


class NumericsError(ValueError):
    pass


class Tensor:
    """Node in the implicit compute tape.

    ``data`` is a row-major numpy array. A parameter's array is the one
    live copy of its weights and the optimizer updates it in place; no
    other node's array is written after creation. Non-leaf tensors carry
    references to their parents and a backward closure. A node requires a
    gradient when it is created with ``requires_grad`` or when any parent
    does; backward visits only such nodes, so constants never get a grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, parents=(), backward=None,
                 op="leaf", checked=False):
        arr = np.asarray(data)
        if arr.dtype.kind not in "fiu":
            raise NumericsError(f"non-numeric tensor data ({arr.dtype})")
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        if checked and not np.all(np.isfinite(arr)):
            raise NumericsError("non-finite values in tensor")
        self.data = arr
        self.requires_grad = requires_grad or any(p.requires_grad
                                                  for p in parents)
        self.grad = None
        self.parents = parents
        self._backward = backward
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape})"


def constant(data):
    return Tensor(data, requires_grad=False, op="const")


class ComputeGraph:
    """Named registry of leaf parameters plus the backward driver.

    The tape itself lives on the tensors (parent links); this object only
    tracks which leaves are trainable parameters.
    """

    def __init__(self, dtype=DEFAULT_DTYPE):
        self.params = {}
        self.dtype = dtype

    def add_parameter(self, name, data):
        """Register a trainable leaf holding a copy of ``data`` in the
        registry's dtype."""
        if name in self.params:
            raise NumericsError(f"duplicate parameter name {name!r}")
        p = Tensor(np.array(data, dtype=self.dtype), requires_grad=True,
                   op="param")
        self.params[name] = p
        return p

    def backward(self, loss):
        """Reverse-mode gradients of a scalar loss for all registered parameters."""
        if loss.data.shape != ():
            raise NumericsError("backward requires a scalar loss")
        topo = _toposort(loss)
        for node in topo:
            node.grad = None
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for node in reversed(topo):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)
        grads = {}
        for name, p in self.params.items():
            if p.grad is None:
                grads[name] = np.zeros_like(p.data)
            else:
                grads[name] = p.grad
        return grads

    def values(self):
        return {name: p.data for name, p in self.params.items()}

    def set_values(self, values):
        for name, p in self.params.items():
            p.data = np.asarray(values[name], dtype=p.data.dtype).reshape(p.data.shape)


def _toposort(root):
    """The nodes that require a gradient and lead to ``root``, each after
    its parents."""
    order = []
    seen = set()
    stack = [(root, False)] if root.requires_grad else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _accum(tensor, grad):
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad
    else:
        tensor.grad = tensor.grad + grad


# ---------------------------------------------------------------------------
# ops


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise NumericsError(f"matmul shape mismatch {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return Tensor(out_data, parents=(a, b), backward=backward, op="matmul")


def add(a, b):
    """Elementwise addition; the only broadcast allowed is a row-vector bias."""
    if a.data.shape == b.data.shape:
        def backward(g):
            _accum(a, g)
            _accum(b, g)
    elif a.data.ndim == 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[1]:
        def backward(g):
            _accum(a, g)
            if b.requires_grad:
                _accum(b, g.sum(axis=0))
    else:
        raise NumericsError(f"add shape mismatch {a.shape} + {b.shape}")
    return Tensor(a.data + b.data, parents=(a, b), backward=backward, op="add")


def scale(a, c):
    c = float(c)

    def backward(g):
        _accum(a, g * c)

    return Tensor(a.data * c, parents=(a,), backward=backward, op="scale")


def relu(a):
    keep = a.data > 0

    def backward(g):
        _accum(a, g * keep)

    return Tensor(a.data * keep, parents=(a,), backward=backward, op="relu")


def concat_last_dim(tensors):
    if not tensors:
        raise NumericsError("concat of nothing")
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.shape[:-1] != lead:
            raise NumericsError("concat leading-shape mismatch")
    out_data = np.concatenate([t.data for t in tensors], axis=-1)
    widths = [t.data.shape[-1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accum(t, g[..., lo:hi])

    return Tensor(out_data, parents=tuple(tensors), backward=backward, op="concat")


def reshape(a, shape):
    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), parents=(a,), backward=backward, op="reshape")


def einsum(spec, a, b):
    """Two-operand ``np.einsum`` with an explicit output, e.g. "nm,nmd->nd".

    The grad of each operand is the einsum of the output grad with the
    other operand, spec swapped. That holds only if every index of an
    operand also appears in the other operand or in the output, so an
    index summed inside one operand is rejected.
    """
    ins, arrow, out = spec.partition("->")
    sa, _, sb = ins.partition(",")
    if not arrow or not sb or "," in sb:
        raise NumericsError(f"einsum spec {spec!r} needs two operands and '->'")
    for own, other in ((sa, sb), (sb, sa)):
        if len(set(own)) != len(own) or set(own) - set(other) - set(out):
            raise NumericsError(
                f"einsum spec {spec!r} sums an index inside one operand")

    def backward(g):
        if a.requires_grad:
            _accum(a, np.einsum(f"{out},{sb}->{sa}", g, b.data))
        if b.requires_grad:
            _accum(b, np.einsum(f"{sa},{out}->{sb}", a.data, g))

    return Tensor(np.einsum(spec, a.data, b.data), parents=(a, b),
                  backward=backward, op="einsum")


def select_rows(a, idx):
    idx = np.asarray(idx, dtype=np.int64)
    # strictly increasing indices from 0 up (a training split) never repeat
    # a row, so the backward can place rows instead of the much slower
    # np.add.at; a negative index may name the same row as a later one
    distinct = idx.size == 0 or (
        idx[0] >= 0 and bool(np.all(idx[1:] > idx[:-1])))

    def backward(g):
        full = np.zeros_like(a.data)
        if distinct:
            full[idx] = g
        else:
            np.add.at(full, idx, g)
        _accum(a, full)

    return Tensor(a.data[idx], parents=(a,), backward=backward, op="select")


def scatter_rows(a, idx, n_rows):
    """The rows of ``a`` placed at the distinct row indices ``idx`` of an
    ``n_rows``-row zero block; the inverse of ``select_rows``."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != a.data.shape[:1]:
        raise NumericsError(f"scatter of {a.shape} to {idx.shape} row indices")
    out = np.zeros((n_rows,) + a.data.shape[1:], dtype=a.data.dtype)
    out[idx] = a.data

    def backward(g):
        _accum(a, g[idx])

    return Tensor(out, parents=(a,), backward=backward, op="scatter")


def sparse_matmul_const(mat, a):
    """Product of a constant scipy sparse matrix with a dense tensor."""
    out_data = np.asarray(mat @ a.data)

    def backward(g):
        _accum(a, np.asarray(mat.T @ g))

    return Tensor(out_data, parents=(a,), backward=backward, op="spmm")


def dropout(a, rate, rng):
    if rate <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    keep = keep.astype(a.data.dtype)

    def backward(g):
        _accum(a, g * keep)

    return Tensor(a.data * keep, parents=(a,), backward=backward, op="dropout")


def masked_softmax(logits, mask):
    """Softmax over axis 1 restricted to mask==1 entries.

    ``logits`` is N x M or N x M x ... (e.g. one column per head); the
    N x M ``mask`` is broadcast over the trailing axes. Masked entries get
    exactly zero probability and exactly zero gradient; implemented as an
    additive -1e30 followed by explicit zeroing, avoiding true -inf
    arithmetic.
    """
    m = np.asarray(mask, dtype=logits.data.dtype)
    if m.ndim != 2 or m.shape != logits.data.shape[:2]:
        raise NumericsError("mask shape mismatch")
    if np.any(m.sum(axis=1) < 1):
        raise NumericsError("patient with no available modality")
    m = m.reshape(m.shape + (1,) * (logits.data.ndim - 2))
    z = logits.data + (m - 1.0) * NEG_MASK
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z) * m
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        gp = g * p
        _accum(logits, gp - p * gp.sum(axis=1, keepdims=True))

    return Tensor(p, parents=(logits,), backward=backward, op="masked_softmax")


def cross_entropy_sum(logits, labels):
    """Sum over rows of -log softmax(logits)[label], log-sum-exp stabilized."""
    y = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or y.shape != (logits.data.shape[0],):
        raise NumericsError("cross_entropy shape mismatch")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(len(y))
    loss = (lse - z[rows, y]).sum()
    probs = np.exp(z - lse[:, None])

    def backward(g):
        d = probs.copy()
        d[rows, y] -= 1.0
        _accum(logits, g * d)

    return Tensor(np.asarray(loss), parents=(logits,), backward=backward, op="ce")


def student_t_kl(z, p, weights, p_log_p):
    """KL(P || Q) of a fixed pair distribution P against the Student-t pair
    distribution Q of the rows of z, as one tape node.

    With d the squared distances between rows and k = 1 / (1 + d), Q is
    W * k / S on the pairs the constant ``weights`` W marks (1 valid, 0 not)
    and S = sum(W * k). ``p_log_p`` is the constant sum of p log p, so
    KL = p_log_p + sum(p log(1 + d)) + log S. P and W must be symmetric
    (``objective.AlignmentTarget`` makes them so). The backward is the
    t-SNE gradient: with the symmetric G = k * (P - W * k / S),
    dz = 4 (rowsum G * z - G z).

    k is symmetric too, so the node reads only the upper triangle: it walks
    row tiles I = i0:i0+KL_TILE against the columns i0:, where the square
    block on the diagonal counts once and the columns to its right twice,
    and keeps about N^2 / 2 kernel values between forward and backward.
    """
    x = z.data
    if x.ndim != 2:
        raise NumericsError("pairwise distance expects a matrix")
    n, dim = x.shape
    if p.shape != (n, n) or weights.shape != (n, n):
        raise NumericsError(f"pair matrices {p.shape} and {weights.shape} "
                            f"do not match {n} rows")
    sq = (x * x).sum(axis=1)
    ones = np.ones(n, dtype=x.dtype)
    # rows [z, 1, 1 + |z|^2] times columns [-2 z, |z|^2, 1] give 1 + d in
    # one product of two distinct operands (a plain GEMM, not numpy's slower
    # symmetric path for x @ x.T); the backward multiplies by [z, 1]
    rows = np.column_stack((x, ones, sq + 1.0))
    cols = np.vstack((-2.0 * x.T, sq, ones))
    starts = range(0, n, KL_TILE)
    tiles = []
    cross = s = 0.0
    logs = np.empty(min(KL_TILE, n) * n, dtype=x.dtype)
    for i0 in starts:
        i1 = min(i0 + KL_TILE, n)
        k = rows[i0:i1] @ cols[:, i0:]
        np.maximum(k, 1.0, out=k)
        cross += _upper_sum(p[i0:i1, i0:],
                            np.log(k, out=logs[:k.size].reshape(k.shape)))
        np.reciprocal(k, out=k)
        s += _upper_sum(weights[i0:i1, i0:], k)
        tiles.append(k)

    def backward(g):
        # products with [z, 1] give G z and rowsum G together
        xa = rows[:, :dim + 1]
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
        _accum(z, dz)

    value = np.asarray(p_log_p + cross + np.log(s), dtype=x.dtype)
    return Tensor(value, parents=(z,), backward=backward, op="student_t_kl")


def _upper_sum(a, b):
    """Sum of a * b over a row tile of the upper triangle of two symmetric
    matrices: the leading square block once, the columns right of it
    twice. Row sums in the operands' dtype, the rest in float64."""
    db = a.shape[0]
    return (2.0 * float(np.vecdot(a, b).sum(dtype=np.float64))
            - float(np.vecdot(a[:, :db], b[:, :db]).sum(dtype=np.float64)))
