"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Each model layer is one tape node with a closed-form backward, built in
its layer function (`fusion.encode`, `fusion.fuse_multi_head`,
`gnn.sage_layer`, `gnn.decode`). This module holds the tape, the
parameter registry, the MLP, masked-softmax and dropout kernels the
layers share, a row gather and the Student-t KL alignment loss. Every
parameter is a view into one flat array and its gradient a view into one
flat gradient array. Double precision by default; float32 is opt-in.
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
    live copy of its weights, a view into its registry's flat buffer, and
    the optimizer updates it in place; no other node's array is written
    after creation. Non-leaf tensors carry references to their parents and
    a backward closure. A node requires a gradient when it is created with
    ``requires_grad`` or when any parent does; backward visits only such
    nodes, so constants never get a grad. ``grad_out`` is a parameter's
    view of the flat gradient array (None for other tensors).
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "_backward", "op",
                 "grad_out")

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
        self.grad_out = None

    @property
    def shape(self):
        return self.data.shape


class ComputeGraph:
    """Named registry of leaf parameters plus the backward driver.

    The tape itself lives on the tensors (parent links); this object only
    tracks which leaves are trainable parameters. Their arrays are views
    into ``flat`` and their gradients views into ``grad``, both in the
    registry's dtype and in registration order.
    """

    def __init__(self, dtype=DEFAULT_DTYPE):
        self.params = {}
        self.dtype = dtype
        self.flat = np.zeros(0, dtype=dtype)
        self.grad = np.zeros(0, dtype=dtype)

    def add_parameters(self, shapes):
        """Register zero-filled trainable leaves for the (name, shape)
        pairs and return them. Every parameter is laid out anew in the flat
        arrays, keeping its values, so a model is best added at once."""
        new = []
        for name, shape in shapes:
            if name in self.params:
                raise NumericsError(f"duplicate parameter name {name!r}")
            new.append(Tensor(np.zeros(shape, dtype=self.dtype),
                              requires_grad=True, op="param"))
            self.params[name] = new[-1]
        ends = np.cumsum([0] + [p.data.size for p in self.params.values()])
        self.flat = np.empty(ends[-1], dtype=self.dtype)
        self.grad = np.zeros(ends[-1], dtype=self.dtype)
        for p, lo, hi in zip(self.params.values(), ends[:-1], ends[1:]):
            view = self.flat[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data, p.grad_out = view, self.grad[lo:hi].reshape(view.shape)
        return new

    def add_parameter(self, name, data):
        """Register a trainable leaf holding a copy of ``data`` in the
        registry's dtype."""
        p, = self.add_parameters([(name, np.shape(data))])
        p.data[...] = data
        return p

    def backward(self, loss):
        """Reverse-mode gradients of a scalar loss, written into the views
        of the flat gradient array; returns them by parameter name. A
        parameter the loss does not reach gets zeros."""
        if loss.data.shape != ():
            raise NumericsError("backward requires a scalar loss")
        topo = _toposort(loss)
        for node in (*topo, *self.params.values()):
            node.grad = None
        accumulate(loss, np.ones((), dtype=loss.data.dtype))
        for node in reversed(topo):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
        for p in self.params.values():
            if p.grad is None:
                p.grad_out[...] = 0
        return {name: p.grad_out for name, p in self.params.items()}

    def values(self):
        return {name: p.data for name, p in self.params.items()}


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


def accumulate(tensor, grad):
    """Add ``grad`` to ``tensor``'s gradient in this backward pass. A
    parameter's first gradient is written into its flat-gradient view and
    later ones are added there."""
    if not tensor.requires_grad:
        return
    out = tensor.grad_out
    if out is None:
        tensor.grad = grad if tensor.grad is None else tensor.grad + grad
    elif tensor.grad is None:
        out[...] = grad
        tensor.grad = out
    else:
        out += grad


# ---------------------------------------------------------------------------
# kernels shared by the layer nodes


def mlp_forward(x, w1, b1, w2, b2):
    """ReLU(x W1 + b1) W2 + b2 of an array and four parameter tensors;
    returns the hidden activations and the output."""
    h = x @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    out = h @ w2.data
    out += b2.data
    return h, out


def mlp_backward(x, h, g, w1, b1, w2, b2):
    """Accumulate the parameter gradients of ``mlp_forward`` for the output
    gradient ``g``; returns the gradient of the first layer's output."""
    accumulate(b2, g.sum(axis=0))
    accumulate(w2, h.T @ g)
    g_h = g @ w2.data.T
    g_h *= h > 0
    accumulate(b1, g_h.sum(axis=0))
    accumulate(w1, x.T @ g_h)
    return g_h


def dropout_mask(shape, rate, rng, dtype):
    """Inverted-dropout multipliers: 0 with probability ``rate``, else
    1 / (1 - rate); one ``rng.random(shape)`` draw."""
    return np.multiply(rng.random(shape) >= rate, 1.0 / (1.0 - rate),
                       dtype=dtype)


def masked_softmax_probs(logits, mask):
    """Softmax over axis 1 of an N x M or N x M x ... array (e.g. one
    column per head) restricted to the entries where the N x M ``mask`` is
    1. Masked entries get exactly zero probability, and through
    ``masked_softmax_grad`` exactly zero gradient: an additive -1e30, then
    explicit zeroing, avoids true -inf arithmetic. Every row of the mask
    needs a 1 (``fusion`` checks)."""
    m = np.asarray(mask, dtype=logits.dtype)
    m = m.reshape(m.shape + (1,) * (logits.ndim - 2))
    z = logits + (m - 1.0) * NEG_MASK
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z) * m
    return e / e.sum(axis=1, keepdims=True)


def masked_softmax_grad(p, g):
    """Gradient of the logits of ``masked_softmax_probs`` output ``p``
    given the output gradient ``g``; zero wherever p is."""
    gp = g * p
    return gp - p * gp.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# objective nodes


def rows_grad(like, idx, g):
    """The gradient of a row gather ``like[idx]``: ``g`` summed into the
    rows ``idx`` of a zero array shaped like ``like``. Indices strictly
    increasing from 0 up (a training split) never repeat a row, so they
    place rows instead of the much slower np.add.at; a negative index may
    name a later row."""
    full = np.zeros_like(like)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0 or (idx[0] >= 0 and np.all(idx[1:] > idx[:-1])):
        full[idx] = g
    else:
        np.add.at(full, idx, g)
    return full


def select_rows(a, idx):
    idx = np.asarray(idx, dtype=np.int64)

    def backward(g):
        accumulate(a, rows_grad(a.data, idx, g))

    return Tensor(a.data[idx], parents=(a,), backward=backward, op="select")


def student_t_kl(z, p, weights, p_log_p):
    """KL(P || Q) of a fixed pair distribution P against the Student-t pair
    distribution Q of the rows of z, as one tape node.

    With d the squared distances between rows and k = 1 / (1 + d), Q is
    W * k / S on the pairs the constant ``weights`` W marks (1 valid, 0 not)
    and S = sum(W * k). ``p_log_p`` is the constant sum of p log p, so
    KL = p_log_p + sum(p log(1 + d)) + log S. P and W must be symmetric
    (``objective.build_P`` builds them so). The backward is the
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
        accumulate(z, dz)

    value = np.asarray(p_log_p + cross + np.log(s), dtype=x.dtype)
    return Tensor(value, parents=(z,), backward=backward, op="student_t_kl")


def _upper_sum(a, b):
    """Sum of a * b over a row tile of the upper triangle of two symmetric
    matrices: the leading square block once, the columns right of it
    twice. Row sums in the operands' dtype, the rest in float64."""
    db = a.shape[0]
    return (2.0 * float(np.vecdot(a, b).sum(dtype=np.float64))
            - float(np.vecdot(a[:, :db], b[:, :db]).sum(dtype=np.float64)))
