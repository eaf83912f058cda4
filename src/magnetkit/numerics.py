"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Each model layer is one tape node with a closed-form backward, built in
its layer function (`fusion.encode`, `fusion.fuse_multi_head`,
`gnn.sage_layer`, `gnn.decode`), and each loss term is one node in
`objective`; the loss nodes read every row they are given. This module
holds the tape, the parameter registry, and the MLP, masked-softmax and
dropout kernels the layers share. Every parameter is a view into one
flat array and its gradient a view into one flat gradient array. Double
precision by default; float32 is opt-in.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float64

# Additive mask value standing in for -inf; large enough that exp() of a
# masked logit underflows to 0 after row-max shifting, small enough to
# avoid inf arithmetic.
NEG_MASK = 1e30


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
