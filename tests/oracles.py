"""Plain-array reference versions of the alignment objective, used by the
tests to check the differentiable code in `magnetkit.objective`, a shared
alignment target for gradient checks, the tape ops only the tests build
losses from, and the finite-difference gradient oracle."""

import numpy as np

from magnetkit import numerics as nm
from magnetkit import objective as ob

LOG_FLOOR = 1e-12


def build_Q(z, valid):
    """Fused-space pairwise distribution from the Student-t kernel,
    restricted to the same valid-pair set as P. Plain-array version."""
    z = np.asarray(z, dtype=float)
    sq = (z * z).sum(axis=1)
    d = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)
    k = np.where(valid, 1.0 / (1.0 + d), 0.0)
    return k / k.sum()


def kl_loss(p, q, valid=None):
    """KL(P || Q) over the valid pair set; terms with p == 0 contribute 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if valid is not None:
        mask &= valid
    return float((p[mask] * np.log(p[mask] / np.maximum(q[mask], LOG_FLOOR))).sum())


def kl_target(n, seed):
    """Alignment target for gradient checks: asymmetric P and one invalid
    off-diagonal pair."""
    rng = np.random.default_rng(seed)
    valid = ~np.eye(n, dtype=bool)
    valid[0, n - 1] = False
    p = np.where(valid, rng.uniform(size=(n, n)), 0.0)
    return ob.AlignmentTarget.of(p / p.sum(), valid)


# ---------------------------------------------------------------------------
# tape ops that only test losses use


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise nm.NumericsError(f"mul shape mismatch {a.shape} * {b.shape}")

    def backward(g):
        nm._accum(a, g * b.data)
        nm._accum(b, g * a.data)

    return nm.Tensor(a.data * b.data, parents=(a, b), backward=backward,
                     op="mul")


def shift(a, c):
    c = float(c)

    def backward(g):
        nm._accum(a, g)

    return nm.Tensor(a.data + c, parents=(a,), backward=backward, op="shift")


def log(a):
    def backward(g):
        nm._accum(a, g / a.data)

    return nm.Tensor(np.log(a.data), parents=(a,), backward=backward, op="log")


def sum_all(a):
    def backward(g):
        nm._accum(a, np.broadcast_to(g, a.data.shape).copy())

    return nm.Tensor(a.data.sum(), parents=(a,), backward=backward,
                     op="sum_all")


# ---------------------------------------------------------------------------
# finite-difference oracle


def grad_check(build_loss, param_values, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``build_loss`` maps a dict of plain numpy parameter values to a
    ``(loss Tensor, ComputeGraph)`` pair; it is re-invoked at perturbed
    parameter values for the numeric side.
    """
    loss, graph = build_loss(param_values)
    if not np.isfinite(loss.data):
        raise nm.NumericsError("non-finite loss in grad_check")
    analytic = graph.backward(loss)

    def eval_at(values):
        l, _ = build_loss(values)
        v = float(l.data)
        if not np.isfinite(v):
            raise nm.NumericsError("non-finite loss during finite differences")
        return v

    max_err = 0.0
    for name, base in param_values.items():
        base = np.asarray(base, dtype=nm.DEFAULT_DTYPE)
        flat = base.ravel()
        for j in range(flat.size):
            bumped = {k: np.array(v, dtype=nm.DEFAULT_DTYPE, copy=True)
                      for k, v in param_values.items()}
            bumped[name].ravel()[j] = flat[j] + eps
            up = eval_at(bumped)
            bumped[name].ravel()[j] = flat[j] - eps
            down = eval_at(bumped)
            numeric = (up - down) / (2.0 * eps)
            a = analytic[name].ravel()[j]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            max_err = max(max_err, err)
    return max_err
