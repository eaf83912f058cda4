"""Patient interaction graph: shared-modality connectivity, cosine edge
features, quantile sparsification, reconnection, inductive filtering, and
structure analytics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    pass


# Rows per tile of the similarity build and of the reads that expand rows
# of it.
SIM_TILE = 512


@dataclass
class SimilarityMatrix:
    """Mean cosine similarity over shared modalities of each pair i < j of
    the N patients, with a validity flag marking pairs that share at least
    one modality: the strict upper triangle of the symmetric matrix, packed
    row by row, so pair (i, j) sits at i (2N - i - 3) / 2 + j - 1."""

    n: int
    values: np.ndarray  # N(N-1)/2 floats
    valid: np.ndarray   # N(N-1)/2 bools

    def block(self, rows, cols):
        """Dense (values, valid) of the pairs ``rows`` x ``cols``, read in
        row tiles of SIM_TILE; a patient paired with itself is invalid."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        # pair (i, j), i < j, sits at start[i] + j
        start = _row_starts(self.n)[:-1] - np.arange(self.n) - 1
        values = np.empty((len(rows), len(cols)))
        valid = np.empty((len(rows), len(cols)), dtype=bool)
        for a0 in range(0, len(rows), SIM_TILE):
            r = rows[a0:a0 + SIM_TILE, None]
            hi = np.maximum(r, cols)
            pos = start.take(np.minimum(r, cols))
            pos += hi
            # the diagonal maps to the pair before it, -1 for patient 0
            self.values.take(pos, out=values[a0:a0 + SIM_TILE], mode="wrap")
            np.logical_and(self.valid.take(pos, mode="wrap"), r != cols,
                           out=valid[a0:a0 + SIM_TILE])
        return values, valid


def _row_starts(n):
    """Packed position of the first pair (i, i + 1) of each row i of N, and
    the pair count N(N-1)/2 last."""
    k = np.arange(n + 1, dtype=np.int64)
    return k * (2 * n - k - 1) // 2


@dataclass
class PatientGraph:
    n_nodes: int
    edges: np.ndarray            # E x 2 int, u < v
    similarities: np.ndarray     # E floats
    reconnection: np.ndarray     # E bools

    def __post_init__(self):
        if len(self.edges):
            u, v = self.edges[:, 0], self.edges[:, 1]
            if np.any(u == v):
                raise GraphError("self-loop")
            # one key per edge, equal exactly when the rows are; the
            # builders emit their candidates in increasing key order, so
            # only appended edges make a sort necessary
            lo = int(self.edges.min())
            span = int(self.edges.max()) - lo + 1
            keys = (u.astype(np.int64) - lo) * span + (v - lo)
            if not np.all(keys[1:] > keys[:-1]):
                keys.sort()
                if np.any(keys[1:] == keys[:-1]):
                    raise GraphError("duplicate edge")

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)

    def directed(self):
        """(src, dst, feat) arrays with each undirected edge as two messages."""
        if len(self.edges) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0)
        u, v = self.edges[:, 0], self.edges[:, 1]
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        feat = np.concatenate([self.similarities, self.similarities])
        return src, dst, feat


def pairwise_similarity(ds):
    """Mean cosine similarity between patients over their shared modalities.

    Zero-norm vectors contribute cosine 0 for their modality; pairs with no
    shared modality are flagged invalid. The packed triangle is built in
    row tiles: tile I adds the Gram products of its rows against the
    columns from its first row on, one modality at a time, so a tile
    covering all N rows is the whole product.
    """
    n = ds.n_patients
    present = (ds.mask == 1).astype(np.float64)
    starts = _row_starts(n)
    bounds = [*range(0, n, SIM_TILE), n]
    # each tile's rows, its span of the packed vector and the mask of its
    # pairs i < j, whose row-major order is the packed order
    tiles = [(i0, i1, slice(starts[i0], starts[i1]),
              np.triu(np.ones((i1 - i0, n - i0), dtype=bool), k=1))
             for i0, i1 in zip(bounds, bounds[1:])]
    total = np.zeros(int(starts[-1]))
    for i in range(ds.n_modalities):
        x = ds.modalities[i]
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        xn = x / safe[:, None]
        # an absent or zero-norm row adds exactly 0 to every pair it is in
        xn[(present[:, i] == 0) | (norms == 0)] = 0.0
        for i0, i1, pairs, upper in tiles:
            total[pairs] += (xn[i0:i1] @ xn[i0:].T)[upper]
    valid = np.empty(len(total), dtype=bool)
    # against a copy: numpy's symmetric path for present @ present.T is
    # slower here, and the small integer counts are exact either way
    present_t = present.T.copy()
    for i0, i1, pairs, upper in tiles:
        counts = (present[i0:i1] @ present_t[:, i0:])[upper]
        np.greater(counts, 0, out=valid[pairs])
        # a pair with no shared modality has a total of exactly 0
        values = total[pairs]
        values /= np.maximum(counts, 1.0, out=counts)
        np.clip(values, -1.0, 1.0, out=values)
    return SimilarityMatrix(n=n, values=total, valid=valid)


def quantile_threshold(sims, rate):
    """Nearest-rank quantile of an unsorted array, which it partitions in
    place; rate 0 keeps all."""
    n = len(sims)
    if n == 0 or rate <= 0.0:
        return -np.inf
    rank = math.ceil(rate * n)
    rank = min(max(rank, 1), n)
    sims.partition(rank - 1)
    return sims[rank - 1]


def _reconnect(edges, similarities, reconnection, sims, nodes, allowed=None):
    """Append an edge from each of `nodes` to its best valid neighbor.

    The neighbor is a masked argmax over the node's row of `sims`: valid
    pairs only, never the node itself, and only `allowed` nodes when given.
    argmax takes the first maximum, so ties go to the lowest index. The
    nodes have no edges yet, so a new pair can only repeat another new
    pair; repeats keep their first occurrence in ascending node order.
    Returns the extended (edges, similarities, reconnection) and the nodes
    that had no candidate.
    """
    if len(nodes) == 0:
        return edges, similarities, reconnection, nodes
    values, cand = sims.block(nodes, np.arange(sims.n))
    if allowed is not None:
        cand &= allowed
    found = np.flatnonzero(cand.any(axis=1))
    np.copyto(values, -np.inf, where=~cand)
    best = values.argmax(axis=1)[found]
    pairs = np.sort(np.stack([nodes[found], best], axis=1), axis=1)
    _, first = np.unique(pairs, axis=0, return_index=True)
    first.sort()
    return (np.concatenate([edges, pairs[first]]),
            np.concatenate([similarities, values[found[first], best[first]]]),
            np.concatenate([reconnection, np.ones(len(first), dtype=bool)]),
            np.delete(nodes, found))


def build_graph(ds, sims, sparsity_rate):
    """Threshold shared-modality pairs at the sparsity-rate quantile of their
    similarities, then reconnect isolated nodes to their best valid neighbor.
    The candidates come in packed order, which is row-major over u < v."""
    n = ds.n_patients
    if n < 2:
        raise GraphError("need at least 2 patients")
    if not (0.0 <= sparsity_rate < 1.0):
        raise GraphError("sparsity_rate must be in [0, 1)")
    threshold = quantile_threshold(sims.values[sims.valid], sparsity_rate)
    pos = np.flatnonzero((sims.values > threshold) & sims.valid)
    svals = sims.values[pos]
    starts = _row_starts(n)
    edges = np.empty((len(pos), 2), dtype=np.int64)
    edges[:, 0] = u = np.searchsorted(starts, pos, side="right") - 1
    pos -= starts[u]
    pos += u + 1
    edges[:, 1] = pos
    del pos, u  # before the reconnection copies the edges
    isolated = np.flatnonzero(np.bincount(edges.ravel(), minlength=n) == 0)
    edges, svals, recon, stranded = _reconnect(
        edges, svals, np.zeros(len(edges), dtype=bool), sims, isolated)
    if len(stranded):
        raise GraphError(
            f"node {stranded[0]} has no valid neighbor to reconnect to")
    return PatientGraph(n_nodes=n, edges=edges, similarities=svals,
                        reconnection=recon)


def inductive_filter(g, sims, nodes):
    """Training view of `g`: the subgraph induced by `nodes`, the training
    side's node ids in increasing order, relabelled 0..len(nodes)-1 in that
    order. Each of its nodes left isolated is reconnected to its best valid
    neighbor among `nodes`."""
    is_train = np.zeros(g.n_nodes, dtype=bool)
    is_train[nodes] = True
    keep = is_train[g.edges].all(axis=1)
    edges = g.edges[keep].astype(np.int64, copy=False)
    deg = np.bincount(edges.ravel(), minlength=g.n_nodes)
    edges, svals, recon, _ = _reconnect(
        edges, g.similarities[keep], g.reconnection[keep], sims,
        np.flatnonzero(is_train & (deg == 0)), allowed=is_train)
    # increasing ids map to increasing labels, so u < v still holds
    label = np.cumsum(is_train) - 1
    return PatientGraph(n_nodes=len(nodes), edges=label[edges],
                        similarities=svals, reconnection=recon)


def homophily(g, labels):
    """Edge and node homophily plus the class-proportion random baseline."""
    labels = np.asarray(labels)
    if len(labels) != g.n_nodes:
        raise GraphError("label count mismatch")
    if len(g.edges):
        same = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
        edge_h = float(same.mean())
    else:
        edge_h = 0.0
    src, dst, _ = g.directed()
    deg = np.bincount(src, minlength=g.n_nodes)
    same_deg = np.bincount(src, weights=labels[src] == labels[dst],
                           minlength=g.n_nodes)
    has = deg > 0
    node_h = float(np.mean(same_deg[has] / deg[has])) if has.any() else 0.0
    _, counts = np.unique(labels, return_counts=True)
    props = counts / counts.sum()
    baseline = float((props ** 2).sum())
    return node_h, edge_h, baseline


def degree_stats(g):
    deg = g.degrees()
    hist = np.bincount(deg) if len(deg) else np.zeros(1, dtype=np.int64)
    return {
        "histogram": hist.tolist(),
        "min": int(deg.min()) if len(deg) else 0,
        "mean": float(deg.mean()) if len(deg) else 0.0,
        "max": int(deg.max()) if len(deg) else 0,
    }
