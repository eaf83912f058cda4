"""Patient interaction graph: shared-modality connectivity, cosine edge
features, quantile sparsification, reconnection, inductive filtering, and
structure analytics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    pass


@dataclass
class SimilarityMatrix:
    """Mean cosine similarity over shared modalities, with a validity mask
    marking pairs that share at least one modality."""

    values: np.ndarray  # N x N, symmetric
    valid: np.ndarray   # N x N bool


@dataclass
class PatientGraph:
    n_nodes: int
    edges: np.ndarray            # E x 2 int, u < v
    similarities: np.ndarray     # E floats
    reconnection: np.ndarray     # E bools
    split_tags: np.ndarray | None = None
    _adj: list = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.edges):
            u, v = self.edges[:, 0], self.edges[:, 1]
            if np.any(u == v):
                raise GraphError("self-loop")
            keys = set(map(tuple, self.edges.tolist()))
            if len(keys) != len(self.edges):
                raise GraphError("duplicate edge")

    def neighbors(self, u):
        if self._adj is None:
            adj = [[] for _ in range(self.n_nodes)]
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            self._adj = adj
        return self._adj[u]

    def degrees(self):
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

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
    shared modality are flagged invalid. Diagonal is valid with value 1.
    """
    n = ds.n_patients
    total = np.zeros((n, n))
    counts = np.zeros((n, n))
    for i in range(ds.n_modalities):
        present = ds.mask[:, i] == 1
        x = ds.modalities[i]
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        xn = x / safe[:, None]
        xn[norms == 0] = 0.0
        cos = xn @ xn.T
        pair = np.outer(present, present)
        total += np.where(pair, cos, 0.0)
        counts += pair
    valid = counts > 0
    values = np.divide(total, counts, out=np.zeros_like(total), where=valid)
    np.clip(values, -1.0, 1.0, out=values)
    np.fill_diagonal(values, 1.0)
    np.fill_diagonal(valid, True)
    return SimilarityMatrix(values=values, valid=valid)


def quantile_threshold(sims_sorted, rate):
    """Nearest-rank quantile of an ascending-sorted array; rate 0 keeps all."""
    n = len(sims_sorted)
    if n == 0 or rate <= 0.0:
        return -np.inf
    rank = math.ceil(rate * n)
    rank = min(max(rank, 1), n)
    return sims_sorted[rank - 1]


def build_graph(ds, sims, sparsity_rate):
    """Threshold shared-modality pairs at the sparsity-rate quantile of their
    similarities, then reconnect isolated nodes to their best valid neighbor."""
    n = ds.n_patients
    if n < 2:
        raise GraphError("need at least 2 patients")
    if not (0.0 <= sparsity_rate < 1.0):
        raise GraphError("sparsity_rate must be in [0, 1)")
    iu, iv = np.triu_indices(n, k=1)
    cand = sims.valid[iu, iv]
    cu, cv = iu[cand], iv[cand]
    cs = sims.values[cu, cv]
    beta = quantile_threshold(np.sort(cs, kind="stable"), sparsity_rate)
    keep = cs > beta
    edges = [(int(a), int(b)) for a, b in zip(cu[keep], cv[keep])]
    svals = list(cs[keep])
    recon = [False] * len(edges)

    deg = np.zeros(n, dtype=np.int64)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    edge_set = set(edges)
    for u in np.where(deg == 0)[0]:
        best = _best_valid_neighbor(sims, u, n)
        if best is None:
            raise GraphError(f"node {u} has no valid neighbor to reconnect to")
        a, b = min(u, best), max(u, best)
        if (a, b) in edge_set:
            continue
        edge_set.add((a, b))
        edges.append((a, b))
        svals.append(float(sims.values[a, b]))
        recon.append(True)
        deg[a] += 1
        deg[b] += 1

    edges_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return PatientGraph(n_nodes=n, edges=edges_arr,
                        similarities=np.array(svals),
                        reconnection=np.array(recon, dtype=bool))


def _best_valid_neighbor(sims, u, n, allowed=None):
    best, best_sim = None, -np.inf
    for v in range(n):
        if v == u or not sims.valid[u, v]:
            continue
        if allowed is not None and not allowed[v]:
            continue
        s = sims.values[u, v]
        if s > best_sim:
            best, best_sim = v, s
    return best


def inductive_filter(g, mode, sims=None, train_side=("train", "validation")):
    """Train-mode view: remove every edge crossing between the training side
    and the test side, then re-run reconnection within the training subgraph.

    Full mode returns the graph unchanged.
    """
    if mode == "full":
        return g
    if mode != "train":
        raise GraphError(f"unknown filter mode {mode!r}")
    if g.split_tags is None:
        raise GraphError("split tags required for train-mode filtering")
    is_train = np.isin(g.split_tags, train_side)
    keep = is_train[g.edges[:, 0]] == is_train[g.edges[:, 1]]
    edges = [tuple(e) for e in g.edges[keep].tolist()]
    svals = list(g.similarities[keep])
    recon = list(g.reconnection[keep])
    edge_set = set(edges)

    deg = np.zeros(g.n_nodes, dtype=np.int64)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    if sims is not None:
        for u in np.where(is_train & (deg == 0))[0]:
            allowed = is_train.copy()
            allowed[u] = False
            best = _best_valid_neighbor(sims, u, g.n_nodes, allowed=allowed)
            if best is None:
                continue
            a, b = min(u, int(best)), max(u, int(best))
            if (a, b) in edge_set:
                continue
            edge_set.add((a, b))
            edges.append((a, b))
            svals.append(float(sims.values[a, b]))
            recon.append(True)
    edges_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return PatientGraph(n_nodes=g.n_nodes, edges=edges_arr,
                        similarities=np.array(svals),
                        reconnection=np.array(recon, dtype=bool),
                        split_tags=g.split_tags)


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
    node_fracs = []
    for u in range(g.n_nodes):
        nbrs = g.neighbors(u)
        if not nbrs:
            continue
        node_fracs.append(float(np.mean(labels[nbrs] == labels[u])))
    node_h = float(np.mean(node_fracs)) if node_fracs else 0.0
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


def export_edges_csv(g, path):
    with open(path, "w") as fh:
        fh.write("u,v,similarity,tag\n")
        for (u, v), s, r in zip(g.edges, g.similarities, g.reconnection):
            tag = "reconnection" if r else "shared"
            fh.write(f"{u},{v},{s:.6f},{tag}\n")
