"""Evaluation metrics: classification, ranking, and cluster separability."""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    pass


def confusion_matrix(y_true, y_pred, n_classes):
    """Counts of (true, predicted) class pairs, true class by row."""
    pairs = np.asarray(y_true, dtype=np.int64) * n_classes + np.asarray(
        y_pred, dtype=np.int64)
    return np.bincount(pairs, minlength=n_classes * n_classes).reshape(
        n_classes, n_classes)


def classification_metrics(y_true, y_pred, n_classes):
    """Accuracy, macro F1, weighted F1, and the multiclass (Gorodkin) MCC.

    Per-class F1 with no true or predicted instances counts as 0; MCC with a
    zero marginal returns 0.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if len(y_true) == 0:
        raise MetricError("empty input")
    if np.any((y_true < 0) | (y_true >= n_classes)) or \
       np.any((y_pred < 0) | (y_pred >= n_classes)):
        raise MetricError("label out of range")
    cm = confusion_matrix(y_true, y_pred, n_classes)
    n = len(y_true)
    support = cm.sum(axis=1)  # true-class counts
    predicted = cm.sum(axis=0)
    denom = support + predicted  # 2 tp + fn + fp
    f1 = np.divide(2.0 * np.diag(cm), denom, out=np.zeros(n_classes),
                   where=denom > 0)

    # integer arithmetic until the final sqrt so the perfect case is exactly 1
    hits, t, p = int(np.trace(cm)), support.tolist(), predicted.tolist()
    num = hits * n - sum(a * b for a, b in zip(t, p))
    den_sq = (n * n - sum(v * v for v in p)) * (n * n - sum(v * v for v in t))
    mcc = num / np.sqrt(den_sq) if den_sq > 0 else 0.0
    return {"accuracy": hits / n, "macro_f1": float(f1.mean()),
            "weighted_f1": float((f1 * support).sum() / n), "mcc": float(mcc)}


def ranking_metrics(y_true, scores):
    """AUROC via the Mann-Whitney statistic with midrank ties; AUPRC as the
    area under the precision-recall step curve."""
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=float)
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("both classes required for ranking metrics")

    ranks = _midranks(scores)
    auroc = (ranks[y_true == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    order = np.lexsort((np.arange(len(scores)), -scores))
    ys = y_true[order]
    ss = scores[order]
    tp = np.cumsum(ys == 1)
    fp = np.cumsum(ys == 0)
    # evaluate only at distinct-threshold boundaries
    boundary = np.append(ss[1:] != ss[:-1], True)
    tp, fp = tp[boundary], fp[boundary]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    # cumsum adds left to right, as a running sum over the steps would
    auprc = np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1]
    return {"auroc": float(auroc), "auprc": float(auprc)}


def _midranks(x):
    """1-based ranks of ``x``, each run of ties given its mean rank: a value
    whose group ends at rank e and holds c ties ranks e - (c - 1) / 2."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def cluster_metrics(z, labels):
    """Silhouette score (singleton terms count 0) and the Davies-Bouldin
    index, both with Euclidean distances."""
    z = np.asarray(z, dtype=float)
    labels = np.asarray(labels)
    classes, own = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise MetricError("need at least 2 classes")
    rows = np.arange(len(z))
    onehot = (own[:, None] == np.arange(len(classes))).astype(float)
    size = onehot.sum(axis=0)
    # summed distance from each point to every class, N x K
    class_dist = _distances(z) @ onehot
    n_own = size[own]
    a = class_dist[rows, own] / np.maximum(n_own - 1, 1)
    mean_dist = class_dist / size
    mean_dist[rows, own] = np.inf
    b = mean_dist.min(axis=1)
    denom = np.maximum(a, b)
    scored = (n_own > 1) & (denom > 0)
    sil = np.zeros(len(z))
    sil[scored] = (b[scored] - a[scored]) / denom[scored]
    silhouette = float(sil.mean())

    centroids = np.stack([z[own == k].mean(axis=0) for k in range(len(classes))])
    scatter = np.bincount(
        own, weights=np.linalg.norm(z - centroids[own], axis=1)) / size
    # K x K x d differences: exact where close centroids make the ratio
    # large, which a Gram product's cancellation would not be
    sep = np.linalg.norm(centroids[:, None] - centroids, axis=2)
    spread = scatter[:, None] + scatter[None, :]
    ratio = np.full_like(sep, np.inf)
    np.divide(spread, sep, out=ratio, where=sep > 0)
    np.fill_diagonal(ratio, 0.0)
    return {"silhouette": silhouette,
            "davies_bouldin": float(ratio.max(axis=1).mean())}


def _distances(x):
    """Euclidean distances between the rows of ``x`` from one Gram product G:
    G_ii + G_jj - 2 G_ij clamped at 0, with an exact-zero diagonal."""
    d = x @ x.T
    sq = d.diagonal().copy()
    d *= -2.0
    d += sq[:, None]
    d += sq
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return np.sqrt(d, out=d)


def full_bundle(y_true, y_pred, probs, z, n_classes):
    """Assemble the standard metrics JSON; binary ranking metrics use class 1
    as positive with its softmax probability as the score."""
    out = classification_metrics(y_true, y_pred, n_classes)
    if n_classes == 2 and len(np.unique(y_true)) == 2:
        out.update(ranking_metrics(y_true, probs[:, 1]))
    else:
        out.update({"auroc": None, "auprc": None})
    if len(np.unique(y_true)) >= 2:
        out.update(cluster_metrics(z, y_true))
    else:
        out.update({"silhouette": None, "davies_bouldin": None})
    return out
