import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import evalkit as ek
import oracles


def brute_classification(y_true, y_pred, n_classes):
    """Per-definition recomputation from raw counts."""
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    n = len(y_true)
    acc = float((y_true == y_pred).mean())
    f1s, supports = [], []
    for c in range(n_classes):
        tp = int(((y_true == c) & (y_pred == c)).sum())
        fp = int(((y_true != c) & (y_pred == c)).sum())
        fn = int(((y_true == c) & (y_pred != c)).sum())
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        supports.append(int((y_true == c).sum()))
    macro = float(np.mean(f1s))
    weighted = float(np.dot(f1s, supports) / n)
    # Gorodkin multiclass correlation from pair sums
    cm = np.zeros((n_classes, n_classes))
    for t, p in zip(y_true, y_pred):
        cm[t, p] += 1
    t_k, p_k = cm.sum(axis=1), cm.sum(axis=0)
    num = np.trace(cm) * n - t_k @ p_k
    den = math.sqrt(n * n - p_k @ p_k) * math.sqrt(n * n - t_k @ t_k)
    mcc = float(num / den) if den > 0 else 0.0
    return acc, macro, weighted, mcc


def brute_auroc(y, s):
    """Exhaustive pair counting: wins + half-ties over all pos/neg pairs."""
    pos = [si for yi, si in zip(y, s) if yi == 1]
    neg = [si for yi, si in zip(y, s) if yi == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
               for p, q in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


def brute_auprc(y, s):
    y, s = np.asarray(y), np.asarray(s)
    thresholds = sorted(set(s), reverse=True)
    area, prev_recall = 0.0, 0.0
    n_pos = int((y == 1).sum())
    for t in thresholds:
        sel = s >= t
        tp = int((y[sel] == 1).sum())
        precision = tp / sel.sum()
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def brute_silhouette(z, labels):
    z, labels = np.asarray(z, float), np.asarray(labels)
    vals = []
    for i in range(len(z)):
        own = [j for j in range(len(z)) if labels[j] == labels[i] and j != i]
        if not own:
            vals.append(0.0)
            continue
        a = np.mean([np.linalg.norm(z[i] - z[j]) for j in own])
        b = min(np.mean([np.linalg.norm(z[i] - z[j])
                         for j in range(len(z)) if labels[j] == c])
                for c in set(labels) if c != labels[i])
        vals.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(vals))


def brute_davies_bouldin(z, labels):
    z, labels = np.asarray(z, float), np.asarray(labels)
    classes = sorted(set(labels))
    cents = {c: z[labels == c].mean(axis=0) for c in classes}
    spread = {c: np.mean([np.linalg.norm(x - cents[c]) for x in z[labels == c]])
              for c in classes}
    terms = []
    for i in classes:
        terms.append(max((spread[i] + spread[j]) /
                         np.linalg.norm(cents[i] - cents[j])
                         for j in classes if j != i))
    return float(np.mean(terms))


def test_perfect_predictions():
    m = ek.classification_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert m["accuracy"] == 1.0
    assert m["macro_f1"] == 1.0
    assert m["weighted_f1"] == 1.0
    assert m["mcc"] == 1.0


def test_constant_predictor_mcc_zero():
    m = ek.classification_metrics([0, 0, 1, 1], [1, 1, 1, 1], 2)
    assert m["mcc"] == 0.0
    assert m["accuracy"] == 0.5


def test_three_class_confusion_hand_case():
    # confusion matrix [[2,1,0],[0,2,0],[1,0,3]] spelled out as label pairs
    y_true = [0, 0, 0, 1, 1, 2, 2, 2, 2]
    y_pred = [0, 0, 1, 1, 1, 0, 2, 2, 2]
    m = ek.classification_metrics(y_true, y_pred, 3)
    acc, macro, weighted, mcc = brute_classification(y_true, y_pred, 3)
    assert m["accuracy"] == pytest.approx(acc, abs=1e-12)
    assert m["macro_f1"] == pytest.approx(macro, abs=1e-12)
    assert m["weighted_f1"] == pytest.approx(weighted, abs=1e-12)
    assert m["mcc"] == pytest.approx(mcc, abs=1e-12)


def test_classification_random_cases_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = int(rng.integers(2, 5))
        n = int(rng.integers(2, 21))
        y = rng.integers(0, c, size=n)
        p = rng.integers(0, c, size=n)
        m = ek.classification_metrics(y, p, c)
        acc, macro, weighted, mcc = brute_classification(y, p, c)
        assert m["accuracy"] == pytest.approx(acc, abs=1e-10)
        assert m["macro_f1"] == pytest.approx(macro, abs=1e-10)
        assert m["weighted_f1"] == pytest.approx(weighted, abs=1e-10)
        assert m["mcc"] == pytest.approx(mcc, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_confusion_matrix_matches_loop_oracle(k, data):
    labels = st.lists(st.integers(0, k - 1), min_size=1, max_size=40)
    y_true = data.draw(labels)
    y_pred = data.draw(st.lists(st.integers(0, k - 1), min_size=len(y_true),
                                max_size=len(y_true)))
    got = ek.confusion_matrix(np.array(y_true), np.array(y_pred), k)
    want = oracles.confusion_matrix(y_true, y_pred, k)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# few distinct values, so most draws tie; -0.0 ties with 0.0
TIED_SCORES = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(TIED_SCORES | st.floats(allow_nan=False), min_size=2,
                max_size=40), st.data())
def test_auroc_midranks_match_loop_oracle(scores, data):
    n = len(scores)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                    max_size=n)))
    y[data.draw(st.permutations(range(n)))[:2]] = [0, 1]
    ranks = oracles.midranks(np.array(scores))
    assert ek._midranks(np.array(scores)).tobytes() == ranks.tobytes()
    n_pos = int(y.sum())
    n_neg = n - n_pos
    want = (ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert ek.ranking_metrics(y, scores)["auroc"] == want


@settings(max_examples=200, deadline=None)
@given(st.lists(TIED_SCORES | st.floats(allow_nan=False), min_size=2,
                max_size=40), st.data())
def test_auprc_matches_running_sum_oracle(scores, data):
    # the vectorised sum adds in the loop's order, so the two are equal
    n = len(scores)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                    max_size=n)))
    y[data.draw(st.permutations(range(n)))[:2]] = [0, 1]
    got = ek.ranking_metrics(y, scores)["auprc"]
    assert type(got) is float and got == oracles.auprc(y.tolist(), scores)


def test_classification_metrics_are_plain_floats():
    m = ek.classification_metrics(np.array([0, 1, 1, 2]),
                                  np.array([0, 1, 2, 2]), 3)
    assert {k: type(v) for k, v in m.items()} == dict.fromkeys(m, float)
    assert m["accuracy"] == 0.75


def test_binary_mcc_matches_textbook_formula():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, size=30)
    p = rng.integers(0, 2, size=30)
    tp = int(((y == 1) & (p == 1)).sum())
    tn = int(((y == 0) & (p == 0)).sum())
    fp = int(((y == 0) & (p == 1)).sum())
    fn = int(((y == 1) & (p == 0)).sum())
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    ref = (tp * tn - fp * fn) / den if den else 0.0
    m = ek.classification_metrics(y, p, 2)
    assert m["mcc"] == pytest.approx(ref, abs=1e-12)


def test_empty_input_rejected():
    with pytest.raises(ek.MetricError):
        ek.classification_metrics([], [], 2)


def test_auroc_perfect_separation():
    m = ek.ranking_metrics([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
    assert m["auroc"] == 1.0
    assert m["auprc"] == 1.0


def test_auroc_all_ties_is_exactly_half():
    m = ek.ranking_metrics([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
    assert m["auroc"] == 0.5


def test_ranking_six_point_case():
    y = [1, 0, 1, 0, 1, 0]
    s = [0.9, 0.8, 0.8, 0.4, 0.3, 0.1]
    m = ek.ranking_metrics(y, s)
    assert m["auroc"] == pytest.approx(brute_auroc(y, s), abs=1e-12)
    assert m["auprc"] == pytest.approx(brute_auprc(y, s), abs=1e-12)


def test_ranking_random_cases_match_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 21))
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        s = np.round(rng.uniform(size=n), 2)  # rounding forces ties
        m = ek.ranking_metrics(y, s)
        assert m["auroc"] == pytest.approx(brute_auroc(y, s), abs=1e-10)
        assert m["auprc"] == pytest.approx(brute_auprc(y, s), abs=1e-10)


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=20)
    y[:2] = [0, 1]
    s = rng.normal(size=20)
    a = ek.ranking_metrics(y, s)["auroc"]
    b = ek.ranking_metrics(y, np.exp(3 * s))["auroc"]
    assert a == pytest.approx(b, abs=1e-12)


def test_ranking_single_class_rejected():
    with pytest.raises(ek.MetricError):
        ek.ranking_metrics([1, 1, 1], [0.2, 0.3, 0.4])


def test_cluster_tight_far_limit():
    z = np.vstack([np.random.default_rng(4).normal(0, 1e-4, size=(5, 2)),
                   100.0 + np.random.default_rng(5).normal(0, 1e-4, size=(5, 2))])
    labels = [0] * 5 + [1] * 5
    m = ek.cluster_metrics(z, labels)
    assert m["silhouette"] > 0.999
    assert m["davies_bouldin"] < 0.001


def test_cluster_interleaved_nonpositive_silhouette():
    z = np.array([[0.0], [0.0], [1.0], [1.0]])
    labels = [0, 1, 0, 1]
    m = ek.cluster_metrics(z, labels)
    assert m["silhouette"] <= 0.0


def test_cluster_ten_point_case_matches_brute_force():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(10, 3))
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
    m = ek.cluster_metrics(z, labels)
    assert m["silhouette"] == pytest.approx(brute_silhouette(z, labels),
                                            abs=1e-10)
    assert m["davies_bouldin"] == pytest.approx(brute_davies_bouldin(z, labels),
                                                abs=1e-10)


def test_singleton_cluster_silhouette_zero_term():
    z = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([0, 0, 1])  # class 1 is a singleton
    m = ek.cluster_metrics(z, labels)
    ref = brute_silhouette(z, labels)
    assert m["silhouette"] == pytest.approx(ref, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.booleans())
def test_cluster_metrics_match_brute_force(seed, k, singleton):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 40))
    z = rng.normal(size=(n, int(rng.integers(1, 5))))
    # every class present; with `singleton` the last class has one member
    rest = rng.integers(0, k - 1 if singleton else k, size=n - k)
    labels = rng.permutation(np.concatenate([np.arange(k), rest]))
    m = ek.cluster_metrics(z, labels)
    assert m["silhouette"] == pytest.approx(brute_silhouette(z, labels),
                                            abs=1e-10)
    assert m["davies_bouldin"] == pytest.approx(brute_davies_bouldin(z, labels),
                                                abs=1e-10)


def test_cluster_single_class_rejected():
    with pytest.raises(ek.MetricError):
        ek.cluster_metrics(np.ones((3, 2)), [0, 0, 0])


def test_relabeling_invariance():
    rng = np.random.default_rng(7)
    y = rng.integers(0, 3, size=20)
    p = rng.integers(0, 3, size=20)
    z = rng.normal(size=(20, 2))
    swap = np.array([2, 0, 1])
    a = ek.classification_metrics(y, p, 3)
    b = ek.classification_metrics(swap[y], swap[p], 3)
    for key in ("accuracy", "macro_f1", "mcc"):
        assert a[key] == pytest.approx(b[key], abs=1e-12)
    ca = ek.cluster_metrics(z, y)
    cb = ek.cluster_metrics(z, swap[y])
    assert ca["silhouette"] == pytest.approx(cb["silhouette"], abs=1e-12)
    assert ca["davies_bouldin"] == pytest.approx(cb["davies_bouldin"], abs=1e-12)


def test_full_bundle_keys():
    rng = np.random.default_rng(8)
    y = np.array([0, 1, 0, 1, 1, 0])
    pred = np.array([0, 1, 1, 1, 0, 0])
    probs = rng.uniform(size=(6, 2))
    probs /= probs.sum(axis=1, keepdims=True)
    z = rng.normal(size=(6, 3))
    out = ek.full_bundle(y, pred, probs, z, 2)
    assert set(out) == {"accuracy", "macro_f1", "weighted_f1", "mcc",
                        "auroc", "auprc", "silhouette", "davies_bouldin"}
    multi = ek.full_bundle(np.array([0, 1, 2, 0, 1, 2]), pred % 3,
                           rng.uniform(size=(6, 3)), z, 3)
    assert multi["auroc"] is None and multi["auprc"] is None
