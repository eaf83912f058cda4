"""Dataset container, preprocessing, synthetic generators, and missingness scenarios."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    pass


@dataclass
class MultiomicsDataset:
    """Per-modality feature matrices with labels and a binary availability mask.

    ``modalities[i]`` is an (N, d_i) float array; rows with ``mask[:, i] == 0``
    are placeholders (zeros) and must never influence model outputs.
    """

    modalities: list
    labels: np.ndarray
    mask: np.ndarray
    modality_names: list
    class_count: int
    patient_ids: list = field(default_factory=list)

    def __post_init__(self):
        n = self.mask.shape[0]
        if len(self.modalities) != self.mask.shape[1]:
            raise DataError("mask width does not match modality count")
        for x in self.modalities:
            if x.shape[0] != n:
                raise DataError("modalities disagree on patient count")
        if np.any((self.mask != 0) & (self.mask != 1)):
            raise DataError("mask entries must be 0 or 1")
        if np.any(self.mask.sum(axis=1) < 1):
            raise DataError("patient with all modalities missing")
        if len(self.labels) != n:
            raise DataError("label count mismatch")
        if np.any((self.labels < 0) | (self.labels >= self.class_count)):
            raise DataError("label out of range")
        for i, x in enumerate(self.modalities):
            present = self.mask[:, i] == 1
            if not np.all(np.isfinite(np.nan_to_num(x[present], nan=0.0))):
                raise DataError(f"non-finite features in modality {i}")
        if not self.patient_ids:
            # zero-padded so lexicographic CSV ordering matches row order
            self.patient_ids = [f"p{j:05d}" for j in range(n)]

    @property
    def n_patients(self):
        return self.mask.shape[0]

    @property
    def n_modalities(self):
        return self.mask.shape[1]

    def copy(self):
        return MultiomicsDataset(
            modalities=[x.copy() for x in self.modalities],
            labels=self.labels.copy(),
            mask=self.mask.copy(),
            modality_names=list(self.modality_names),
            class_count=self.class_count,
            patient_ids=list(self.patient_ids),
        )


@dataclass
class ScenarioSpec:
    """Missingness scenario: one intact modality, a shared patient core, or random masking."""

    kind: str = "none"  # intact_one | shared_core | random_mask | none
    intact_modality: int | None = None
    ratio: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("intact_one", "shared_core", "random_mask", "none"):
            raise DataError(f"unknown scenario kind {self.kind!r}")
        if not (0.0 <= self.ratio <= 0.8):
            raise DataError("scenario ratio must be in [0, 0.8]")
        if self.kind == "intact_one" and self.intact_modality is None:
            raise DataError("intact_one requires intact_modality")
        if self.kind == "none" and self.ratio > 0:
            raise DataError("kind=none with nonzero ratio")

    def to_dict(self):
        return {"kind": self.kind, "intact_modality": self.intact_modality,
                "ratio": self.ratio, "seed": self.seed}


TRAIN, VAL, TEST = "train", "validation", "test"


@dataclass
class SplitAssignment:
    tags: np.ndarray  # array of strings per patient

    def indices(self, *names):
        return np.where(np.isin(self.tags, names))[0]

    @property
    def train(self):
        return self.indices(TRAIN)

    @property
    def validation(self):
        return self.indices(VAL)

    @property
    def test(self):
        return self.indices(TEST)


# ---------------------------------------------------------------------------
# CSV I/O


def load_csv(modality_paths, label_path, modality_names=None):
    """Assemble a dataset from one CSV per modality plus a label CSV.

    A patient absent from a modality file gets mask 0 there; patients are
    ordered by sorted ID for determinism.
    """
    labels_by_id = {}
    header, rows = _read_csv(label_path)
    if header is None:
        raise DataError("empty label file")
    for row in rows:
        if len(row) != 2:
            raise DataError(f"label row {row[:3]!r} does not hold exactly a "
                            f"patient id and a label")
        pid, lab = row
        if pid in labels_by_id:
            raise DataError(f"duplicate patient id {pid!r} in labels")
        try:
            labels_by_id[pid] = int(lab)
        except ValueError:
            raise DataError(f"non-integer label {lab!r} for {pid!r}") from None
    if not labels_by_id:
        raise DataError("label file has no rows")
    low = min(labels_by_id.values())
    if low < 0:
        raise DataError(f"negative label {low}")
    top = max(labels_by_id.values())
    if top >= len(labels_by_id):
        raise DataError(f"label {top} is not below the number of labelled "
                        f"patients ({len(labels_by_id)})")

    per_modality = []
    feature_names = []
    for path in modality_paths:
        header, body = _read_csv(path)
        if header is None or len(header) < 2:
            raise DataError(f"{path} has no feature columns")
        rows = {}
        for row in body:
            pid = row[0]
            if pid in rows:
                raise DataError(f"duplicate patient id {pid!r} in {path}")
            try:
                rows[pid] = [float(v) if v != "" else math.nan for v in row[1:]]
            except ValueError as exc:
                raise DataError(f"non-numeric feature in {path}: {exc}") from None
        per_modality.append(rows)
        feature_names.append(header[1:])

    ids = sorted(labels_by_id)
    mask = np.zeros((len(ids), len(modality_paths)), dtype=np.int64)
    mats = []
    for i, rows in enumerate(per_modality):
        d = len(feature_names[i])
        mat = np.zeros((len(ids), d))
        for j, pid in enumerate(ids):
            if pid in rows:
                vals = rows[pid]
                if len(vals) != d:
                    raise DataError(f"row width mismatch for {pid!r}")
                mat[j] = vals
                mask[j, i] = 1
        mats.append(mat)
    orphans = [ids[j] for j in np.where(mask.sum(axis=1) == 0)[0]]
    if orphans:
        raise DataError(f"patients present in no modality: {orphans[:5]}")

    labels = np.array([labels_by_id[pid] for pid in ids], dtype=np.int64)
    names = list(modality_names) if modality_names else [
        os.path.splitext(os.path.basename(p))[0] for p in modality_paths]
    return MultiomicsDataset(
        modalities=mats, labels=labels, mask=mask, modality_names=names,
        class_count=int(labels.max()) + 1, patient_ids=ids)


def _read_csv(path):
    """Header row (None for an empty file) and the non-blank rows."""
    with open(path, newline="") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except csv.Error as exc:
            raise DataError(f"malformed CSV {path}: {exc}") from None
    return (rows[0], rows[1:]) if rows else (None, [])


def save_csv(ds, out_dir, manifest_extra=None):
    """Write a dataset bundle: one CSV per modality, labels, and a manifest."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, name in enumerate(ds.modality_names):
        path = os.path.join(out_dir, f"{name}.csv")
        paths.append(path)
        d = ds.modalities[i].shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["patient_id"] + [f"f{k}" for k in range(d)])
            for j, pid in enumerate(ds.patient_ids):
                if ds.mask[j, i]:
                    writer.writerow([pid] + [repr(float(v)) for v in ds.modalities[i][j]])
    label_path = os.path.join(out_dir, "labels.csv")
    with open(label_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "label"])
        for pid, lab in zip(ds.patient_ids, ds.labels):
            writer.writerow([pid, int(lab)])
    manifest = {
        "modality_names": ds.modality_names,
        "dims": [int(x.shape[1]) for x in ds.modalities],
        "n_patients": ds.n_patients,
        "class_count": ds.class_count,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return paths, label_path


def load_bundle(bundle_dir):
    with open(os.path.join(bundle_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    names = manifest.get("modality_names") if isinstance(manifest, dict) else None
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise DataError("manifest.json needs modality_names, a non-empty list "
                        "of strings")
    paths = [os.path.join(bundle_dir, f"{n}.csv") for n in names]
    return load_csv(paths, os.path.join(bundle_dir, "labels.csv"), modality_names=names)


# ---------------------------------------------------------------------------
# preprocessing


def _anova_f(x, y, classes):
    """One-way ANOVA F statistic per feature column."""
    n = x.shape[0]
    overall = x.mean(axis=0)
    between = np.zeros(x.shape[1])
    within = np.zeros(x.shape[1])
    k = 0
    for c in classes:
        grp = x[y == c]
        if len(grp) == 0:
            continue
        k += 1
        gm = grp.mean(axis=0)
        between += len(grp) * (gm - overall) ** 2
        within += ((grp - gm) ** 2).sum(axis=0)
    if k < 2 or n - k <= 0:
        return np.zeros(x.shape[1])
    msb = between / (k - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = msb / (within / (n - k))
    f[~np.isfinite(f)] = 0.0
    return f


# A feature missing in more than this share of the reference rows is dropped.
MISSING_FRAC_THRESHOLD = 0.10


def preprocess(ds, split=None, topk=None):
    """Per-modality pipeline: drop sparse features, mean-impute, min-max
    scale, then keep the top-k features by one-way ANOVA F. The returned
    matrices are C-ordered.

    Statistics (means, min/max, F scores) come from training patients only
    when a split is supplied, and are reused on the rest.
    """
    if split is None:
        train_idx = np.arange(ds.n_patients)
    else:
        train_idx = split.indices(TRAIN, VAL)
    out_mats = []
    for i in range(ds.n_modalities):
        x = ds.modalities[i].astype(np.float64, copy=True)
        present = ds.mask[:, i] == 1
        ref = present.copy()
        ref[np.setdiff1d(np.arange(ds.n_patients), train_idx)] = False
        if not ref.any():
            ref = present  # no training patient has this modality; fall back
        xr = x[ref]

        # 1. drop features with too many missing values (on reference rows);
        # compress keeps the rows contiguous, a column mask index would not
        keep = np.isnan(xr).mean(axis=0) <= MISSING_FRAC_THRESHOLD
        x = np.compress(keep, x, axis=1)
        xr = xr[:, keep]
        if x.shape[1] == 0:
            raise DataError(f"modality {ds.modality_names[i]} left with 0 features")

        # 2. feature-wise mean imputation
        col_mean = np.nanmean(xr, axis=0)
        col_mean = np.nan_to_num(col_mean, nan=0.0)
        nan_pos = np.isnan(x)
        x[nan_pos] = np.broadcast_to(col_mean, x.shape)[nan_pos]
        xr = x[ref]

        # 3. min-max to [0, 1]; constant features map to 0
        lo = xr.min(axis=0)
        hi = xr.max(axis=0)
        span = hi - lo
        const = span == 0
        span[const] = 1.0
        x = (x - lo) / span
        x[:, const] = 0.0
        np.clip(x, 0.0, 1.0, out=x)

        # 4. ANOVA top-k on training labels; ties broken by lower index
        if topk is not None and topk < x.shape[1]:
            f = _anova_f(x[ref], ds.labels[np.where(ref)[0]],
                         range(ds.class_count))
            order = np.lexsort((np.arange(len(f)), -f))
            x = np.take(x, np.sort(order[:topk]), axis=1)

        x[~present] = 0.0
        out_mats.append(x)
    out = ds.copy()
    out.modalities = out_mats
    return out


# ---------------------------------------------------------------------------
# generators


def gen_clusters(n=500, clusters=15, modalities=3, dims=(100, 100, 60),
                 cluster_sep=2.0, noise_sd=0.6, seed=0):
    """Gaussian-cluster multimodal dataset: per-cluster, per-modality means,
    cluster ids as labels, full availability mask.

    Cluster sizes vary (Dirichlet draw, floor of 5 per cluster) so minority
    clusters survive a stratified 7:1:2 split.
    """
    if clusters > n:
        raise DataError("more clusters than samples")
    if len(dims) != modalities:
        dims = tuple(dims[i % len(dims)] for i in range(modalities))
    rng = np.random.default_rng(seed)
    min_size = 5 if n >= 5 * clusters else 1
    props = rng.dirichlet(np.full(clusters, 3.0))
    sizes = np.maximum(min_size, np.floor(props * n).astype(int))
    while sizes.sum() > n:
        sizes[int(np.argmax(sizes))] -= 1
    while sizes.sum() < n:
        sizes[int(np.argmin(sizes))] += 1
    labels = np.repeat(np.arange(clusters), sizes)

    mats = []
    for i in range(modalities):
        centers = rng.normal(0.0, cluster_sep, size=(clusters, dims[i]))
        x = centers[labels]
        if noise_sd > 0:
            x = x + rng.normal(0.0, noise_sd, size=x.shape)
        mats.append(x)
    mask = np.ones((n, modalities), dtype=np.int64)
    names = [f"omics{i}" for i in range(modalities)]
    return MultiomicsDataset(modalities=mats, labels=labels, mask=mask,
                             modality_names=names, class_count=clusters)


def gen_scalability(n=500, modalities=2, features_per_modality=1000, seed=0,
                    class_sep=1.0, noise_sd=1.0):
    """Binary-class dataset with a configurable number of equally wide modalities."""
    if not (2 <= modalities <= 10):
        raise DataError("modalities must be in [2, 10]")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    mats = []
    for _ in range(modalities):
        centers = rng.normal(0.0, class_sep, size=(2, features_per_modality))
        mats.append(centers[labels] + rng.normal(0.0, noise_sd,
                                                 size=(n, features_per_modality)))
    mask = np.ones((n, modalities), dtype=np.int64)
    names = [f"mod{i}" for i in range(modalities)]
    return MultiomicsDataset(modalities=mats, labels=labels, mask=mask,
                             modality_names=names, class_count=2)


# ---------------------------------------------------------------------------
# missingness scenarios


def apply_scenario(ds, spec):
    """Impose a missingness pattern on a fully observed dataset.

    intact_one: one modality stays complete, the others each lose
    ceil(ratio*N) uniformly chosen patients. shared_core: ceil((1-ratio)*N)
    patients keep everything, the rest are round-robin assigned a single
    modality. random_mask: independent Bernoulli masking, all-missing rows
    resampled.
    """
    if not np.all(ds.mask == 1):
        raise DataError("apply_scenario expects a fully observed dataset")
    n, m = ds.mask.shape
    out = ds.copy()
    if spec.kind == "none" or spec.ratio == 0.0:
        return out
    rng = np.random.default_rng(spec.seed)
    mask = np.ones((n, m), dtype=np.int64)

    if spec.kind == "intact_one":
        k = math.ceil(spec.ratio * n)
        for i in range(m):
            if i == spec.intact_modality:
                continue
            drop = rng.choice(n, size=k, replace=False)
            mask[drop, i] = 0
    elif spec.kind == "shared_core":
        n_shared = math.ceil((1.0 - spec.ratio) * n)
        order = rng.permutation(n)
        rest = order[n_shared:]
        for pos, j in enumerate(rest):
            keep = pos % m
            mask[j] = 0
            mask[j, keep] = 1
    elif spec.kind == "random_mask":
        mask = (rng.random((n, m)) >= spec.ratio).astype(np.int64)
        empty = np.where(mask.sum(axis=1) == 0)[0]
        while len(empty):
            mask[empty] = (rng.random((len(empty), m)) >= spec.ratio).astype(np.int64)
            empty = empty[mask[empty].sum(axis=1) == 0]
    else:
        raise DataError(f"cannot apply scenario kind {spec.kind!r}")

    for i in range(m):
        out.modalities[i][mask[:, i] == 0] = 0.0
    out.mask = mask
    return out


# ---------------------------------------------------------------------------
# splitting


def split(ds, seed=0, max_attempts=100):
    """Stratified 7:1:2 split by (matched/unmatched x class).

    Matched means all modalities present. Redraws (up to ``max_attempts``)
    if some class ends up absent from the training portion.
    """
    n = ds.n_patients
    if n < 10:
        raise DataError("need at least 10 patients to split")
    matched = ds.mask.sum(axis=1) == ds.n_modalities
    for attempt in range(max_attempts):
        rng = np.random.default_rng((seed, attempt))
        tags = np.empty(n, dtype=object)
        for is_matched in (True, False):
            for c in range(ds.class_count):
                idx = np.where((matched == is_matched) & (ds.labels == c))[0]
                if len(idx) == 0:
                    continue
                idx = rng.permutation(idx)
                n_train = int(round(0.7 * len(idx)))
                n_val = int(round(0.1 * len(idx)))
                if n_train + n_val > len(idx):
                    n_val = len(idx) - n_train
                tags[idx[:n_train]] = TRAIN
                tags[idx[n_train:n_train + n_val]] = VAL
                tags[idx[n_train + n_val:]] = TEST
        assignment = SplitAssignment(tags=np.array([str(t) for t in tags]))
        train_classes = set(ds.labels[assignment.train].tolist())
        if train_classes == set(range(ds.class_count)) & set(ds.labels.tolist()):
            return assignment
    raise DataError("could not produce a split with every class in training")


def split_and_preprocess(ds, seed, topk=None):
    """Split ``ds`` under ``seed`` and preprocess it on that split; returns
    (preprocessed dataset, split assignment)."""
    assignment = split(ds, seed=seed)
    return preprocess(ds, split=assignment, topk=topk), assignment
