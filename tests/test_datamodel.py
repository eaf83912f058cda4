import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import datamodel as dm
from magnetkit import evalkit
from oracles import reference_apply_scenario, reference_preprocess, save_csv


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_load_csv_presence_mask(tmp_path):
    write_csv(tmp_path / "m0.csv", ["patient_id", "f0"], [["p1", 1.0], ["p2", 2.0]])
    write_csv(tmp_path / "m1.csv", ["patient_id", "f0"], [["p2", 3.0]])
    write_csv(tmp_path / "m2.csv", ["patient_id", "f0"], [["p1", 4.0], ["p2", 5.0]])
    write_csv(tmp_path / "labels.csv", ["patient_id", "label"],
              [["p1", 0], ["p2", 1]])
    ds = dm.load_csv([tmp_path / f"m{i}.csv" for i in range(3)],
                     tmp_path / "labels.csv")
    assert ds.mask.tolist() == [[1, 0, 1], [1, 1, 1]]
    assert ds.patient_ids == ["p1", "p2"]


def test_load_csv_empty_labels(tmp_path):
    write_csv(tmp_path / "m0.csv", ["patient_id", "f0"], [["p1", 1.0]])
    (tmp_path / "labels.csv").write_text("")
    with pytest.raises(dm.DataError):
        dm.load_csv([tmp_path / "m0.csv"], tmp_path / "labels.csv")


def test_load_csv_nonnumeric(tmp_path):
    write_csv(tmp_path / "m0.csv", ["patient_id", "f0"], [["p1", "oops"]])
    write_csv(tmp_path / "labels.csv", ["patient_id", "label"], [["p1", 0]])
    with pytest.raises(dm.DataError):
        dm.load_csv([tmp_path / "m0.csv"], tmp_path / "labels.csv")


def test_load_csv_rejects_label_beyond_patient_count(tmp_path):
    write_csv(tmp_path / "m0.csv", ["patient_id", "f0"],
              [["p1", 1.0], ["p2", 2.0], ["p3", 3.0]])
    write_csv(tmp_path / "labels.csv", ["patient_id", "label"],
              [["p1", 0], ["p2", 1], ["p3", 1000000000]])
    with pytest.raises(dm.DataError, match="label 1000000000"):
        dm.load_csv([tmp_path / "m0.csv"], tmp_path / "labels.csv")


def test_save_load_roundtrip(tmp_path):
    ds = dm.gen_clusters(n=40, clusters=4, dims=(5, 6, 7), seed=1)
    ds = dm.apply_scenario(ds, dm.ScenarioSpec(kind="random_mask", ratio=0.3,
                                               seed=2))
    dm.save_csv(ds, tmp_path / "bundle")
    back = dm.load_bundle(tmp_path / "bundle")
    assert np.array_equal(back.mask, ds.mask)
    assert np.array_equal(back.labels, ds.labels)
    for i in range(3):
        assert np.allclose(back.modalities[i], ds.modalities[i])


def tricky_bundle():
    """A masked dataset whose ids need quoting and whose features hold a
    NaN, a signed zero and extreme magnitudes."""
    ds = dm.gen_clusters(n=40, clusters=4, dims=(5, 6, 7), seed=1)
    ds = dm.apply_scenario(ds, dm.ScenarioSpec(kind="random_mask", ratio=0.3,
                                               seed=2))
    ids = [f"p{j:05d}" for j in range(ds.n_patients)]
    ids[3], ids[7], ids[8] = "p,3", 'p"q', "p\nr"
    x = ds.modalities[0].copy()
    row = np.flatnonzero(ds.mask[:, 0])[0]
    x[row, :4] = [np.nan, -0.0, 1e-300, -1.5e300]
    return dataclasses.replace(ds, patient_ids=ids,
                               modalities=[x, *ds.modalities[1:]])


@pytest.mark.parametrize("fields", [dm.FIELDS_PER_WRITE, 18, 1])
def test_bundle_bytes_match_per_row_writer(tmp_path, monkeypatch, fields):
    # 18 fields are 3 rows of a 6-field modality and 9 label rows
    ds = tricky_bundle()
    monkeypatch.setattr(dm, "FIELDS_PER_WRITE", fields)
    dm.save_csv(ds, tmp_path / "blocks")
    (tmp_path / "rows").mkdir()
    save_csv(ds, tmp_path / "rows")
    for name in [*ds.modality_names, "labels"]:
        assert (tmp_path / "blocks" / f"{name}.csv").read_bytes() == \
            (tmp_path / "rows" / f"{name}.csv").read_bytes()


def test_quoted_ids_roundtrip(tmp_path):
    ds = tricky_bundle()
    dm.save_csv(ds, tmp_path / "bundle")
    back = dm.load_bundle(tmp_path / "bundle")
    assert sorted(back.patient_ids) == back.patient_ids == sorted(ds.patient_ids)
    row = {pid: j for j, pid in enumerate(ds.patient_ids)}
    order = [row[pid] for pid in back.patient_ids]
    assert np.array_equal(back.mask, ds.mask[order])
    assert np.array_equal(back.labels, ds.labels[order])
    for got, want in zip(back.modalities, ds.modalities):
        assert np.array_equal(got, want[order], equal_nan=True)


def test_minmax_scaling():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    ds = dm.MultiomicsDataset(modalities=[x], labels=np.array([0, 0, 1, 1]),
                              mask=np.ones((4, 1), dtype=int),
                              modality_names=["m"], class_count=2)
    out = dm.preprocess(ds)
    assert np.allclose(out.modalities[0][:, 0], [0.0, 1 / 3, 2 / 3, 1.0])


def test_sparse_feature_dropped():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 3))
    x[:3, 0] = np.nan  # 15% missing -> dropped at the 10% threshold
    x[0, 1] = np.nan   # 5% missing -> kept and imputed
    ds = dm.MultiomicsDataset(modalities=[np.nan_to_num(x, nan=np.nan)],
                              labels=rng.integers(0, 2, size=20),
                              mask=np.ones((20, 1), dtype=int),
                              modality_names=["m"], class_count=2)
    out = dm.preprocess(ds)
    assert out.modalities[0].shape[1] == 2
    assert np.all(np.isfinite(out.modalities[0]))


def test_anova_selects_separating_feature():
    # feature A class means (0, 10); feature B identical means -> F(A) >> F(B)
    rng = np.random.default_rng(1)
    y = np.repeat([0, 1], 10)
    a = np.where(y == 0, 0.0, 10.0) + rng.normal(0, 0.1, 20)
    b = 5.0 + rng.normal(0, 0.1, 20)
    ds = dm.MultiomicsDataset(modalities=[np.column_stack([b, a])],
                              labels=y, mask=np.ones((20, 1), dtype=int),
                              modality_names=["m"], class_count=2)
    out = dm.preprocess(ds, topk=1)
    # column 1 (feature A) survives; its min-max range spans [0, 1]
    col = out.modalities[0][:, 0]
    assert abs(col[y == 1].mean() - col[y == 0].mean()) > 0.9


@pytest.mark.parametrize("topk", [-1, 0])
def test_topk_below_one_is_rejected(topk):
    ds = dm.gen_clusters(n=20, clusters=2, modalities=2, dims=(4, 4),
                         seed=0)
    with pytest.raises(dm.DataError, match="topk"):
        dm.preprocess(ds, topk=topk)


def test_constant_feature_maps_to_zero():
    x = np.column_stack([np.full(12, 7.0), np.arange(12.0)])
    ds = dm.MultiomicsDataset(modalities=[x], labels=np.arange(12) % 2,
                              mask=np.ones((12, 1), dtype=int),
                              modality_names=["m"], class_count=2)
    out = dm.preprocess(ds)
    assert np.all(out.modalities[0][:, 0] == 0.0)


def test_preprocess_idempotent():
    ds = dm.gen_clusters(n=60, clusters=4, dims=(8, 8, 8), seed=5)
    once = dm.preprocess(ds, topk=6)
    twice = dm.preprocess(once, topk=6)
    for a, b in zip(once.modalities, twice.modalities):
        assert np.allclose(a, b, atol=1e-12)
        # top-k selection (once) and the plain path (twice) return C order
        assert a.flags.c_contiguous and b.flags.c_contiguous


def test_gen_clusters_deterministic():
    a = dm.gen_clusters(seed=9, n=50, clusters=5, dims=(4, 4, 4))
    b = dm.gen_clusters(seed=9, n=50, clusters=5, dims=(4, 4, 4))
    for x, y in zip(a.modalities, b.modalities):
        assert np.array_equal(x, y)
    assert np.array_equal(a.labels, b.labels)


def test_gen_clusters_zero_noise():
    ds = dm.gen_clusters(n=50, clusters=5, dims=(4, 4, 4), noise_sd=0.0, seed=2)
    for c in range(5):
        block = ds.modalities[0][ds.labels == c]
        assert np.allclose(block.var(axis=0), 0.0)


def test_gen_clusters_centroid_oracle():
    ds = dm.gen_clusters(seed=0)
    asg = dm.split(ds, seed=0)
    prepped = dm.preprocess(ds, split=asg)
    tri, tei = asg.indices("train", "validation"), asg.indices("test")
    x = np.concatenate(prepped.modalities, axis=1)
    cents = np.stack([x[tri][prepped.labels[tri] == c].mean(axis=0)
                      for c in range(15)])
    d = ((x[tei][:, None, :] - cents[None]) ** 2).sum(-1)
    m = evalkit.classification_metrics(prepped.labels[tei], d.argmin(1), 15)
    assert m["macro_f1"] >= 0.95


def test_gen_scalability_shapes():
    ds = dm.gen_scalability(modalities=10, seed=0)
    assert len(ds.modalities) == 10
    assert all(x.shape == (500, 1000) for x in ds.modalities)
    again = dm.gen_scalability(modalities=2, seed=4)
    assert np.array_equal(again.modalities[0],
                          dm.gen_scalability(modalities=2, seed=4).modalities[0])


def test_random_mask_density():
    ds = dm.gen_scalability(n=500, modalities=4, features_per_modality=10, seed=1)
    masked = dm.apply_scenario(ds, dm.ScenarioSpec(kind="random_mask", ratio=0.5,
                                                   seed=1))
    density = masked.mask.mean()
    assert abs(density - 0.5) < 0.05
    assert np.all(masked.mask.sum(axis=1) >= 1)


def test_scenario_identity_at_zero():
    ds = dm.gen_clusters(n=30, clusters=3, dims=(4, 4, 4), seed=0)
    out = dm.apply_scenario(ds, dm.ScenarioSpec(kind="random_mask", ratio=0.0,
                                                seed=0))
    assert np.all(out.mask == 1)


def test_intact_one_counts():
    ds = dm.gen_clusters(n=100, clusters=4, dims=(3, 3, 3), seed=0)
    spec = dm.ScenarioSpec(kind="intact_one", intact_modality=0, ratio=0.5, seed=3)
    out = dm.apply_scenario(ds, spec)
    sums = out.mask.sum(axis=0)
    assert sums[0] == 100
    assert sums[1] == 50 and sums[2] == 50


def test_shared_core_counts():
    ds = dm.gen_clusters(n=500, clusters=5, dims=(3, 3, 3), seed=0)
    out = dm.apply_scenario(ds, dm.ScenarioSpec(kind="shared_core", ratio=0.8,
                                                seed=1))
    full = (out.mask.sum(axis=1) == 3).sum()
    single = (out.mask.sum(axis=1) == 1).sum()
    assert full == 100 and single == 400


def test_scenario_kind_none_rejects_ratio():
    with pytest.raises(dm.DataError):
        dm.ScenarioSpec(kind="none", ratio=0.5)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from(["intact_one", "shared_core", "random_mask"]),
       st.floats(0.0, 0.8), st.sampled_from([np.float32, np.float64]))
def test_scenario_never_empties_a_row(seed, kind, ratio, dtype):
    ds = dm.gen_clusters(n=30, clusters=3, dims=(2, 2, 2), seed=0)
    ds = dm.MultiomicsDataset(
        modalities=[x.astype(dtype) for x in ds.modalities], labels=ds.labels,
        mask=ds.mask, modality_names=ds.modality_names,
        class_count=ds.class_count)
    before = [x.copy() for x in ds.modalities]
    spec = dm.ScenarioSpec(kind=kind, intact_modality=0, ratio=ratio, seed=seed)
    out = dm.apply_scenario(ds, spec)
    assert np.all(out.mask.sum(axis=1) >= 1)
    want = reference_apply_scenario(ds, spec)
    assert np.array_equal(out.mask, want.mask) and out.mask.dtype == want.mask.dtype
    for got, ref, orig, x in zip(out.modalities, want.modalities, before,
                                 ds.modalities):
        assert got.dtype == ref.dtype and got.flags.c_contiguous
        assert got.tobytes() == ref.tobytes()
        assert x.tobytes() == orig.tobytes()
    assert np.all(ds.mask == 1)


@pytest.mark.parametrize("index", [3, -1])
@pytest.mark.parametrize("ratio", [0.0, 0.5])
def test_intact_modality_out_of_range(index, ratio):
    ds = dm.gen_clusters(n=30, clusters=3, dims=(2, 2, 2), seed=0)
    spec = dm.ScenarioSpec(kind="intact_one", intact_modality=index,
                           ratio=ratio)
    with pytest.raises(dm.DataError, match=f"intact modality {index} .* 3 "
                                           f"modalities"):
        dm.apply_scenario(ds, spec)


@st.composite
def preprocess_cases(draw):
    """A dataset with NaN shares on both sides of the drop threshold,
    features centred at 0 or offset far from it, constant features, arbitrary values on missing rows and, optionally, a
    modality that only test patients have; plus a split (or None) and a
    top-k that is None, below or at least some modality's width."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(10, 40))
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    split = None
    mask = (rng.random((n, len(widths))) < 0.7).astype(np.int64)
    mask[:, 0] = 1
    if draw(st.booleans()):
        tags = rng.choice([dm.TRAIN, dm.VAL, dm.TEST], size=n, p=[0.6, 0.2, 0.2])
        tags[:2] = [dm.TRAIN, dm.TEST]
        split = dm.SplitAssignment(tags=tags)
        if len(widths) > 1 and draw(st.booleans()):
            mask[:, -1] = tags == dm.TEST
    mats = []
    for width in widths:
        # an offset makes the imputed mean's last bits survive the scaling
        x = rng.normal(draw(st.sampled_from([0.0, 1e3])), 3.0, size=(n, width))
        for j in range(width):
            share = draw(st.sampled_from([0.0, 0.05, 0.1, 0.15, 0.5]))
            x[rng.random(n) < share, j] = np.nan
            if draw(st.integers(0, 3)) == 0:
                x[:, j] = np.where(np.isnan(x[:, j]), np.nan, 1.5)
        mats.append(x.astype(dtype))
    ds = dm.MultiomicsDataset(modalities=mats, labels=rng.integers(0, 3, n),
                              mask=mask, modality_names=[f"m{i}" for i in
                                                         range(len(widths))],
                              class_count=3)
    topk = draw(st.sampled_from([None, 1, 3, 8]))
    return ds, split, topk


@settings(max_examples=150, deadline=None)
@given(preprocess_cases())
def test_preprocess_matches_reference_bitwise(case):
    ds, split, topk = case
    before = [x.copy() for x in ds.modalities]
    try:
        want = reference_preprocess(ds, split=split, topk=topk)
    except dm.DataError:
        with pytest.raises(dm.DataError):
            dm.preprocess(ds, split=split, topk=topk)
        return
    got = dm.preprocess(ds, split=split, topk=topk)
    for a, b, orig, x in zip(got.modalities, want.modalities, before,
                             ds.modalities):
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert x.dtype == orig.dtype and x.tobytes() == orig.tobytes()
    assert np.array_equal(got.mask, ds.mask)
    assert np.array_equal(got.labels, ds.labels)
    assert got.patient_ids == ds.patient_ids


def test_preprocess_memory_is_bounded_by_its_output():
    # beyond the output, at most three input-sized temporaries at once
    ds = dm.apply_scenario(
        dm.gen_scalability(n=200, modalities=6, features_per_modality=300),
        dm.ScenarioSpec(kind="random_mask", ratio=0.5, seed=0))
    asg = dm.split(ds, seed=0)
    largest = max(x.nbytes for x in ds.modalities)
    tracemalloc.start()
    try:
        out = dm.preprocess(ds, split=asg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(x.nbytes for x in out.modalities) <= 3 * largest


def test_split_proportions():
    ds = dm.gen_clusters(n=200, clusters=2, dims=(3, 3, 3), seed=0)
    half = dm.ScenarioSpec(kind="shared_core", ratio=0.5, seed=0)
    masked = dm.apply_scenario(ds, half)
    asg = dm.split(masked, seed=0)
    assert len(asg.indices(dm.TRAIN)) == 140
    assert len(asg.indices(dm.VAL)) == 20
    assert len(asg.indices(dm.TEST)) == 40
    matched = masked.mask.sum(axis=1) == 3
    for is_matched in (True, False):
        for c in range(2):
            idx = np.where(matched == is_matched)[0]
            idx = idx[masked.labels[idx] == c]
            n = len(idx)
            in_train = np.isin(idx, asg.indices(dm.TRAIN)).sum()
            assert abs(in_train - 0.7 * n) <= 1


def test_split_seed_changes_assignment_not_sizes():
    ds = dm.gen_clusters(n=100, clusters=4, dims=(3, 3, 3), seed=0)
    a = dm.split(ds, seed=1)
    b = dm.split(ds, seed=2)
    assert not np.array_equal(a.tags, b.tags)
    assert len(a.indices(dm.TRAIN)) == len(b.indices(dm.TRAIN))
    assert len(a.indices(dm.TEST)) == len(b.indices(dm.TEST))


def test_split_every_class_in_training():
    ds = dm.gen_clusters(n=120, clusters=10, dims=(3, 3, 3), seed=7)
    asg = dm.split(ds, seed=7)
    assert set(ds.labels[asg.indices(dm.TRAIN)].tolist()) == set(range(10))
