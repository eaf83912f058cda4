import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import datamodel as dm
from magnetkit import graph as gr
from magnetkit import numerics as nm
from magnetkit import objective as ob
from oracles import (add_parameter, alignment_target, build_Q, constant,
                     dense_of_tiles, dense_similarity, grad_check, kl_loss,
                     kl_target, matmul, packed_similarity, student_t_kl,
                     upper_tiles)


def brute_ce(logits, labels):
    total = 0.0
    for row, y in zip(logits, labels):
        p = np.exp(row) / np.exp(row).sum()
        total += -math.log(p[y])
    return total


def brute_P(values, valid, ids):
    n = len(ids)
    aff = np.zeros((n, n))
    for a, i in enumerate(ids):
        for b, j in enumerate(ids):
            if a != b and valid[i, j]:
                aff[a, b] = (1.0 + values[i, j]) / 2.0
    return aff / aff.sum()


def brute_Q(z, valid):
    n = len(z)
    k = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and valid[i, j]:
                k[i, j] = 1.0 / (1.0 + ((z[i] - z[j]) ** 2).sum())
    return k / k.sum()


def brute_kl(p, q):
    total = 0.0
    for a, b in zip(p.ravel(), q.ravel()):
        if a > 0:
            total += a * math.log(a / b)
    return total


def test_ce_uniform_logits_closed_form():
    logits = constant(np.zeros((4, 5)))
    loss = ob.ce_loss(logits, np.array([0, 1, 2, 3]))
    assert float(loss.data) == pytest.approx(4 * math.log(5), abs=1e-12)


def test_ce_large_margin_tends_to_zero():
    logits = constant(np.array([[50.0, 0.0, 0.0]]))
    assert float(ob.ce_loss(logits, np.array([0])).data) < 1e-10


def test_ce_matches_brute_force():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=2.0, size=(10, 3))
    labels = rng.integers(0, 3, size=10)
    loss = ob.ce_loss(constant(logits), labels)
    assert float(loss.data) == pytest.approx(brute_ce(logits, labels), abs=1e-10)


def test_build_P_single_pair():
    sims = packed_similarity([[1.0, 1.0], [1.0, 1.0]])
    target = ob.build_P(sims, [0, 1])
    p, valid = dense_of_tiles(target.p), dense_of_tiles(target.weights)
    assert p[0, 1] == pytest.approx(0.5)  # two ordered pairs share the mass
    assert p[0, 0] == 0.0
    assert valid[0, 1] and not valid[0, 0]


def test_build_P_orthogonal_patients_uniform():
    vals = np.eye(3)
    target = ob.build_P(packed_similarity(vals), [0, 1, 2])
    p, valid = dense_of_tiles(target.p), dense_of_tiles(target.weights)
    off = p[valid]
    assert np.allclose(off, 1.0 / 6.0)


def test_build_P_matches_brute_force():
    rng = np.random.default_rng(1)
    vals = rng.uniform(-1, 1, size=(6, 6))
    vals = (vals + vals.T) / 2
    valid = rng.integers(0, 2, size=(6, 6)).astype(bool)
    valid |= valid.T
    valid[np.arange(6), np.arange(6)] = True
    valid[0, 1] = valid[1, 0] = True  # keep at least one valid pair
    ids = [0, 1, 3, 5]
    p = dense_of_tiles(ob.build_P(packed_similarity(vals, valid), ids).p)
    ref = brute_P(vals, valid, ids)
    assert np.allclose(p, ref, atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0)


def test_build_P_all_invalid_raises():
    valid = np.eye(2, dtype=bool)
    with pytest.raises(ob.ObjectiveError):
        ob.build_P(packed_similarity(np.eye(2), valid), [0, 1])


def test_build_P_all_minus_one_falls_back_to_uniform():
    vals = -np.ones((4, 4))
    valid = np.ones((4, 4), dtype=bool)
    valid[0, 3] = valid[3, 0] = False
    target = ob.build_P(packed_similarity(vals, valid), [0, 1, 2, 3])
    p = dense_of_tiles(target.p)
    pair = dense_of_tiles(target.weights)
    assert np.array_equal(p, np.where(pair, 1.0 / 10.0, 0.0))
    assert target.p_log_p == pytest.approx(np.log(0.1), rel=1e-12)


def assert_symmetric_blocks(tiles):
    # the square block on the diagonal of each row tile, bit for bit
    for tile in tiles:
        block = tile[:, :tile.shape[0]]
        assert block.tobytes() == np.ascontiguousarray(block.T).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([2, ob.KL_TILE - 1, ob.KL_TILE, ob.KL_TILE + 1,
                        2 * ob.KL_TILE + 3]),
       st.sampled_from([np.float64, np.float32]))
def test_build_P_tiles_match_brute_force_across_tile_edges(seed, n, dtype):
    # sizes below, at and past the row tile, on a subset of the patients
    # in a shuffled order: the reassembled tiles are brute_P, the W tiles
    # the valid block, and each square block on the diagonal is symmetric
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1, 1, size=(n + 3, n + 3))
    vals = (vals + vals.T) / 2
    valid = rng.random((n + 3, n + 3)) < 0.7
    valid &= valid.T
    ids = rng.permutation(n + 3)[:n]
    valid[ids[0], ids[1]] = valid[ids[1], ids[0]] = True
    target = ob.build_P(packed_similarity(vals, valid), ids, dtype)
    ref = brute_P(vals, valid, ids)
    assert all(t.dtype == dtype for t in target.p)
    rel = 1e-12 if dtype == np.float64 else 1e-6
    assert np.allclose(dense_of_tiles(target.p), ref, rtol=rel, atol=0)
    pair = valid[np.ix_(ids, ids)]
    np.fill_diagonal(pair, False)
    want = upper_tiles(pair)
    assert len(target.weights) == len(want)
    for got, tile in zip(target.weights, want):
        assert got.dtype == bool and np.array_equal(got, tile)
    assert_symmetric_blocks(target.p)
    assert_symmetric_blocks(target.weights)
    pos = ref[ref > 0]
    assert target.p_log_p == pytest.approx(float((pos * np.log(pos)).sum()),
                                           rel=rel)


def test_build_Q_identical_embeddings_uniform():
    valid = ~np.eye(4, dtype=bool)
    q = build_Q(np.ones((4, 2)), valid)
    assert np.allclose(q[valid], 1.0 / 12.0)
    assert np.all(q[~valid] == 0.0)


def test_build_Q_monotone_in_distance():
    z = np.array([[0.0], [0.1], [5.0]])
    valid = ~np.eye(3, dtype=bool)
    q = build_Q(z, valid)
    assert q[0, 1] > q[0, 2]


def test_build_Q_matches_brute_force():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(5, 3))
    valid = ~np.eye(5, dtype=bool)
    valid[1, 3] = valid[3, 1] = False
    q = build_Q(z, valid)
    assert np.allclose(q, brute_Q(z, valid), atol=1e-12)
    assert abs(q.sum() - 1.0) < 1e-9


def test_kl_zero_iff_equal():
    p = np.array([[0.0, 0.3], [0.7, 0.0]])
    assert kl_loss(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kl_closed_form():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert kl_loss(p, q) == pytest.approx(math.log(2.0), abs=1e-12)


def test_kl_matches_brute_force():
    rng = np.random.default_rng(3)
    raw_p = rng.uniform(size=(4, 4))
    raw_q = rng.uniform(size=(4, 4))
    np.fill_diagonal(raw_p, 0.0)
    np.fill_diagonal(raw_q, 0.0)
    p, q = raw_p / raw_p.sum(), raw_q / raw_q.sum()
    ref = brute_kl(p, q)
    assert kl_loss(p, q) == pytest.approx(ref, abs=1e-12)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_kl_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    p = rng.uniform(size=n)
    q = rng.uniform(1e-6, 1.0, size=n)
    p, q = p / p.sum(), q / q.sum()
    assert kl_loss(p, q) >= -1e-12


def test_kl_alignment_matches_plain_computation():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(6, 3))
    p_raw = rng.uniform(size=(6, 6))
    valid = ~np.eye(6, dtype=bool)
    p = np.where(valid, p_raw, 0.0)
    p = p / p.sum()
    loss = ob.kl_alignment_loss(constant(z), alignment_target(p, valid))
    ref = kl_loss(p, build_Q(z, valid), valid)
    assert float(loss.data) == pytest.approx(ref, abs=1e-10)


def test_kl_alignment_gradient():
    rng = np.random.default_rng(5)
    valid = ~np.eye(5, dtype=bool)
    p_raw = np.where(valid, rng.uniform(size=(5, 5)), 0.0)
    p = p_raw / p_raw.sum()

    def build(values):
        g = nm.ComputeGraph()
        z = add_parameter(g, "z", values["z"])
        return ob.kl_alignment_loss(z, alignment_target(p, valid)), g

    assert grad_check(build, {"z": rng.normal(size=(5, 3))}) < 1e-4


def test_kl_alignment_minimized_when_q_matches_p():
    # with P built from the embeddings' own kernel, KL must be ~0
    rng = np.random.default_rng(6)
    z = rng.normal(size=(5, 2))
    valid = ~np.eye(5, dtype=bool)
    p = build_Q(z, valid)  # P := Q(z) exactly
    loss = ob.kl_alignment_loss(constant(z), alignment_target(p, valid))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-10)


def test_total_loss_arithmetic():
    two = constant(np.asarray(2.0))
    out = ob.total_loss(two, constant(np.asarray(0.5)), 0.1)
    assert float(out.data) == pytest.approx(2.05)
    assert float(ob.total_loss(two, constant(np.asarray(123.0)),
                               0.0).data) == 2.0
    with pytest.raises(ob.ObjectiveError):
        ob.total_loss(two, two, -0.1)


def test_total_loss_tensor_paths():
    ce = constant(np.asarray(2.0))
    kl = constant(np.asarray(0.5))
    out = ob.total_loss(ce, kl, 0.1)
    assert float(out.data) == pytest.approx(2.05)
    assert ob.total_loss(ce, kl, 0.0) is ce


def test_total_loss_gradient_includes_both_paths():
    rng = np.random.default_rng(7)
    labels = np.array([0, 1, 0, 1, 2])
    valid = ~np.eye(5, dtype=bool)
    p_raw = np.where(valid, rng.uniform(size=(5, 5)), 0.0)
    p = p_raw / p_raw.sum()
    w_dec = rng.normal(size=(3, 3))

    def build(values):
        g = nm.ComputeGraph()
        z = add_parameter(g, "z", values["z"])
        logits = matmul(z, constant(w_dec))
        ce = ob.ce_loss(logits, labels)
        kl = ob.kl_alignment_loss(z, alignment_target(p, valid))
        return ob.total_loss(ce, kl, 0.1), g

    assert grad_check(build, {"z": rng.normal(size=(5, 3))}) < 1e-4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 12))
def test_kl_alignment_matches_oracle_property(seed, n):
    # asymmetric P on a valid set with invalid off-diagonal pairs; two
    # valid pairs at least, since with one Q is constant and the gradient 0
    rng = np.random.default_rng(seed)
    valid = rng.random((n, n)) < 0.7
    np.fill_diagonal(valid, False)
    valid[0, 1] = valid[1, 2] = True
    valid[1, 0] = False
    p_raw = np.where(valid, rng.uniform(size=(n, n)), 0.0)
    p = p_raw / p_raw.sum()
    target = alignment_target(p, valid)
    z0 = rng.normal(size=(n, 3))
    loss = ob.kl_alignment_loss(constant(z0), target)
    assert float(loss.data) == pytest.approx(
        kl_loss(p, build_Q(z0, valid), valid), abs=1e-10)

    def build(values):
        g = nm.ComputeGraph()
        z = add_parameter(g, "z", values["z"])
        return ob.kl_alignment_loss(z, target), g

    assert grad_check(build, {"z": z0}) < 1e-4


def kl_value_and_grad(kl, z0, *args):
    g = nm.ComputeGraph(z0.dtype)
    loss = kl(add_parameter(g, "z", z0), *args)
    return float(loss.data), g.backward(loss)["z"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 40))
def test_symmetric_kl_node_matches_asymmetric_oracle(seed, n):
    # asymmetric P and valid pairs, one-sided invalid pairs included: the
    # symmetrised target gives the general node's value and gradient
    rng = np.random.default_rng(seed)
    valid = rng.random((n, n)) < 0.7
    np.fill_diagonal(valid, False)
    valid[0, 1] = valid[1, 2] = True
    valid[1, 0] = False
    p_raw = np.where(valid, rng.uniform(size=(n, n)), 0.0)
    p = p_raw / p_raw.sum()
    target = alignment_target(p, valid)
    assert_symmetric_blocks(target.p)
    assert_symmetric_blocks(target.weights)
    z0 = rng.normal(scale=2.0, size=(n, 4))
    value, grad = kl_value_and_grad(ob.kl_alignment_loss, z0, target)
    ref_value, ref_grad = kl_value_and_grad(student_t_kl, z0, p,
                                            valid.astype(float),
                                            target.p_log_p)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-14)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([2, ob.KL_TILE - 1, ob.KL_TILE, ob.KL_TILE + 1,
                        2 * ob.KL_TILE + 3]),
       st.sampled_from([np.float64, np.float32]))
def test_tiled_kl_node_matches_oracle_across_tile_edges(seed, n, dtype):
    # sizes below, at and past the row tile: partial last tiles and the
    # square blocks on the diagonal; asymmetric P and W with one-sided
    # invalid pairs go through the oracles' alignment_target, the oracle
    # node takes them raw.
    # Diagonal pairs may be valid too (at n = 2 the gradient would vanish
    # with one pair only).
    rng = np.random.default_rng(seed)
    valid = rng.random((n, n)) < 0.7
    valid[0, 0] = valid[0, 1] = True
    valid[1, 0] = False
    p_raw = np.where(valid, rng.uniform(size=(n, n)), 0.0)
    p = p_raw / p_raw.sum()
    target = alignment_target(p, valid, dtype)
    z0 = rng.normal(scale=2.0, size=(n, 4))
    value, grad = kl_value_and_grad(ob.kl_alignment_loss, z0.astype(dtype),
                                    target)
    ref_value, ref_grad = kl_value_and_grad(student_t_kl, z0, p,
                                            valid.astype(float),
                                            target.p_log_p)
    assert grad.dtype == dtype
    # f32: the f32-matches-f64 tolerance, plus an absolute floor for the
    # rounding of terms that nearly cancel in a small KL (n = 2)
    rel, tiny = (1e-12, 1e-14) if dtype == np.float64 else (1e-5, 1e-6)
    assert value == pytest.approx(ref_value, rel=rel, abs=tiny)
    assert (np.max(np.abs(grad - ref_grad))
            <= rel * np.max(np.abs(ref_grad)) + tiny)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_alignment_target_keeps_build_P_output(dtype):
    # build_P's P and W tiles are bitwise symmetric on their square blocks;
    # W is bitwise, and P within a few ulps (the normaliser is summed tile
    # by tile), what symmetrising the affinities it normalises gives
    ds = dm.apply_scenario(
        dm.gen_clusters(n=300, clusters=3, dims=(5, 4, 6), seed=2),
        dm.ScenarioSpec(kind="random_mask", ratio=0.6, seed=2))
    sims = gr.pairwise_similarity(ds)
    assert not sims.valid.all()
    values, valid = dense_similarity(sims)
    idx = np.arange(3, 280)
    valid = valid[np.ix_(idx, idx)]
    np.fill_diagonal(valid, False)
    aff = np.where(valid, (1.0 + values[np.ix_(idx, idx)]) / 2.0, 0.0)
    aff /= aff.sum()
    old = alignment_target(aff, valid, dtype)
    target = ob.build_P(sims, idx, dtype)
    assert len(target.p) == len(old.p) > 1
    for got, want in zip(target.p, old.p):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
    for got, want in zip(target.weights, old.weights):
        assert got.dtype == bool
        assert np.array_equal(got, want == 1)
    assert_symmetric_blocks(target.p)
    assert_symmetric_blocks(target.weights)
    assert target.p_log_p == pytest.approx(old.p_log_p, rel=1e-13)


def test_kl_alignment_is_one_tape_node():
    z = constant(np.random.default_rng(8).normal(size=(4, 2)))
    loss = ob.kl_alignment_loss(z, kl_target(4, seed=8))
    assert loss.parents == (z,) and loss.data.shape == ()


def test_kl_alignment_f32_matches_f64():
    rng = np.random.default_rng(9)
    valid = ~np.eye(8, dtype=bool)
    valid[2, 5] = False
    sims = packed_similarity(np.clip(rng.normal(size=(8, 8)), -1, 1), valid)
    ids = np.arange(8)
    t64 = ob.build_P(sims, ids)
    t32 = ob.build_P(sims, ids, np.float32)
    assert all(t.dtype == np.float32 for t in t32.p)
    assert all(w.dtype == bool for w in t32.weights)
    z = rng.normal(size=(8, 3))
    l64 = ob.kl_alignment_loss(constant(z), t64)
    l32 = ob.kl_alignment_loss(constant(z.astype(np.float32)), t32)
    assert l32.data.dtype == np.float32 and l32.data.shape == ()
    assert float(l32.data) == pytest.approx(float(l64.data), rel=1e-5)


def test_kl_alignment_shape_mismatch_raises():
    target = kl_target(4, seed=9)
    with pytest.raises(nm.NumericsError):
        ob.kl_alignment_loss(constant(np.zeros((5, 2))), target)
    with pytest.raises(nm.NumericsError):
        ob.kl_alignment_loss(constant(np.zeros(4)), target)
    short = ob.AlignmentTarget(p=target.p,
                               weights=(target.weights[0][:3],),
                               p_log_p=target.p_log_p)
    with pytest.raises(nm.NumericsError):
        ob.kl_alignment_loss(constant(np.zeros((4, 2))), short)
    missing = ob.AlignmentTarget(p=target.p, weights=(),
                                 p_log_p=target.p_log_p)
    with pytest.raises(nm.NumericsError):
        ob.kl_alignment_loss(constant(np.zeros((4, 2))), missing)


def test_kl_alignment_second_backward_raises():
    # the node frees its kernel tiles after its backward, so a second
    # backward through it is an error, not a zero gradient
    g = nm.ComputeGraph()
    z = add_parameter(g, "z", np.random.default_rng(10).normal(size=(4, 2)))
    loss = ob.kl_alignment_loss(z, kl_target(4, seed=10))
    first = g.backward(loss)["z"].copy()
    assert np.any(first != 0)
    with pytest.raises(nm.NumericsError, match="first backward"):
        g.backward(loss)
