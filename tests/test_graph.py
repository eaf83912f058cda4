import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from magnetkit import cli
from magnetkit import datamodel as dm
from magnetkit import graph as gr
from magnetkit import objective as ob
from oracles import (check_edges, dense_similarity, export_edges_csv,
                     packed_similarity)


def make_ds(rng, n=10, m=3, d=4, mask=None):
    mods = [rng.normal(size=(n, d)) for _ in range(m)]
    if mask is None:
        mask = rng.integers(0, 2, size=(n, m))
        mask[mask.sum(axis=1) == 0, 0] = 1
    return dm.MultiomicsDataset(modalities=mods,
                                labels=rng.integers(0, 3, size=n),
                                mask=mask,
                                modality_names=[f"m{i}" for i in range(m)],
                                class_count=3)


def brute_similarity(ds):
    """Double-loop recomputation of mean shared-modality cosine."""
    n = ds.n_patients
    values = np.zeros((n, n))
    valid = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            if u == v:
                values[u, v], valid[u, v] = 1.0, True
                continue
            coss = []
            for i in range(ds.n_modalities):
                if ds.mask[u, i] and ds.mask[v, i]:
                    a, b = ds.modalities[i][u], ds.modalities[i][v]
                    na, nb = np.linalg.norm(a), np.linalg.norm(b)
                    coss.append(a @ b / (na * nb) if na > 0 and nb > 0 else 0.0)
            if coss:
                values[u, v] = np.clip(np.mean(coss), -1.0, 1.0)
                valid[u, v] = True
    return values, valid


def outer_mask_similarity(ds):
    """The earlier array version: a full cosine Gram per modality, masked
    to the pairs that share it with an outer product."""
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
    return values, valid


def brute_best_neighbor(values, valid, u, allowed=None):
    best, best_sim = None, -np.inf
    for v in range(len(values)):
        if v == u or not valid[u, v]:
            continue
        if allowed is not None and not allowed[v]:
            continue
        if values[u, v] > best_sim:
            best, best_sim = v, values[u, v]
    return best


def brute_build_graph(ds, sims, rate):
    """Edge-list and per-node loop construction: threshold, then reconnect
    each initially isolated node (ascending) unless its pair repeats."""
    n = ds.n_patients
    values, valid = dense_similarity(sims)
    cand = [(u, v) for u in range(n) for v in range(u + 1, n) if valid[u, v]]
    cs = np.array([values[u, v] for u, v in cand])
    beta = -np.inf
    if len(cs) and rate > 0:
        rank = min(max(math.ceil(rate * len(cs)), 1), len(cs))
        beta = np.sort(cs)[rank - 1]
    edges = [e for e, s in zip(cand, cs) if s > beta]
    svals = [s for s in cs if s > beta]
    recon = [False] * len(edges)
    deg = np.zeros(n, dtype=np.int64)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    for u in np.where(deg == 0)[0]:
        best = brute_best_neighbor(values, valid, u)
        if best is None:
            raise gr.GraphError(f"node {u} has no valid neighbor to reconnect to")
        pair = (min(u, best), max(u, best))
        if pair not in edges:
            edges.append(pair)
            svals.append(float(values[pair]))
            recon.append(True)
    return (np.array(edges, dtype=np.int64).reshape(-1, 2), np.array(svals),
            np.array(recon, dtype=bool))


def brute_inductive_filter(g, sims, nodes):
    """Loop version of `graph.inductive_filter`: the edges between two of
    `nodes`, reconnection among them, then each node renamed by its place
    in `nodes`."""
    values, valid = dense_similarity(sims)
    is_train = np.zeros(g.n_nodes, dtype=bool)
    is_train[nodes] = True
    keep = [is_train[u] and is_train[v] for u, v in g.edges]
    edges = [tuple(e) for e, k in zip(g.edges.tolist(), keep) if k]
    svals = [s for s, k in zip(g.similarities, keep) if k]
    recon = [r for r, k in zip(g.reconnection, keep) if k]
    touched = {u for e in edges for u in e}
    for u in range(g.n_nodes):
        if not is_train[u] or u in touched:
            continue
        best = brute_best_neighbor(values, valid, u, allowed=is_train)
        if best is None:
            continue
        pair = (min(u, best), max(u, best))
        if pair not in edges:
            edges.append(pair)
            svals.append(float(values[pair]))
            recon.append(True)
    label = {int(u): i for i, u in enumerate(nodes)}
    edges = [(label[u], label[v]) for u, v in edges]
    return (np.array(edges, dtype=np.int64).reshape(-1, 2), np.array(svals),
            np.array(recon, dtype=bool))


def train_nodes(tags, side=(dm.TRAIN, dm.VAL)):
    """The training-side node ids `train` passes to the filter."""
    return dm.SplitAssignment(np.asarray(tags)).indices(*side)


def all_valid(n):
    return packed_similarity(np.eye(n))


def assert_same_arrays(g, ref):
    for got, want in zip((g.edges, g.similarities, g.reconnection), ref):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_similarity_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(5):
        ds = make_ds(rng, n=12)
        values, valid = dense_similarity(gr.pairwise_similarity(ds))
        ref_values, ref_valid = brute_similarity(ds)
        assert np.array_equal(valid, ref_valid)
        assert np.allclose(values[ref_valid], ref_values[ref_valid],
                           atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 80), st.integers(1, 4),
       st.integers(1, 40), st.floats(0.0, 0.9))
def test_similarity_bit_equal_to_outer_mask_version(seed, n, m, d, mask_rate):
    # absent rows keep nonzero placeholder features, some up to 1e4; some
    # present rows are all zero
    rng = np.random.default_rng(seed)
    mods = [rng.normal(size=(n, d)) * np.where(rng.random((n, 1)) < 0.2, 1e4, 1)
            for _ in range(m)]
    for x in mods:
        x[rng.random(n) < 0.15] = 0.0
    mask = (rng.random((n, m)) >= mask_rate).astype(int)
    mask[mask.sum(axis=1) == 0, 0] = 1
    ds = dm.MultiomicsDataset(modalities=mods, labels=rng.integers(0, 3, size=n),
                              mask=mask, modality_names=[f"m{i}" for i in range(m)],
                              class_count=3)
    sims = gr.pairwise_similarity(ds)
    values, valid = outer_mask_similarity(ds)
    upper = np.triu_indices(n, k=1)
    assert np.array_equal(sims.values, values[upper])
    assert np.array_equal(sims.valid, valid[upper])


def test_similarity_identical_patients():
    x = np.ones((2, 3))
    ds = dm.MultiomicsDataset(modalities=[x], labels=np.array([0, 1]),
                              mask=np.ones((2, 1), dtype=int),
                              modality_names=["m"], class_count=2)
    sims = gr.pairwise_similarity(ds)
    assert sims.values.tolist() == [pytest.approx(1.0)]


def test_similarity_zero_norm_contributes_zero():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([[1.0, 0.0], [1.0, 0.0]])
    ds = dm.MultiomicsDataset(modalities=[x, y], labels=np.array([0, 1]),
                              mask=np.ones((2, 2), dtype=int),
                              modality_names=["a", "b"], class_count=2)
    sims = gr.pairwise_similarity(ds)
    # modality a cosine = 0 (zero vector), modality b cosine = 1 -> mean 0.5
    assert sims.values.tolist() == [pytest.approx(0.5)]


def test_similarity_no_shared_modality_invalid():
    mask = np.array([[1, 0], [0, 1]])
    ds = make_ds(np.random.default_rng(1), n=2, m=2, mask=mask)
    sims = gr.pairwise_similarity(ds)
    assert sims.valid.tolist() == [False]


def test_quantile_threshold_nearest_rank():
    sims = np.array([0.1, 0.5, 0.9])
    beta = gr.quantile_threshold(sims, 2 / 3)
    assert beta == 0.5
    assert gr.quantile_threshold(sims, 0.0) == -np.inf
    assert gr.quantile_threshold(sims, 1 / 3) == 0.1


def test_build_graph_keeps_strictly_above_threshold():
    # three nodes, sims {0.9, 0.5, 0.1}; rate 2/3 -> beta 0.5, only the 0.9
    # edge survives; node 2 (isolated) reconnects to its best neighbor
    mods = [np.array([[1.0, 0.0], [1.0, 0.35], [0.0, 1.0]])]
    ds = dm.MultiomicsDataset(modalities=mods, labels=np.array([0, 0, 1]),
                              mask=np.ones((3, 1), dtype=int),
                              modality_names=["m"], class_count=2)
    sims = gr.pairwise_similarity(ds)
    g = gr.build_graph(ds, sims, sparsity_rate=2 / 3)
    kept = set(map(tuple, g.edges.tolist()))
    assert (0, 1) in kept
    assert any(g.reconnection)
    recon_edges = g.edges[g.reconnection]
    assert all(2 in e for e in recon_edges.tolist())
    # reconnection edges carry the true similarity, not the threshold
    values, _ = dense_similarity(sims)
    for (u, v), s, r in zip(g.edges, g.similarities, g.reconnection):
        assert s == pytest.approx(values[u, v])


def test_build_graph_rate_zero_keeps_all_valid_pairs():
    rng = np.random.default_rng(2)
    ds = make_ds(rng, n=8)
    sims = gr.pairwise_similarity(ds)
    g = gr.build_graph(ds, sims, sparsity_rate=0.0)
    assert len(g.edges) == int(sims.valid.sum())


def test_build_graph_invalid_rate():
    ds = make_ds(np.random.default_rng(3), n=4)
    sims = gr.pairwise_similarity(ds)
    with pytest.raises(gr.GraphError):
        gr.build_graph(ds, sims, sparsity_rate=1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 0.95))
def test_graph_invariants(seed, rate):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    ds = make_ds(rng, n=n, m=3, d=3)
    shared = ds.mask @ ds.mask.T
    np.fill_diagonal(shared, 0)
    assume(np.all(shared.sum(axis=1) > 0))  # everyone has a valid neighbor
    sims = gr.pairwise_similarity(ds)
    g = gr.build_graph(ds, sims, sparsity_rate=rate)
    # no self-loops, no duplicates (PatientGraph validates), u < v ordering
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    # every edge joins a valid (shared-modality) pair
    _, valid = dense_similarity(sims)
    assert all(valid[u, v] for u, v in g.edges)
    # no isolated nodes after reconnection
    assert np.all(g.degrees() >= 1)
    # each pair once, so the similarity is symmetric by construction
    assert len(sims.values) == len(sims.valid) == n * (n - 1) // 2


def test_directed_doubles_edges():
    g = gr.PatientGraph(n_nodes=3,
                        edges=np.array([[0, 1], [1, 2]]),
                        similarities=np.array([0.5, 0.9]),
                        reconnection=np.array([False, True]))
    src, dst, feat = g.directed()
    assert len(src) == 4
    assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0),
                                                       (1, 2), (2, 1)]
    assert np.allclose(sorted(feat), [0.5, 0.5, 0.9, 0.9])


def test_duplicate_edge_rejected():
    with pytest.raises(gr.GraphError):
        gr.PatientGraph(n_nodes=3, edges=np.array([[0, 1], [0, 1]]),
                        similarities=np.zeros(2),
                        reconnection=np.zeros(2, dtype=bool))


def edge_check_outcome(check, edges):
    try:
        check(edges)
    except gr.GraphError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 40), st.integers(-3, 40)),
                max_size=30),
       st.booleans(), st.integers(0, 2), st.integers(0, 2 ** 31 - 1))
def test_edge_check_matches_lexsort_oracle(pairs, ordered, repeats, seed):
    """Edge arrays in the builders' order (u < v, increasing) or shuffled,
    with repeated rows, self-loops or none at all: the key check accepts
    and rejects exactly what the lexsort check does."""
    rng = np.random.default_rng(seed)
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if ordered:
        edges = np.unique(np.sort(edges, axis=1), axis=0)
    if len(edges) and repeats:
        edges = np.insert(edges, rng.integers(0, len(edges) + 1, size=repeats),
                          edges[rng.integers(0, len(edges), size=repeats)],
                          axis=0)
    if not ordered:
        rng.shuffle(edges)

    def build(e):
        gr.PatientGraph(n_nodes=44, edges=e, similarities=np.zeros(len(e)),
                        reconnection=np.zeros(len(e), dtype=bool))

    assert (edge_check_outcome(build, edges)
            == edge_check_outcome(check_edges, edges))


def test_inductive_filter_removes_crossing_edges():
    tags = np.array(["train", "train", "test", "test"])
    g = gr.PatientGraph(n_nodes=4,
                        edges=np.array([[0, 1], [1, 2], [2, 3]]),
                        similarities=np.array([0.9, 0.8, 0.7]),
                        reconnection=np.zeros(3, dtype=bool))
    nodes = train_nodes(tags)
    got = gr.inductive_filter(g, all_valid(4), nodes)
    assert got.n_nodes == 2
    # the crossing edge (1, 2) and the test-side edge (2, 3) are gone
    kept = set(map(tuple, nodes[got.edges].tolist()))
    assert kept == {(0, 1)}


def test_inductive_filter_reconnects_within_train_side():
    # node 1 only connects across the boundary; after filtering it must be
    # reconnected to its best train-side neighbor (node 0)
    tags = np.array(["train", "train", "test"])
    sims = packed_similarity([[1.0, 0.4, 0.2],
                              [0.4, 1.0, 0.95],
                              [0.2, 0.95, 1.0]])
    g = gr.PatientGraph(n_nodes=3, edges=np.array([[1, 2]]),
                        similarities=np.array([0.95]),
                        reconnection=np.zeros(1, dtype=bool))
    nodes = train_nodes(tags)
    got = gr.inductive_filter(g, sims, nodes)
    assert got.n_nodes == 2
    assert set(map(tuple, nodes[got.edges].tolist())) == {(0, 1)}
    assert got.reconnection[0]
    assert got.similarities[0] == pytest.approx(0.4)


def test_inductive_filter_validation_on_train_side_by_default():
    # `train`'s default side holds train and validation nodes; the test
    # node between them is dropped and the others renumbered in order
    tags = np.array(["train", "test", "validation", "train"])
    g = gr.PatientGraph(n_nodes=4, edges=np.array([[0, 1], [0, 2], [1, 2],
                                                   [2, 3]]),
                        similarities=np.array([0.5, 0.6, 0.7, 0.8]),
                        reconnection=np.zeros(4, dtype=bool))
    sims = all_valid(4)
    nodes = train_nodes(tags)
    got = gr.inductive_filter(g, sims, nodes)
    assert nodes.tolist() == [0, 2, 3]
    assert got.edges.tolist() == [[0, 1], [1, 2]]
    assert got.similarities.tolist() == [0.6, 0.8]
    # strict side assignment: the train-validation edges now cross, so both
    # train nodes are isolated and reconnect to each other
    strict_nodes = train_nodes(tags, (dm.TRAIN,))
    strict = gr.inductive_filter(g, sims, strict_nodes)
    assert strict.n_nodes == 2
    assert set(map(tuple, strict_nodes[strict.edges].tolist())) == {(0, 3)}
    assert strict.reconnection.all()


def test_homophily_hand_example():
    labels = np.array([0, 0, 1, 1])
    g = gr.PatientGraph(n_nodes=4,
                        edges=np.array([[0, 1], [1, 2], [2, 3]]),
                        similarities=np.ones(3),
                        reconnection=np.zeros(3, dtype=bool))
    node_h, edge_h, baseline = gr.homophily(g, labels)
    assert edge_h == pytest.approx(2 / 3)
    # node fractions: 1, 1/2, 1/2, 1 -> mean 3/4
    assert node_h == pytest.approx(0.75)
    assert baseline == pytest.approx(0.5)


def test_homophily_on_cluster_data_beats_random():
    ds = dm.gen_clusters(n=200, clusters=5, dims=(20, 20, 20), seed=0)
    prepped = dm.preprocess(ds)
    sims = gr.pairwise_similarity(prepped)
    g = gr.build_graph(prepped, sims, sparsity_rate=0.8)
    node_h, edge_h, baseline = gr.homophily(g, ds.labels)
    assert edge_h >= 1.5 * baseline


def test_degree_stats_and_export(tmp_path):
    g = gr.PatientGraph(n_nodes=3, edges=np.array([[0, 1], [0, 2]]),
                        similarities=np.array([0.5, 0.25]),
                        reconnection=np.array([False, True]))
    stats = gr.degree_stats(g)
    assert stats["min"] == 1 and stats["max"] == 2
    assert stats["mean"] == pytest.approx(4 / 3)
    path = tmp_path / "edges.csv"
    cli._write_edges_csv(path, g)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "u,v,similarity,tag"
    assert lines[1] == "0,1,0.500000,shared"
    assert lines[2] == "0,2,0.250000,reconnection"


@pytest.mark.parametrize("fields", [dm.FIELDS_PER_WRITE, 8, 1])
def test_edge_export_bytes_match_per_edge_writer(tmp_path, monkeypatch,
                                                 fields):
    ds = dm.preprocess(dm.gen_clusters(n=80, clusters=3, dims=(6, 5, 4),
                                       seed=4))
    g = gr.build_graph(ds, gr.pairwise_similarity(ds), sparsity_rate=0.995)
    assert g.reconnection.any() and not g.reconnection.all()
    assert len(g.edges) % 2 != 0  # 8 fields are 2 edges: a short last block
    monkeypatch.setattr(dm, "FIELDS_PER_WRITE", fields)
    cli._write_edges_csv(tmp_path / "blocks.csv", g)
    export_edges_csv(g, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == \
        (tmp_path / "rows.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.0, 0.3, 0.8, 0.95, 0.99, 0.999]),
       st.floats(0.0, 0.9), st.booleans())
def test_build_and_filter_match_loop_oracles(seed, rate, mask_rate, rounded):
    """High rates force reconnections, heavy masks leave nodes without a valid
    neighbor, and rounded features tie similarities."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    m = int(rng.integers(1, 4))
    mods = [rng.normal(size=(n, 2)) for _ in range(m)]
    if rounded:
        mods = [np.round(x) for x in mods]
    mask = (rng.random((n, m)) >= mask_rate).astype(int)
    mask[mask.sum(axis=1) == 0, 0] = 1
    ds = dm.MultiomicsDataset(modalities=mods, labels=rng.integers(0, 3, size=n),
                              mask=mask, modality_names=[f"m{i}" for i in range(m)],
                              class_count=3)
    sims = gr.pairwise_similarity(ds)
    try:
        ref = brute_build_graph(ds, sims, rate)
    except gr.GraphError as exc:
        with pytest.raises(gr.GraphError, match=f"^{exc}$"):
            gr.build_graph(ds, sims, rate)
        return
    g = gr.build_graph(ds, sims, rate)
    assert_same_arrays(g, ref)
    tags = rng.choice(["train", "validation", "test"], size=n)
    for side in (("train", "validation"), ("train",)):
        nodes = train_nodes(tags, side)
        got = gr.inductive_filter(g, sims, nodes)
        assert got.n_nodes == len(nodes)
        assert_same_arrays(got, brute_inductive_filter(g, sims, nodes))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999]),
       st.floats(0.0, 0.8), st.booleans())
def test_tiled_setup_matches_dense_oracles(seed, rate, mask_rate, rounded):
    """With 7-row tiles, the similarity build, the edge read-out, the
    reconnection reads and P's fill all cross tile boundaries; high rates
    leave many isolated nodes, so the rows gathered for reconnection span
    several tiles."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    m = int(rng.integers(1, 4))
    mods = [rng.normal(size=(n, 3)) for _ in range(m)]
    if rounded:
        mods = [np.round(x) for x in mods]
    mask = (rng.random((n, m)) >= mask_rate).astype(int)
    mask[mask.sum(axis=1) == 0, 0] = 1
    ds = dm.MultiomicsDataset(modalities=mods, labels=rng.integers(0, 3, size=n),
                              mask=mask, modality_names=[f"m{i}" for i in range(m)],
                              class_count=3)
    nodes = train_nodes(rng.choice(["train", "validation", "test"], size=n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gr, "SIM_TILE", 7)
        sims = gr.pairwise_similarity(ds)
        values, valid = dense_similarity(sims)
        ref_values, ref_valid = outer_mask_similarity(ds)
        assert np.array_equal(valid, ref_valid)
        assert np.max(np.abs(values - ref_values)) <= 1e-12

        try:
            ref = brute_build_graph(ds, sims, rate)
        except gr.GraphError as exc:
            with pytest.raises(gr.GraphError, match=f"^{exc}$"):
                gr.build_graph(ds, sims, rate)
            return
        g = gr.build_graph(ds, sims, rate)
        assert_same_arrays(g, ref)
        got = gr.inductive_filter(g, sims, nodes)
        assert_same_arrays(got, brute_inductive_filter(g, sims, nodes))

        pair = valid[np.ix_(nodes, nodes)]
        np.fill_diagonal(pair, False)
        if not pair.any():
            return
        target = ob.build_P(sims, nodes)
    aff = np.where(pair, (1.0 + values[np.ix_(nodes, nodes)]) / 2.0, 0.0)
    ref_p = aff / aff.sum() if aff.sum() > 0 else pair / pair.sum()
    assert np.max(np.abs(target.p - ref_p)) <= 1e-12
    assert np.array_equal(target.weights, pair.astype(float))


def test_similarity_and_graph_memory_is_bounded():
    # the patients2000 benchmark data at N = 2000: the packed triangle is
    # N^2 / 2 floats, and the build and the edge read-out work in tiles
    n = 2000
    ds = dm.apply_scenario(dm.gen_clusters(n=n, clusters=5, modalities=3,
                                           seed=1),
                           dm.ScenarioSpec(kind="random_mask", ratio=0.4,
                                           seed=1))
    prepped, _ = dm.split_and_preprocess(ds, 1)
    tracemalloc.start()
    try:
        g = gr.build_graph(prepped, gr.pairwise_similarity(prepped), 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges) > 0
    assert peak < 1.5 * n * n * 8


def test_reconnection_tie_goes_to_lowest_index():
    # after filtering, nodes 0 and 3 are isolated; node 0 ties between nodes
    # 2 and 3 (node 1 is invalid for it), node 3 picks node 0
    values = np.array([[1.0, 0.9, 0.5, 0.5, 0.9],
                       [0.9, 1.0, 0.9, 0.1, 0.1],
                       [0.5, 0.9, 1.0, 0.1, 0.1],
                       [0.5, 0.1, 0.1, 1.0, 0.1],
                       [0.9, 0.1, 0.1, 0.1, 1.0]])
    valid = np.ones((5, 5), dtype=bool)
    valid[0, 1] = valid[1, 0] = False
    sims = packed_similarity(values, valid)
    g = gr.PatientGraph(n_nodes=5, edges=np.array([[1, 2], [0, 4]]),
                        similarities=np.array([0.9, 0.9]),
                        reconnection=np.zeros(2, dtype=bool))
    got = gr.inductive_filter(g, sims, train_nodes(["train"] * 4 + ["test"]))
    assert got.edges.tolist() == [[1, 2], [0, 2], [0, 3]]
    assert got.reconnection.tolist() == [False, True, True]
    assert got.similarities.tolist() == [0.9, 0.5, 0.5]


def brute_node_homophily(g, labels):
    fracs = []
    for u in range(g.n_nodes):
        nbrs = [b for a, b in g.edges if a == u] + [a for a, b in g.edges if b == u]
        if nbrs:
            fracs.append(float(np.mean(labels[nbrs] == labels[u])))
    return float(np.mean(fracs)) if fracs else 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_homophily_matches_neighbor_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    iu, iv = np.triu_indices(n, k=1)
    pick = rng.random(len(iu)) < rng.random()
    edges = np.stack([iu[pick], iv[pick]], axis=1)
    g = gr.PatientGraph(n_nodes=n, edges=edges, similarities=np.ones(len(edges)),
                        reconnection=np.zeros(len(edges), dtype=bool))
    labels = rng.integers(0, 3, size=n)
    node_h, _, _ = gr.homophily(g, labels)
    assert node_h == brute_node_homophily(g, labels)


def test_self_loop_rejected():
    with pytest.raises(gr.GraphError, match="self-loop"):
        gr.PatientGraph(n_nodes=3, edges=np.array([[0, 1], [2, 2]]),
                        similarities=np.zeros(2),
                        reconnection=np.zeros(2, dtype=bool))
