"""Workload definitions: each builds its dataset and run config from a seed.

The program under test receives only the generated dataset and config; the
seed drives the data generator, the missingness mask, the split and the
model initialisation, so the same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from magnetkit import datamodel as dm
from magnetkit import trainer as tr

# Criterion-7 config (tests/test_acceptance.py::CLUSTER_CONFIG).
CLUSTER_CONFIG = dict(embed_dim=32, heads=2, encoder_hidden=64, gnn_layers=2,
                      sparsity_rate=0.9, dropout=0.1, lam=0.1,
                      learning_rate=3e-3, epochs=100)

# Criterion-8 config (tests/test_acceptance.py::test_criterion_08).
SCALABILITY_CONFIG = dict(embed_dim=32, heads=2, encoder_hidden=64,
                          gnn_layers=2, sparsity_rate=0.9, dropout=0.0,
                          lam=0.1, learning_rate=1e-3, epochs=30,
                          precision="f32")


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str       # "clusters" | "scalability"
    gen_kwargs: dict
    mask_ratio: float    # random_mask ratio; 0 keeps every modality
    config: dict
    f1_floor: float      # test macro-F1 below this counts as a failed run

    def dataset(self, seed):
        if self.generator == "clusters":
            ds = dm.gen_clusters(seed=seed, **self.gen_kwargs)
        else:
            ds = dm.gen_scalability(seed=seed, **self.gen_kwargs)
        if self.mask_ratio > 0:
            spec = dm.ScenarioSpec(kind="random_mask", ratio=self.mask_ratio,
                                   seed=seed)
            ds = dm.apply_scenario(ds, spec)
        return ds

    def run_config(self, seed):
        return tr.RunConfig(seed=seed, **self.config)


FULL = {
    # Criterion-7 headline run. The epoch loop (SAGE edge path over ~8k
    # train edges, the KL term, the tape backward) dominates.
    "cluster500": Workload(
        name="cluster500", generator="clusters",
        gen_kwargs=dict(n=500, clusters=15, modalities=3),
        mask_ratio=0.0, config=CLUSTER_CONFIG, f1_floor=0.6),
    # Criterion-8 top point and the only f32 path: encoders, the K*M head
    # ops of fuse_multi_head and Adam over ~660k parameters carry their
    # largest share; SAGE its smallest.
    "modality10_f32": Workload(
        name="modality10_f32", generator="scalability",
        gen_kwargs=dict(n=500, modalities=10, features_per_modality=1000),
        mask_ratio=0.5, config=SCALABILITY_CONFIG, f1_floor=0.9),
    # Patient-count point: graph building, the N^2 similarity and KL work
    # and evaluation dominate. 5 classes keep F1 well above chance within
    # the few epochs a run affords (15 classes reach ~0.16 in 20 epochs).
    "patients2000": Workload(
        name="patients2000", generator="clusters",
        gen_kwargs=dict(n=2000, clusters=5, modalities=3),
        mask_ratio=0.4, config={**CLUSTER_CONFIG, "epochs": 20},
        f1_floor=0.5),
}

# Same code paths at toy sizes, for the self-tests. The F1 floor is off:
# a few epochs on a few dozen patients do not learn the task.
TINY = {
    "cluster500": Workload(
        name="cluster500", generator="clusters",
        gen_kwargs=dict(n=60, clusters=3, modalities=3, dims=(12, 10, 8)),
        mask_ratio=0.0, config={**CLUSTER_CONFIG, "epochs": 3}, f1_floor=0.0),
    "modality10_f32": Workload(
        name="modality10_f32",
        generator="scalability",
        gen_kwargs=dict(n=60, modalities=10, features_per_modality=20),
        mask_ratio=0.5, config={**SCALABILITY_CONFIG, "epochs": 3},
        f1_floor=0.0),
    "patients2000": Workload(
        name="patients2000",
        generator="clusters",
        gen_kwargs=dict(n=80, clusters=3, modalities=3, dims=(12, 10, 8)),
        mask_ratio=0.4, config={**CLUSTER_CONFIG, "epochs": 2}, f1_floor=0.0),
}

SIZES = {"full": FULL, "tiny": TINY}
