"""The benchmark's tracing hooks still fit the package: `perfbench/tracing.py`
wraps the layer functions, the tape's backward and `trainer.adam_step` by
name, and counts tape nodes through `numerics.Tensor`."""

import sys
from pathlib import Path

import numpy as np

from magnetkit import datamodel as dm
from magnetkit import trainer as tr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402

# Tape nodes of one epoch at M = 3, L = 2 with the KL term: encoder,
# attention, two SAGE layers, decoder, cross-entropy, the KL's row gather,
# the KL and the weighted sum of the two losses.
FUSED_TAPE_NODES = 9


def test_traced_training_matches_untraced_and_times_every_layer():
    ds = dm.gen_clusters(n=40, clusters=3, dims=(6, 5, 4), seed=3)
    assignment = dm.split(ds, seed=3)
    prepped = dm.preprocess(ds, split=assignment)
    cfg = tr.RunConfig(seed=3, embed_dim=8, heads=2, encoder_hidden=8,
                       gnn_layers=2, sparsity_rate=0.5, dropout=0.1, lam=0.1,
                       learning_rate=3e-3, epochs=4)
    _, plain = tr.train(prepped, cfg, assignment)
    results = sorted((PERFBENCH / "results").glob("*"))

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, traced = tr.train(prepped, cfg, assignment)
    assert traced.loss_log == plain.loss_log

    m = tracer.summary(0, traced.train_seconds)
    for name in tracing.LAYER_NAMES:
        assert m[f"{name}.fwd_s"] > 0 and m[f"{name}.bwd_s"] > 0, name
    adam_calls = [s for s in tracer.spans if s.name == "trainer.adam_step"]
    assert len(adam_calls) == cfg.epochs
    assert m["numerics.tape_nodes"] <= FUSED_TAPE_NODES
    assert m["fusion.fuse_multi_head.tape_nodes"] == 1
    assert np.isfinite(m["trainer.loop.remainder_s"])
    assert sorted((PERFBENCH / "results").glob("*")) == results
