"""End-to-end training loop, Adam with step decay, inductive evaluation
protocol, and the ablation / sweep / benchmark harnesses, which all train
and score one split through the same step."""

from __future__ import annotations

import dataclasses
import functools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import datamodel as dm
from . import evalkit
from . import fusion as fu
from . import gnn
from . import graph as pg
from . import objective as obj


class ConfigError(ValueError):
    pass


class DivergenceError(RuntimeError):
    pass


# Accepted JSON value types per RunConfig annotation; bool is an int
# subclass, so it passes only where listed.
_FIELD_TYPES = {"int": (int,), "int | None": (int, type(None)),
                "float": (int, float), "str": (str,), "bool": (bool,)}


@dataclass
class RunConfig:
    seed: int
    embed_dim: int = 128
    heads: int = 2
    encoder_hidden: int | None = None
    gnn_layers: int = 2
    sparsity_rate: float = 0.6
    dropout: float = 0.1
    lam: float = 0.1
    learning_rate: float = 3.2e-4
    epochs: int = 200
    lr_decay: float = 0.8
    decay_every: int = 20
    precision: str = "f64"  # f64 | f32
    no_pmmha: bool = False
    no_edge_feature: bool = False

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        if self.precision not in ("f64", "f32"):
            raise ConfigError("precision must be f64 or f32")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if not (0.0 <= self.sparsity_rate < 1.0):
            raise ConfigError("sparsity_rate must be in [0, 1)")
        hidden = 1 if self.encoder_hidden is None else self.encoder_hidden
        if min(self.embed_dim, hidden, self.heads, self.decay_every) < 1:
            raise ConfigError("embed_dim, encoder_hidden, heads and "
                              "decay_every must be positive")
        if self.gnn_layers < 0 or self.epochs < 0:
            raise ConfigError("gnn_layers and epochs must be nonnegative")
        if not self.no_pmmha and self.embed_dim % self.heads != 0:
            raise ConfigError("head count must divide embedding dimension")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object, not {type(d).__name__}")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in d.items():
            allowed = _FIELD_TYPES[types[name]]
            if not isinstance(value, allowed) or (isinstance(value, bool)
                                                  and bool not in allowed):
                raise ConfigError(f"config field {name!r} must be "
                                  f"{types[name]}, not {type(value).__name__}")
        return cls(**d)


def learning_rate_at(config, epoch):
    return config.learning_rate * config.lr_decay ** (epoch // config.decay_every)


# Elements per step of Adam's walk over the flat arrays (cache-sized).
ADAM_CHUNK = 1 << 15


@dataclass
class AdamState:
    """First/second moments of the flat parameter array with the
    optimizer's conventional constants (beta1 0.9, beta2 0.999, eps 1e-8)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, flat):
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat))


def adam_step(graph, state, lr):
    """Standard bias-corrected Adam update of ``graph``'s flat parameter
    array from its flat gradient, written in place, ``ADAM_CHUNK`` elements
    at a time."""
    grad = graph.grad
    if not np.isfinite(grad).all():
        bad = next(name for name, p in graph.params.items()
                   if not np.all(np.isfinite(p.grad_out)))
        raise DivergenceError(f"non-finite gradient for {bad!r}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    buf = np.empty((2, min(ADAM_CHUNK, grad.size)), dtype=grad.dtype)
    for lo in range(0, grad.size, ADAM_CHUNK):
        part = slice(lo, lo + ADAM_CHUNK)
        g, m, v = grad[part], state.m[part], state.v[part]
        step, denom = buf[:, :g.size]
        m *= b1
        np.multiply(g, 1 - b1, out=step)
        m += step
        v *= b2
        np.multiply(g, g, out=denom)
        denom *= 1 - b2
        v += denom
        np.divide(m, 1 - b1 ** t, out=step)
        step *= lr
        np.divide(v, 1 - b2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        graph.flat[part] -= step


class LabelGuard:
    """Label access instrumentation: a read outside the allowed index set is
    counted as a violation and raises."""

    def __init__(self, labels, allowed):
        self._labels = np.asarray(labels)
        self._allowed = np.asarray(allowed, dtype=np.int64).ravel()
        self.reads = 0
        self.violations = 0

    def take(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        self.reads += len(idx)
        bad = idx[~np.isin(idx, self._allowed)]
        if len(bad):
            self.violations += len(bad)
            raise RuntimeError(
                f"read of out-of-split label index {bad[:3].tolist()}")
        return self._labels[idx]


@dataclass
class TrainReport:
    loss_log: list = field(default_factory=list)  # (epoch, ce, kl, total, lr)
    train_seconds: float = 0.0
    config: dict = field(default_factory=dict)
    train_label_reads: int = 0
    label_violations: int = 0
    crossing_edges_in_train_view: int = 0


@dataclass(frozen=True)
class EvalInputs:
    """What evaluating on one dataset reads besides the weights: the
    dataset, its full-mode graph, that graph's GraphView in the run dtype
    and its ObservedRows. A dataset is never written after it is
    made, so one record serves every evaluation on it."""

    dataset: dm.MultiomicsDataset
    graph: pg.PatientGraph
    view: gnn.GraphView
    rows: fu.ObservedRows


@dataclass
class TrainedModel:
    params: gnn.ModelParams
    config: RunConfig
    feature_dims: list
    n_classes: int
    # the training dataset's EvalInputs from ``train``; None for a model
    # loaded from a params file
    eval_inputs: EvalInputs | None = None

    @property
    def values(self):
        """The trained weights by parameter name (the model's own arrays)."""
        return self.params.graph.values()


def train(ds, config, split_assignment, train_side=(dm.TRAIN, dm.VAL)):
    """Full training per the inductive protocol; it scores no split.

    The graph is built once. The epoch loop reads ``train_side`` alone:
    its induced subgraph and its rows of the encoder inputs. The model keeps
    the full graph, its view and the encoder inputs as the dataset's
    EvalInputs for ``evaluate``. The input-space pair distribution P is
    fixed; Q is recomputed from the current fused embeddings each epoch.
    """
    dtype = config.dtype
    rng = np.random.default_rng(config.seed)

    train_idx = split_assignment.indices(*train_side)
    sims = pg.pairwise_similarity(ds)
    g = pg.build_graph(ds, sims, config.sparsity_rate)
    g_train = pg.inductive_filter(g, sims, train_idx)
    view = _view(g_train, config)

    guard = LabelGuard(ds.labels, allowed=train_idx)
    y_train = guard.take(train_idx)

    target = obj.build_P(sims, train_idx, dtype) if config.lam > 0 else None
    del sims  # N x N; the training view and P hold what they need of it

    params = gnn.init_model([x.shape[1] for x in ds.modalities], ds.class_count,
                            config, rng)
    inputs = fu.ObservedRows.of(ds.modalities, ds.mask, dtype)
    train_inputs = inputs.take(train_idx)
    adam = AdamState.for_params(params.graph.flat)

    report = TrainReport(config=config.to_dict())
    on_side = np.isin(split_assignment.tags, train_side)
    report.crossing_edges_in_train_view = int(  # edge ends mapped back
        (~on_side[train_idx[g_train.edges]]).any(axis=1).sum())

    started = time.perf_counter()
    # an epoch's tape is freed once the next one is built, so that the
    # allocator hands its pages to the next epoch instead of returning them
    # to the system (freeing it first cost ~1200 page faults per epoch on
    # cluster500)
    tape = None
    for epoch in range(config.epochs):
        row, tape = _epoch(params, adam, train_inputs, view, y_train, target,
                           config, epoch, rng)
        report.loss_log.append(row)
    report.train_seconds = time.perf_counter() - started
    del tape, target  # and P and W, so the full view below reuses their pages
    report.train_label_reads = guard.reads
    report.label_violations = guard.violations

    trained = TrainedModel(params=params, config=config,
                           feature_dims=[x.shape[1] for x in ds.modalities],
                           n_classes=ds.class_count,
                           eval_inputs=EvalInputs(ds, g, _view(g, config),
                                                  inputs))
    return trained, report


def _epoch(params, adam, inputs, view, y, target, config, epoch, rng):
    """One epoch on the training side: the forward pass, CE plus lambda KL,
    the backward and the Adam step. Returns its loss-log row and its loss
    tensor, which holds the epoch's tape."""
    lr = learning_rate_at(config, epoch)
    logits, _, z_fused, _ = gnn.forward(params, inputs, view, config, rng=rng,
                                        training=True)
    ce = obj.ce_loss(logits, y)
    kl = obj.kl_alignment_loss(z_fused, target) if config.lam > 0 else None
    total = obj.total_loss(ce, kl, config.lam)
    kl_val = 0.0 if kl is None else float(kl.data)
    total_val = float(total.data)
    if not np.isfinite(total_val):
        raise DivergenceError(f"non-finite loss at epoch {epoch}")
    params.graph.backward(total)
    adam_step(params.graph, adam, lr)
    return (epoch, float(ce.data), kl_val, total_val, lr), total


def _view(g, config):
    """The GraphView of ``g`` in the run dtype, with edge features unless
    the config turns them off."""
    return gnn.GraphView.from_graph(g, edge_features_on=not config.no_edge_feature,
                                    dtype=config.dtype)


def _eval_inputs(ds, config):
    """The EvalInputs of a dataset ``train`` did not keep: its similarity,
    full graph, view and ObservedRows, built from scratch."""
    g = pg.build_graph(ds, pg.pairwise_similarity(ds), config.sparsity_rate)
    return EvalInputs(ds, g, _view(g, config),
                      fu.ObservedRows.of(ds.modalities, ds.mask, config.dtype))


def evaluate(trained, ds, split_assignment, split_name):
    """Metrics on one split using the full-mode graph (crossing edges restored)
    so held-out nodes receive neighborhood messages; the train split is the
    training and validation rows. Dropout disabled. The graph and the encoder
    inputs depend on the data alone, so the EvalInputs ``train`` kept are
    reused when ``ds`` is the dataset object it trained on; any other dataset
    gets its own."""
    config = trained.config
    names = {dm.TRAIN: (dm.TRAIN, dm.VAL), dm.VAL: (dm.VAL,),
             dm.TEST: (dm.TEST,)}
    if split_name not in names:
        raise ConfigError(f"unknown split {split_name!r}")
    idx = split_assignment.indices(*names[split_name])
    if len(idx) == 0:
        raise ConfigError(f"split {split_name!r} is empty")

    kept = trained.eval_inputs
    if kept is None or kept.dataset is not ds:
        kept = _eval_inputs(ds, config)
    logits, att, _, z_final = gnn.forward(trained.params, kept.rows, kept.view,
                                          config, training=False)
    lg = logits.data[idx]
    shifted = lg - lg.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    preds = np.argmax(lg, axis=1)
    y = ds.labels[idx]
    metrics = evalkit.full_bundle(y, preds, probs, z_final.data[idx],
                                  ds.class_count)
    return {"metrics": metrics, "attention": att,
            "embeddings": z_final.data, "logits": logits.data,
            "graph": kept.graph, "indices": idx}


# ---------------------------------------------------------------------------
# harnesses


ABLATIONS = {
    "full": {},
    "A1": {"no_pmmha": True},
    "A2": {"gnn_layers": 0},
    "A3": {"no_edge_feature": True},
    "A4": {"lam": 0.0},
}


def _fit_and_score(ds, config, split_assignment, split_name,
                   train_side=(dm.TRAIN, dm.VAL)):
    """Train on ``train_side`` and score ``split_name``; returns the model,
    its report and the split's metrics."""
    trained, report = train(ds, config, split_assignment, train_side)
    return trained, report, evaluate(trained, ds, split_assignment,
                                     split_name)["metrics"]


def _row(head, metrics):
    """A sweep row: the point's ``head`` columns, then its defined metrics."""
    return {**head, **{k: v for k, v in metrics.items() if v is not None}}


def run_ablation(ds, config, split_assignment):
    """Train the full model and the four component-removal variants under the
    same seed and split; returns per-variant metrics and loss logs."""
    results = {}
    for name, overrides in ABLATIONS.items():
        trained, report, test = _fit_and_score(
            ds, replace(config, **overrides), split_assignment, dm.TEST)
        results[name] = {
            "test_metrics": test,
            "final_loss": report.loss_log[-1][3] if report.loss_log else None,
            "loss_log": report.loss_log,
            "param_count": sum(v.size for v in trained.values.values()),
        }
    return results


def run_scenario_point(base_ds, kind, level, rep, config, intact_modality=0):
    """One missingness-curve row (level, repeat, test metric columns): the
    seed ``config.seed + 1000 * rep`` masks the data, splits it and seeds
    the training run."""
    seed = int(config.seed + 1000 * rep)
    spec = dm.ScenarioSpec(kind=kind, intact_modality=intact_modality,
                           ratio=float(level), seed=seed)
    prepped, assignment = dm.split_and_preprocess(
        dm.apply_scenario(base_ds, spec), seed)
    *_, m = _fit_and_score(prepped, replace(config, seed=seed), assignment,
                           dm.TEST)
    return _row({"level": float(level), "repeat": rep}, m)


def run_scenario_sweep(base_ds, kind, levels, repeats, config,
                       intact_modality=0, jobs=1):
    """Missingness curve: ``run_scenario_point`` per level and repeat, in
    (level, repeat) order, run in this process or, for ``jobs`` > 1, in a
    pool of that many worker processes. Every level is checked before the
    first point trains."""
    for level in levels:
        dm.ScenarioSpec(kind=kind, intact_modality=intact_modality,
                        ratio=float(level))
    point = functools.partial(run_scenario_point, base_ds, kind, config=config,
                              intact_modality=intact_modality)
    grid = ([level for level in levels for _ in range(repeats)],
            [rep for _ in levels for rep in range(repeats)])
    if jobs == 1:
        return list(map(point, *grid))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(point, *grid))


def summarize_sweep(rows):
    """Mean, standard deviation and count of the test macro-F1 per level."""
    levels = sorted({r["level"] for r in rows})
    out = []
    for level in levels:
        vals = [r["macro_f1"] for r in rows
                if r["level"] == level and "macro_f1" in r]
        out.append({"level": level, "mean": float(np.mean(vals)),
                    "sd": float(np.std(vals)), "n": len(vals)})
    return out


def run_scalability_bench(config, m_values=dm.SCALABILITY_MODALITIES,
                          mask_p=0.5, repeats=5, n=500,
                          features_per_modality=1000):
    """Wall-clock training time per modality count, plus a linear fit.

    Each repeat sweeps every modality count, so a slow phase of the machine
    spreads over all of them instead of bending the line at a few
    neighbouring counts. A short untimed run on the first case comes first,
    so the cold start (BLAS thread start-up, first-touch allocations) is not
    charged to it. Rows come back in (modality count, repeat) order.
    """
    m_values = list(m_values)
    if repeats < 1 or len(set(m_values)) < 2:
        raise ConfigError("a fit needs repeats and two modality counts")
    for m in m_values:  # before the first training run
        dm.check_scalability_modalities(m)
    timed = {}
    for rep in range(repeats):
        for i, m in enumerate(m_values):
            seed = int(config.seed + 1000 * rep + m)
            ds = dm.gen_scalability(n=n, modalities=int(m),
                                    features_per_modality=features_per_modality,
                                    seed=seed)
            spec = dm.ScenarioSpec(kind="random_mask", ratio=mask_p, seed=seed)
            prepped, assignment = dm.split_and_preprocess(
                dm.apply_scenario(ds, spec), seed)
            cfg = replace(config, seed=seed)
            if not timed:
                train(prepped, replace(cfg, epochs=min(cfg.epochs, 2)), assignment)
            _, report = train(prepped, cfg, assignment)
            timed[i, rep] = {"M": int(m), "repeat": rep,
                             "seconds": report.train_seconds}
    rows = [timed[key] for key in sorted(timed)]
    fit = linear_fit([r["M"] for r in rows], [r["seconds"] for r in rows])
    return rows, fit


def linear_fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def run_validation_sweep(ds, config, split_assignment, field, values):
    """Rows (``field``, validation metric columns) per value of a RunConfig
    field, trained on the training set only so the validation set stays
    held out; a ``sparsity_rate`` point rebuilds the graph."""
    rows = []
    for value in values:
        *_, m = _fit_and_score(ds, replace(config, **{field: float(value)}),
                               split_assignment, dm.VAL, (dm.TRAIN,))
        rows.append(_row({field: float(value)}, m))
    return rows
