"""Span tracing of the magnetkit pipeline, installed from outside the package.

``installed(tracer)`` replaces the public functions of the ``datamodel``,
``graph``, ``gnn``, ``fusion``, ``objective``, ``numerics``, ``trainer`` and
``evalkit`` modules with timing wrappers, and swaps ``numerics.Tensor`` for
a subclass that counts tape nodes and wraps the backward closure of every
node a layer creates, so backward time is charged to that layer. Leaving
the context restores the originals. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

from magnetkit import datamodel, evalkit, fusion, gnn, graph, numerics
from magnetkit import objective, trainer

# Functions timed as plain spans; `.s` is their inclusive wall time.
TIMED = [
    (datamodel, "split"), (datamodel, "preprocess"),
    (graph, "pairwise_similarity"), (graph, "build_graph"),
    (graph, "inductive_filter"), (objective, "build_P"),
    (trainer, "train"), (trainer, "evaluate"), (trainer, "adam_step"),
    (evalkit, "full_bundle"), (gnn, "forward"),
]
# Tensor-producing layers: forward self time in the epoch loop, plus the
# time spent in the backward closures of the tape nodes they create.
LAYERS = [
    (fusion, "encode"), (fusion, "fuse_multi_head"), (gnn, "sage_layer"),
    (gnn, "decode"), (objective, "ce_loss"), (objective, "kl_alignment_loss"),
]
FROM_GRAPH = "gnn.GraphView.from_graph"
BACKWARD = "numerics.backward"


def span_name(module, attr):
    return f"{module.__name__.rpartition('.')[2]}.{attr}"


LAYER_NAMES = [span_name(m, a) for m, a in LAYERS]


class Span:
    __slots__ = ("name", "start", "end", "parent", "repeat", "nodes", "nbytes",
                 "info")

    def to_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "repeat": self.repeat,
                "nodes": self.nodes, "bytes": self.nbytes, **self.info}


class Tracer:
    """In-memory span recorder. ``repeat`` tags every span opened while it
    is set, so one tracer can hold several pipeline repeats."""

    def __init__(self):
        self.spans = []
        self.repeat = 0
        self.nodes = 0         # non-leaf tensors created so far
        self.nbytes = 0        # bytes of their data arrays
        self.bwd = {}          # (repeat, layer) -> seconds in backward closures
        self.dtypes = {}       # layer -> set of output dtype names
        self._stack = []       # indices of open spans
        self._layers = []      # names of open layer spans
        self._tape_mark = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, layer=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if layer:
                tracer._layers.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                if layer:
                    tracer._layers.pop()
                tracer._close(span)
            tracer._note(span, out)
            return out

        return wrapper

    def _open(self, name):
        span = Span()
        span.name = name
        span.parent = self._stack[-1] if self._stack else -1
        span.repeat = self.repeat
        span.nodes = self.nodes
        span.nbytes = self.nbytes
        span.info = {}
        if name == BACKWARD:
            span.info["tape_nodes"] = self.nodes - self._tape_mark
            self._tape_mark = self.nodes
        elif name == "trainer.train":
            self._tape_mark = self.nodes
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        span.nodes = self.nodes - span.nodes
        span.nbytes = self.nbytes - span.nbytes

    def _note(self, span, out):
        """Record what a call produced: graph sizes, layer output dtypes."""
        if span.name in ("graph.build_graph", "graph.inductive_filter"):
            span.info["edges"] = len(out.edges)
            span.info["reconnected"] = int(out.reconnection.sum())
        elif span.name in LAYER_NAMES:
            # encode returns a list of tensors, fuse_multi_head (atts, z)
            t = out[-1] if isinstance(out, (list, tuple)) else out
            span.info["dtype"] = str(t.data.dtype)
            self.dtypes.setdefault(span.name, set()).add(span.info["dtype"])

    def timed_backward(self, fn, layer):
        key = (self.repeat, layer)
        bwd = self.bwd

        def timed(g):
            t0 = time.perf_counter()
            fn(g)
            bwd[key] = bwd.get(key, 0.0) + time.perf_counter() - t0

        return timed

    # -- aggregation -------------------------------------------------------

    def summary(self, repeat, loop_s):
        """Per-layer metrics of one traced pipeline repeat.

        ``loop_s`` is the epoch-loop time the trainer reported; the part of
        it no layer span, backward or Adam accounts for is the remainder.
        """
        idx = [i for i, s in enumerate(self.spans) if s.repeat == repeat]
        child = {i: 0.0 for i in idx}
        in_eval = {}
        for i in idx:
            s = self.spans[i]
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
            in_eval[i] = s.name == "trainer.evaluate" or (
                s.parent >= 0 and in_eval.get(s.parent, False))

        def spans(name, phase=None):
            return [(i, self.spans[i]) for i in idx
                    if self.spans[i].name == name
                    and (phase is None or in_eval[i] == (phase == "eval"))]

        def total(name):
            return sum(s.end - s.start for _, s in spans(name))

        m = {}
        for name in ["datamodel.split", "datamodel.preprocess",
                     "graph.pairwise_similarity", "graph.build_graph",
                     "graph.inductive_filter", FROM_GRAPH, "objective.build_P",
                     "trainer.adam_step", BACKWARD, "trainer.evaluate",
                     "evalkit.full_bundle"]:
            m[f"{name}.s"] = total(name)
        for name in ["graph.pairwise_similarity", "graph.build_graph",
                     "trainer.evaluate"]:
            m[f"{name}.calls"] = len(spans(name))
        full = spans("graph.build_graph")[0][1].info
        m["graph.edges"] = full["edges"]
        m["graph.reconnected"] = full["reconnected"]
        m["graph.edges_train"] = spans("graph.inductive_filter")[0][1].info["edges"]

        backward = spans(BACKWARD)
        epochs = len(backward)
        bwd_tagged = 0.0
        fwd_tagged = 0.0
        for name in LAYER_NAMES:
            train_calls = spans(name, phase="train")
            fwd = sum(s.end - s.start - child[i] for i, s in train_calls)
            bwd = self.bwd.get((repeat, name), 0.0)
            m[f"{name}.fwd_s"] = fwd
            m[f"{name}.bwd_s"] = bwd
            fwd_tagged += fwd
            bwd_tagged += bwd
            if name == "gnn.sage_layer":
                m[f"{name}.bytes"] = sum(s.nbytes for _, s in train_calls) / epochs
            elif name == "fusion.fuse_multi_head":
                m[f"{name}.tape_nodes"] = (sum(s.nodes for _, s in train_calls)
                                           / len(train_calls))
        m["numerics.backward.untagged_s"] = m[f"{BACKWARD}.s"] - bwd_tagged
        m["numerics.tape_nodes"] = statistics.median(
            s.info["tape_nodes"] for _, s in backward)
        m["numerics.f64_outputs"] = sum(
            "float64" in d for d in self.dtypes.values())
        m["trainer.loop.s"] = loop_s
        m["trainer.loop.remainder_s"] = loop_s - (
            fwd_tagged + m[f"{BACKWARD}.s"] + m["trainer.adam_step.s"])
        return m

    def write(self, path, header):
        """Write the header, every span and the per-layer backward totals as
        JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header,
                                 "dtypes": {k: sorted(v) for k, v in
                                            self.dtypes.items()}}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
            for (repeat, layer), secs in sorted(self.bwd.items()):
                fh.write(json.dumps({"name": f"{layer}.bwd", "repeat": repeat,
                                     "seconds": secs}) + "\n")


def _tensor_class(tracer):
    base = numerics.Tensor

    class TracedTensor(base):
        __slots__ = ()

        def __init__(self, data, requires_grad=False, parents=(),
                     backward=None, op="leaf", checked=False):
            base.__init__(self, data, requires_grad, parents, backward, op,
                          checked)
            if parents:
                tracer.nodes += 1
                tracer.nbytes += self.data.nbytes
                if backward is not None and tracer._layers:
                    self._backward = tracer.timed_backward(
                        backward, tracer._layers[-1])

    return TracedTensor


@contextmanager
def installed(tracer):
    """Patch the package's public functions with ``tracer``'s wrappers for
    the duration of the block."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for mod, attr in TIMED:
            patch(mod, attr, tracer.wrap(span_name(mod, attr),
                                         getattr(mod, attr)))
        for mod, attr in LAYERS:
            patch(mod, attr, tracer.wrap(span_name(mod, attr),
                                         getattr(mod, attr), layer=True))
        patch(gnn.GraphView, "from_graph", classmethod(tracer.wrap(
            FROM_GRAPH, gnn.GraphView.from_graph.__func__)))
        patch(numerics.ComputeGraph, "backward", tracer.wrap(
            BACKWARD, numerics.ComputeGraph.backward))
        patch(numerics, "Tensor", _tensor_class(tracer))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
