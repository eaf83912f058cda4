#!/usr/bin/env python3
"""Phase-timed benchmark of the magnetkit training pipeline.

    python3 perfbench/run.py --workload cluster500 --seed 1 --seconds 30 --trace 0

A run generates its workload from ``--seed``, runs one untimed warm-up
pipeline of ``WARMUP_EPOCHS`` epochs and then timed repeats of ``split -> preprocess -> train ->
evaluate(test)`` until ``--seconds`` are spent: a closed loop with one
client in one process, BLAS pinned to ``BLAS_THREADS``. Every pipeline's
outputs are checked. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repeats, reports the per-layer
metrics and writes the spans to ``perfbench/results/``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

BLAS_THREADS = 1
MIN_REPEATS = 2
WARMUP_EPOCHS = 2
# Test evaluations per untraced pipeline; eval_s is the median over all of a
# run's, because a single evaluation is short against the machine's noise.
EVAL_REPEATS = 3
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["cluster500", "modality10_f32", "patients2000"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny runs the same paths at toy sizes (self-tests)")
    return p.parse_args(argv)


def fingerprint():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


@contextmanager
def epoch_clock():
    """Read the clock once per epoch, right after the trainer's Adam step."""
    from magnetkit import trainer as tr

    ends = []
    step = tr.adam_step

    def clocked(*args, **kwargs):
        out = step(*args, **kwargs)
        ends.append(time.perf_counter())
        return out

    tr.adam_step = clocked
    try:
        yield ends
    finally:
        tr.adam_step = step


def check(wl, report, test):
    """Names of the correctness checks one pipeline's outputs fail."""
    import numpy as np

    failures = []
    if not np.all(np.isfinite([row[1:4] for row in report.loss_log])):
        failures.append("non-finite loss")
    if report.label_violations != 0:
        failures.append("label violations")
    if report.crossing_edges_in_train_view != 0:
        failures.append("crossing edges in the train view")
    g = test["graph"]
    if np.bincount(g.edges.ravel(), minlength=g.n_nodes).min() < 1:
        failures.append("isolated node in the full graph")
    if test["metrics"]["macro_f1"] < wl.f1_floor:
        failures.append(f"test macro-F1 below {wl.f1_floor}")
    return failures


def pipeline(wl, ds, cfg, seed, ends, eval_repeats=1):
    """One request of the closed loop, timed by phase. After it, the test
    evaluation is repeated ``eval_repeats - 1`` more times on the same
    trained model, outside ``run_s``, for more ``eval_s`` samples; each
    repeat must reproduce the first's logits exactly."""
    import numpy as np
    from magnetkit import datamodel as dm
    from magnetkit import trainer as tr

    ends.clear()
    t0 = time.perf_counter()
    assignment = dm.split(ds, seed=seed)
    prepped = dm.preprocess(ds, split=assignment)
    t1 = time.perf_counter()
    trained, report = tr.train(prepped, cfg, assignment)
    t2 = time.perf_counter()
    test = tr.evaluate(trained, prepped, assignment, dm.TEST)
    t3 = time.perf_counter()
    failures = check(wl, report, test)
    eval_s = [t3 - t2]
    for _ in range(eval_repeats - 1):
        t4 = time.perf_counter()
        again = tr.evaluate(trained, prepped, assignment, dm.TEST)
        eval_s.append(time.perf_counter() - t4)
        if not np.array_equal(again["logits"], test["logits"]):
            failures.append("repeated test evaluation differs")
    loop = report.train_seconds
    epoch_s = np.diff([ends[-1] - loop] + ends)
    return {"run_s": t3 - t0, "setup_s": (t1 - t0) + (t2 - t1 - loop),
            "loop_s": loop, "epochs_per_s": len(ends) / loop,
            "epoch_s": epoch_s.tolist(), "eval_s": eval_s,
            "f1": test["metrics"]["macro_f1"],
            "losses": [row[3] for row in report.loss_log],
            "failures": failures}


class Runner:
    """Runs and checks pipelines of one workload, counting failures."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.seed = seed
        self.ds = wl.dataset(seed)
        self.cfg = wl.run_config(seed)
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def warm_up(self, ends):
        """Untimed and unchecked: every phase once, with a short epoch loop,
        so lazy imports, BLAS start-up and first-touch memory are paid here.
        An exception propagates: a program that crashes is not timed."""
        cfg = dataclasses.replace(self.cfg,
                                  epochs=min(self.cfg.epochs, WARMUP_EPOCHS))
        pipeline(self.wl, self.ds, cfg, self.seed, ends)

    def attempt(self, ends, eval_repeats=1):
        """Run one pipeline; its outputs must match the first run's exactly.
        Returns the timed sample, or None if the pipeline raised."""
        self.attempted += 1
        try:
            sample = pipeline(self.wl, self.ds, self.cfg, self.seed, ends,
                              eval_repeats)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.reference is None:
            self.reference = (sample["f1"], sample["losses"])
        elif (sample["f1"], sample["losses"]) != self.reference:
            sample["failures"].append("outputs differ from the first run")
        if sample["failures"]:
            print(f"check failed: {sample['failures']}", file=sys.stderr)
            self.failed += 1
        return sample


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(samples):
    import numpy as np

    def epoch_ms(q):
        # Percentile within each repeat, then the median over repeats, so a
        # burst of machine noise in one repeat does not set the tail.
        return statistics.median(1e3 * float(np.percentile(s["epoch_s"], q))
                                 for s in samples)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": (median_of(samples, "run_s"), "s"),
        "setup_s": (median_of(samples, "setup_s"), "s"),
        "epochs_per_s": (median_of(samples, "epochs_per_s"), "1/s"),
        "epoch_ms_p50": (epoch_ms(50), "ms"),
        "epoch_ms_p90": (epoch_ms(90), "ms"),
        "eval_s": (statistics.median(t for s in samples for t in s["eval_s"]),
                   "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"repeats": len(samples),
        "epochs": sum(len(s["epoch_s"]) for s in samples),
        "evals": sum(len(s["eval_s"]) for s in samples)}


def per_layer(runner, ends, deadline, env):
    """Alternate untraced and traced repeats until the deadline; per-layer
    metrics are medians over the traced repeats."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    while True:
        plain.append(runner.attempt(ends))
        tracer.repeat = len(summaries)
        with tracing.installed(tracer):
            sample = runner.attempt(ends)
        traced.append(sample)
        if sample is not None:
            summaries.append(tracer.summary(tracer.repeat, sample["loop_s"]))
        last = [s["run_s"] for s in (plain[-1], traced[-1]) if s]
        if time.perf_counter() + sum(last) > deadline:
            break
    plain = [s for s in plain if s]
    traced = [s for s in traced if s]
    if not (plain and traced):
        raise RuntimeError("every untraced or every traced pipeline raised")
    metrics = {k: (statistics.median(m[k] for m in summaries), unit_of(k))
               for k in summaries[0]}
    metrics["trace.overhead_s"] = (median_of(traced, "run_s")
                                   - median_of(plain, "run_s"), "s")
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{runner.wl.name}-seed{runner.seed}.jsonl"
    tracer.write(path, {**env, "workload": runner.wl.name,
                        "seed": runner.seed})
    return metrics, {"repeats": len(summaries), "trace": str(path)}


def unit_of(name):
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns the result object."""
    import workloads

    env = fingerprint()
    runner = Runner(workloads.SIZES[size][workload], seed)
    with epoch_clock() as ends:
        runner.warm_up(ends)
        deadline = time.perf_counter() + seconds
        if trace:
            metrics, notes = per_layer(runner, ends, deadline, env)
        else:
            samples = []
            while True:
                sample = runner.attempt(ends, EVAL_REPEATS)
                if sample is not None:
                    samples.append(sample)
                last = (sample["run_s"] + sum(sample["eval_s"][1:])
                        if sample else 0.0)
                if (runner.attempted >= MIN_REPEATS
                        and time.perf_counter() + last > deadline):
                    break
            if not samples:
                raise RuntimeError("every timed pipeline raised")
            metrics, notes = end_to_end(samples)
    # Printed with the metrics but not part of them: F1 varies with the seed
    # more than any bound allows and error_rate is 0 on correct code.
    extra = {"test_macro_f1": runner.reference[0] if runner.reference else 0.0,
             "error_rate": runner.failed / runner.attempted}
    print(f"env {json.dumps(env)}")
    print(f"workload {workload} seed {seed} size {size} "
          f"{json.dumps(notes)} attempted {runner.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:40s} {value:14.6g} ratio")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "magnetkit" / "__init__.py").is_file():
        print(f"error: magnetkit sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
