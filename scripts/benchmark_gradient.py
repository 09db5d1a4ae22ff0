#!/usr/bin/env python3
"""Allocations of generate, the effective gradient, train and load_csv over dataset sizes and bin counts.

tracemalloc's peak in bytes per row for `generate` (the dataset it returns
included), for one `effective_gradient` call and for the op perfbench times
on each of its workloads: an `OP_STEPS`-step `train` with the workload's
model, initial parameters, step size, batch and cut reuse, at each given bin
count. The settings and the data come from `perfbench.workloads`. A `train`
peak is above the dataset, per row of a step, which the rows column shows:
`train` is the linear model on the full batch, `train (mlp)` the MLP on
minibatches. It also prints the minor page faults per call once warm, and the
process's peak RSS (`ru_maxrss`). Then `load_csv` reads each size back from a
CSV that `save_csv` wrote, and the peak RSS prints again. A size too small for
a bin count (a bin without an arm, or too few distinct predictions) prints a row
marking the pair skipped, naming the error. perfbench times these calls
(`perfbench/run.py`). Set `OPENBLAS_NUM_THREADS=1` to pin BLAS as perfbench
does:

    OPENBLAS_NUM_THREADS=1 python scripts/benchmark_gradient.py --sizes 1000000 --reps 5
"""

import argparse
import resource
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from liftloss import (
    DataGenConfig,
    DegeneratePredictionsError,
    EmptyArmInBinError,
    GradConfig,
    ModelKind,
    effective_gradient,
    generate,
    global_lift,
    load_csv,
    predict,
    save_csv,
    train,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # perfbench, from any directory
from perfbench.workloads import OP_STEPS, WORKLOADS  # noqa: E402


def gen_config(n: int, seed: int) -> DataGenConfig:
    """perfbench's data at `n` rows; its workloads generate alike but for the row count."""
    return replace(WORKLOADS["fullbatch_linear_1m"].gen_config(seed), n_rows=n)


def gradient_call(dataset, n_bins: int, seed: int):
    rng = np.random.default_rng(seed)
    preds = predict(WORKLOADS["fullbatch_linear_1m"].spec, rng.normal(0, 0.5, 3), dataset)
    config = GradConfig(n_bins=n_bins)
    cached = global_lift(dataset)
    return lambda: effective_gradient(dataset, preds, config, cached_global_lift=cached)


def train_call(w, dataset, n_bins: int, seed: int):
    """perfbench's timed op of workload `w` at `n_bins` bins, as (rows per step, call)."""
    w = replace(w, rows=len(dataset), bins=n_bins)
    config = replace(w.train_config(seed), steps=OP_STEPS)
    init = w.init_params(seed)
    return min(w.rows_per_eval, w.rows), lambda: train(dataset, w.spec, init, config)


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees above its start level while `call()` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def minor_faults(call) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def memory_row(name: str, n_bins, rows: int, call, reps: int) -> None:
    try:
        call()  # warm up: lazy imports, the cached subsample draw, the heap's size
    except (DegeneratePredictionsError, EmptyArmInBinError) as err:
        print(f"{name:>18} {n_bins:>5} {rows:>10}  skipped: {type(err).__name__}: {err}")
        return
    peaks = np.array([traced_peak(call) for _ in range(reps)]) / rows
    faults = np.median([minor_faults(call) for _ in range(reps)])
    print(f"{name:>18} {n_bins:>5} {rows:>10} {peaks.min():>8.1f} {np.median(peaks):>8.1f} "
          f"{peaks.max():>8.1f} {faults:>10.0f}")


def print_maxrss(label: str) -> None:
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"process peak RSS (ru_maxrss){label}: {maxrss_kb / 1024:.1f} MB")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10000,100000,1000000",
                    help="comma-separated row counts")
    ap.add_argument("--bins", default="10", help="comma-separated bin counts")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    sizes = [int(s) for s in args.sizes.split(",")]
    bin_counts = [int(b) for b in args.bins.split(",")]
    reps, seed = args.reps, args.seed
    print(f"{'op':>18} {'bins':>5} {'rows':>10} {'best':>8} {'median':>8} {'worst':>8} "
          f"{'faults/op':>10}  (B/row of {reps}; faults median, warm)")
    for n in sizes:
        config = gen_config(n, seed)
        dataset = generate(config)
        memory_row("generate", "", n, lambda: generate(config), reps)
        for n_bins in bin_counts:
            memory_row("effective_gradient", n_bins, n, gradient_call(dataset, n_bins, seed), reps)
            for w in WORKLOADS.values():
                name = "train (mlp)" if w.model is ModelKind.MLP else "train"
                memory_row(name, n_bins, *train_call(w, dataset, n_bins, seed), reps)
    print_maxrss("")
    # last, since reading the largest size back sets the process's peak RSS
    for n in sizes:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            save_csv(generate(gen_config(n, seed)), path)
            memory_row("load_csv", "", n, lambda: load_csv(path), reps)
    print_maxrss(" after load_csv")


if __name__ == "__main__":
    main()
