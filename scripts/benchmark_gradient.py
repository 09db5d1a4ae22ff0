#!/usr/bin/env python3
"""Allocations of generate, the effective gradient and train over dataset sizes and bin counts.

tracemalloc's peak in bytes per row for `generate` (the dataset it returns
included), for one `effective_gradient` call and for a 4-step `train` in
each of perfbench's two training shapes (above the dataset, per row of a
step, which the rows column shows): `train`, the linear model on the full
batch, and `train (mlp)`, the hidden-32 tanh MLP on 100,000-row minibatches
with cuts reused every 4 steps. It also prints the minor page faults per
call once warm, and the process's peak RSS (`ru_maxrss`). The `train (csv)`
and `train (mlp, csv)` rows then run the same calls on the dataset saved and
read back through `load_csv`, the data `liftloss train --data` trains on,
and print the peak RSS again with `load_csv`'s. A size too small for a bin
count (a bin without an arm, or too few distinct predictions) prints a row
marking the pair skipped, naming the error. perfbench times these calls
(`perfbench/run.py`). Set `OPENBLAS_NUM_THREADS=1` to pin BLAS as perfbench
does:

    OPENBLAS_NUM_THREADS=1 python scripts/benchmark_gradient.py --sizes 1000000 --reps 5
"""

import argparse
import resource
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from liftloss import (
    Activation,
    DataGenConfig,
    DegeneratePredictionsError,
    EmptyArmInBinError,
    GradConfig,
    ModelKind,
    ModelSpec,
    TrainConfig,
    effective_gradient,
    generate,
    global_lift,
    load_csv,
    predict,
    random_params,
    save_csv,
    train,
)

OP_STEPS = 4  # perfbench's OP_STEPS
LINEAR_SPEC = ModelSpec(ModelKind.LINEAR, 2)
LINEAR_INIT = (1.0, 0.1, 1.0)  # perfbench's LINEAR_INIT
# minibatch_mlp_1m's model, batch and cut reuse
MLP_SPEC = ModelSpec(ModelKind.MLP, 2, 32, Activation.TANH)
MLP_BATCH = 100_000
MLP_REBIN_EVERY = 4


def gradient_call(dataset, n_bins: int, seed: int):
    rng = np.random.default_rng(seed)
    preds = predict(LINEAR_SPEC, rng.normal(0, 0.5, 3), dataset)
    config = GradConfig(n_bins=n_bins)
    cached = global_lift(dataset)
    return lambda: effective_gradient(dataset, preds, config, cached_global_lift=cached)


def train_calls(dataset, n_bins: int, seed: int):
    """A 4-step `train` in perfbench's linear and MLP shapes, each as (rows per step, call)."""
    linear = TrainConfig(step_size=0.1, steps=OP_STEPS, grad=GradConfig(n_bins), seed=seed)
    mlp = TrainConfig(step_size=0.1, steps=OP_STEPS, batch=MLP_BATCH, seed=seed,
                      grad=GradConfig(n_bins, rebin_every=MLP_REBIN_EVERY))
    mlp_init = random_params(MLP_SPEC, seed)
    return [(len(dataset), lambda: train(dataset, LINEAR_SPEC, LINEAR_INIT, linear)),
            (min(MLP_BATCH, len(dataset)), lambda: train(dataset, MLP_SPEC, mlp_init, mlp))]


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


def csv_round_trip(dataset):
    """`dataset` saved and read back through `load_csv`, as `liftloss train --data` reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(dataset, path)
        return load_csv(path)


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
        config = DataGenConfig(n_rows=n, seed=seed)
        dataset = generate(config)
        memory_row("generate", "", n, lambda: generate(config), reps)
        for n_bins in bin_counts:
            memory_row("effective_gradient", n_bins, n, gradient_call(dataset, n_bins, seed), reps)
            for name, (rows, call) in zip(("train", "train (mlp)"),
                                          train_calls(dataset, n_bins, seed)):
                memory_row(name, n_bins, rows, call, reps)
    print_maxrss("")
    # last, since load_csv's row lists set the process's peak RSS
    for n in sizes:
        loaded = csv_round_trip(generate(DataGenConfig(n_rows=n, seed=seed)))
        for n_bins in bin_counts:
            for name, (rows, call) in zip(("train (csv)", "train (mlp, csv)"),
                                          train_calls(loaded, n_bins, seed)):
                memory_row(name, n_bins, rows, call, reps)
    print_maxrss(" after load_csv")


if __name__ == "__main__":
    main()
