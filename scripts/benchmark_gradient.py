#!/usr/bin/env python3
"""Wall-clock scaling of the effective gradient over dataset sizes and bin counts, or allocations.

The per-step cost should grow linearly in rows: above the quantile subsample
threshold no full sort happens, so only the vectorized per-row work remains.
Several bin counts (`--bins 2,10,40,100`) show the 2-bin segment path and
where `assign_bins` switches from counting cuts to a binary search. The
sweep prints the best, median and worst of `--reps` runs; a size too small
for a bin count (a bin without an arm, or too few distinct predictions)
prints a row marking the pair skipped, naming the error, and so does a
`--memory` row. perfbench times
the training ops and CSV I/O themselves (`perfbench/run.py`).

`--memory` measures allocations instead of time: tracemalloc's peak in bytes
per row for `generate` (the dataset it returns included), for one
`effective_gradient` call and for a 4-step `train` in each of perfbench's
two training shapes (above the dataset, per row of a step, which the rows
column shows): `train`, the linear model on the full batch, and
`train (mlp)`, the hidden-32 tanh MLP on 100,000-row minibatches with cuts
reused every 4 steps. It also prints the minor page faults per call once
warm, and the process's peak RSS (`ru_maxrss`). The `train (csv)` and
`train (mlp, csv)` rows then run the same calls on the dataset saved and
read back through `load_csv`, the data `liftloss train --data` trains on,
and print the peak RSS again with `load_csv`'s. Set `OPENBLAS_NUM_THREADS=1`
to pin BLAS as perfbench does:

    OPENBLAS_NUM_THREADS=1 python scripts/benchmark_gradient.py \\
        --sizes 10000,100000,1000000 --bins 2,10,40,100
    python scripts/benchmark_gradient.py --memory --sizes 1000000 --reps 5
"""

import argparse
import resource
import tempfile
import time
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
    preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 0.5, 3), dataset)
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


def time_reps(call, reps: int) -> np.ndarray:
    call()  # warm up
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        walls.append(time.perf_counter() - t0)
    return np.array(walls)


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


def skipped(err: Exception) -> str:
    return f"  skipped: {type(err).__name__}: {err}"


def memory_row(name: str, n_bins, rows: int, call, reps: int) -> None:
    try:
        call()  # warm up: lazy imports, the cached subsample draw, the heap's size
    except (DegeneratePredictionsError, EmptyArmInBinError) as err:
        print(f"{name:>18} {n_bins:>5} {rows:>10}{skipped(err)}")
        return
    peaks = np.array([traced_peak(call) for _ in range(reps)]) / rows
    faults = np.median([minor_faults(call) for _ in range(reps)])
    print(f"{name:>18} {n_bins:>5} {rows:>10} {peaks.min():>8.1f} {np.median(peaks):>8.1f} "
          f"{peaks.max():>8.1f} {faults:>10.0f}")


def print_maxrss(label: str) -> None:
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"process peak RSS (ru_maxrss){label}: {maxrss_kb / 1024:.1f} MB")


def run_memory(sizes: list[int], bin_counts: list[int], reps: int, seed: int) -> None:
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10000,100000,1000000",
                    help="comma-separated row counts")
    ap.add_argument("--bins", default="10", help="comma-separated bin counts")
    ap.add_argument("--memory", action="store_true",
                    help="measure peak allocations and page faults of generate, "
                         "effective_gradient and train")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    sizes = [int(s) for s in args.sizes.split(",")]
    bin_counts = [int(b) for b in args.bins.split(",")]
    if args.memory:
        run_memory(sizes, bin_counts, args.reps, args.seed)
        return
    print(f"{'bins':>5} {'rows':>10} {'best':>10} {'median':>10} {'worst':>10} "
          f"{'ns/row':>8}  (of {args.reps})")
    for n_bins in bin_counts:
        base = None
        for n in sizes:
            dataset = generate(DataGenConfig(n_rows=n, seed=args.seed))
            try:
                walls = time_reps(gradient_call(dataset, n_bins, args.seed), args.reps)
            except (DegeneratePredictionsError, EmptyArmInBinError) as err:
                print(f"{n_bins:>5} {n:>10}{skipped(err)}")
                continue
            t = walls.min()
            ratio = "" if base is None else f"   ({t / base[1]:.1f}x the {base[0]} run)"
            print(f"{n_bins:>5} {n:>10} {t * 1e3:>8.1f}ms {np.median(walls) * 1e3:>8.1f}ms "
                  f"{walls.max() * 1e3:>8.1f}ms {t / n * 1e9:>8.0f}{ratio}")
            if base is None:
                base = (n, t)


if __name__ == "__main__":
    main()
