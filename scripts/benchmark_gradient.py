#!/usr/bin/env python3
"""Wall-clock scaling of the effective gradient, a short MLP `train`, or CSV I/O over dataset sizes.

The per-step cost should grow linearly in rows: above the quantile subsample
threshold no full sort happens, so only the vectorized per-row work remains.
Several bin counts (`--bins 2,10,40,100`) show where `assign_bins` switches
from counting cuts to a binary search.

`--model mlp --batch N` times a 4-step `train` of a hidden-32 tanh MLP on
N-row minibatches with cuts reused every 4 steps, the shape of perfbench's
timed `minibatch_mlp_1m` op. `--io` times `save_csv` and `load_csv` of a
generated dataset instead, in µs per row; the file goes to a temporary
directory. Every mode prints the best, median and worst of `--reps` runs.

`--memory` measures allocations instead of time: tracemalloc's peak in bytes
per row for `generate` (the dataset it returns included), for one
`effective_gradient` call and for a 4-step `train` (above the dataset, per
row of a step: full batch on perfbench's linear model, or `--model mlp
--batch N`), the minor page faults per call once warm, and the process's
peak RSS (`ru_maxrss`). The `train (csv)` rows then run the same `train` on
the dataset saved and read back through `load_csv`, the data `liftloss
train --data` trains on, and print the peak RSS again with `load_csv`'s.
Set `OPENBLAS_NUM_THREADS=1` to pin BLAS as perfbench does:

    OPENBLAS_NUM_THREADS=1 python scripts/benchmark_gradient.py \\
        --model mlp --batch 100000 --sizes 1000000 --reps 15
    python scripts/benchmark_gradient.py --io --sizes 200000 --reps 7
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
MLP_SPEC = ModelSpec(ModelKind.MLP, 2, 32, Activation.TANH)
LINEAR_SPEC = ModelSpec(ModelKind.LINEAR, 2)
LINEAR_INIT = (1.0, 0.1, 1.0)  # perfbench's LINEAR_INIT


def gradient_call(dataset, n_bins: int, seed: int):
    rng = np.random.default_rng(seed)
    preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 0.5, 3), dataset)
    config = GradConfig(n_bins=n_bins)
    cached = global_lift(dataset)
    return lambda: effective_gradient(dataset, preds, config, cached_global_lift=cached)


def train_call(dataset, model: str, n_bins: int, seed: int, batch: int | None):
    """A 4-step `train`: the MLP reuses cuts every 4 steps, the linear model re-cuts every step."""
    if model == "mlp":
        spec, init, grad = MLP_SPEC, random_params(MLP_SPEC, seed), GradConfig(n_bins, rebin_every=4)
    else:
        spec, init, grad = LINEAR_SPEC, LINEAR_INIT, GradConfig(n_bins)
    config = TrainConfig(step_size=0.1, steps=OP_STEPS, grad=grad, batch=batch, seed=seed)
    return lambda: train(dataset, spec, init, config)


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


def memory_row(name: str, n_bins, n: int, rows: int, call, reps: int) -> None:
    call()  # warm up: lazy imports, the cached subsample draw, the heap's size
    peaks = np.array([traced_peak(call) for _ in range(reps)]) / rows
    faults = np.median([minor_faults(call) for _ in range(reps)])
    print(f"{name:>18} {n_bins:>5} {n:>10} {peaks.min():>8.1f} {np.median(peaks):>8.1f} "
          f"{peaks.max():>8.1f} {faults:>10.0f}")


def print_maxrss(label: str) -> None:
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"process peak RSS (ru_maxrss){label}: {maxrss_kb / 1024:.1f} MB")


def run_memory(sizes: list[int], bin_counts: list[int], model: str, batch: int | None,
               reps: int, seed: int) -> None:
    print(f"{'op':>18} {'bins':>5} {'rows':>10} {'best':>8} {'median':>8} {'worst':>8} "
          f"{'faults/op':>10}  (B/row of {reps}; faults median, warm)")
    for n in sizes:
        config = DataGenConfig(n_rows=n, seed=seed)
        dataset = generate(config)
        memory_row("generate", "", n, n, lambda: generate(config), reps)
        for n_bins in bin_counts:
            memory_row("effective_gradient", n_bins, n, n,
                       gradient_call(dataset, n_bins, seed), reps)
            memory_row("train", n_bins, n, min(batch or n, n),
                       train_call(dataset, model, n_bins, seed, batch), reps)
    print_maxrss("")
    # last, since load_csv's row lists set the process's peak RSS
    for n in sizes:
        loaded = csv_round_trip(generate(DataGenConfig(n_rows=n, seed=seed)))
        for n_bins in bin_counts:
            memory_row("train (csv)", n_bins, n, min(batch or n, n),
                       train_call(loaded, model, n_bins, seed, batch), reps)
    print_maxrss(" after load_csv")


def run_io(sizes: list[int], reps: int, seed: int) -> None:
    print(f"{'op':>9} {'rows':>10} {'best':>9} {'median':>9} {'worst':>9} {'us/row':>7}  (of {reps})")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        for n in sizes:
            dataset = generate(DataGenConfig(n_rows=n, seed=seed))
            for name, call in (("save_csv", lambda: save_csv(dataset, path)),
                               ("load_csv", lambda: load_csv(path))):
                walls = time_reps(call, reps)
                print(f"{name:>9} {n:>10} {walls.min():>8.3f}s {np.median(walls):>8.3f}s "
                      f"{walls.max():>8.3f}s {walls.min() / n * 1e6:>7.2f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10000,100000,1000000",
                    help="comma-separated row counts")
    ap.add_argument("--bins", default="10", help="comma-separated bin counts")
    ap.add_argument("--model", choices=("linear", "mlp"), default="linear",
                    help="linear: one effective_gradient call on linear predictions "
                         f"(with --memory, a {OP_STEPS}-step linear train); "
                         f"mlp: a {OP_STEPS}-step MLP train")
    ap.add_argument("--io", action="store_true",
                    help="time save_csv and load_csv instead of a training computation")
    ap.add_argument("--memory", action="store_true",
                    help="measure peak allocations and page faults of generate and train")
    ap.add_argument("--batch", type=int, default=None,
                    help="minibatch rows of the mlp train (default: full batch)")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    if args.batch is not None and args.model != "mlp":
        ap.error("--batch applies to --model mlp only")
    if args.io and args.model != "linear":
        ap.error("--io times CSV I/O and takes no --model")
    if args.io and args.memory:
        ap.error("--io and --memory are separate modes")

    sizes = [int(s) for s in args.sizes.split(",")]
    if args.io:
        run_io(sizes, args.reps, args.seed)
        return
    bin_counts = [int(b) for b in args.bins.split(",")]
    if args.memory:
        run_memory(sizes, bin_counts, args.model, args.batch, args.reps, args.seed)
        return
    print(f"{'bins':>5} {'rows':>10} {'best':>10} {'median':>10} {'worst':>10} "
          f"{'ns/row':>8}  (of {args.reps})")
    for n_bins in bin_counts:
        base = None
        for n in sizes:
            dataset = generate(DataGenConfig(n_rows=n, seed=args.seed))
            if args.model == "mlp":
                call = train_call(dataset, "mlp", n_bins, args.seed, args.batch)
                rows = min(args.batch or n, n) * (OP_STEPS + 1)
            else:
                call = gradient_call(dataset, n_bins, args.seed)
                rows = n
            walls = time_reps(call, args.reps)
            t = walls.min()
            ratio = "" if base is None else f"   ({t / base[1]:.1f}x the {base[0]} run)"
            print(f"{n_bins:>5} {n:>10} {t * 1e3:>8.1f}ms {np.median(walls) * 1e3:>8.1f}ms "
                  f"{walls.max() * 1e3:>8.1f}ms {t / rows * 1e9:>8.0f}{ratio}")
            if base is None:
                base = (n, t)


if __name__ == "__main__":
    main()
