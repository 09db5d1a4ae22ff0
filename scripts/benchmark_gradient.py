#!/usr/bin/env python3
"""Wall-clock scaling of the effective gradient over dataset sizes and bin counts.

The per-step cost should grow linearly in rows: above the quantile subsample
threshold no full sort happens, so only the vectorized per-row work remains.
Several bin counts (`--bins 2,10,40,100`) show where `assign_bins` switches
from counting cuts to a binary search.
"""

import argparse
import time

import numpy as np

from liftloss import (
    DataGenConfig,
    GradConfig,
    ModelKind,
    ModelSpec,
    effective_gradient,
    generate,
    global_lift,
    predict,
)


def time_once(n_rows: int, n_bins: int, seed: int, reps: int) -> float:
    dataset = generate(DataGenConfig(n_rows=n_rows, seed=seed))
    rng = np.random.default_rng(seed)
    preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 0.5, 3), dataset)
    config = GradConfig(n_bins=n_bins)
    cached = global_lift(dataset)
    effective_gradient(dataset, preds, config, cached_global_lift=cached)  # warm up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        effective_gradient(dataset, preds, config, cached_global_lift=cached)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="10000,100000,1000000",
                    help="comma-separated row counts")
    ap.add_argument("--bins", default="10", help="comma-separated bin counts")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    bin_counts = [int(b) for b in args.bins.split(",")]
    print(f"{'bins':>5} {'rows':>10} {'best of ' + str(args.reps):>12} {'ns/row':>8}")
    for n_bins in bin_counts:
        base = None
        for n in sizes:
            t = time_once(n, n_bins, args.seed, args.reps)
            ratio = "" if base is None else f"   ({t / base[1]:.1f}x the {base[0]} run)"
            print(f"{n_bins:>5} {n:>10} {t * 1e3:>10.1f}ms {t / n * 1e9:>8.0f}{ratio}")
            if base is None:
                base = (n, t)


if __name__ == "__main__":
    main()
