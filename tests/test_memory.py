"""Peak allocations of `generate` and of a training run, seen through tracemalloc.

numpy registers its array buffers with tracemalloc, so the traced peak counts
every row-sized array a call holds at once. The bounds sit about halfway
between the peaks with and without the releases they guard: `train` drops
each step's gradient arrays before the next step, and `generate` drops its
raw draw before the dataset copies its columns.
"""

import tracemalloc

import numpy as np

from liftloss import (
    DataGenConfig,
    GradConfig,
    ModelKind,
    ModelSpec,
    TrainConfig,
    generate,
    train,
)

N_ROWS = 200_000


def traced_peak(call) -> int:
    """Peak traced bytes above the level at the start of `call()`."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_full_batch_train_holds_one_steps_arrays():
    # 42.1 B/row above the dataset; 59.1 while step t-1's gradient outlived step t's
    ds = generate(DataGenConfig(n_rows=N_ROWS, seed=3))
    spec = ModelSpec(ModelKind.LINEAR, 2)
    config = TrainConfig(step_size=0.1, steps=3, grad=GradConfig(n_bins=10))
    init = np.array([1.0, 0.1, 1.0])
    train(ds, spec, init, config)  # fills the cached quantile subsample draw first
    assert traced_peak(lambda: train(ds, spec, init, config)) / N_ROWS < 51.0


def test_generate_holds_one_copy_of_the_data():
    # 73.8 B/row, the 33 B/row dataset included; 98.8 while the (n, 3) draw outlived the copies
    config = DataGenConfig(n_rows=N_ROWS, seed=3)
    assert traced_peak(lambda: generate(config)) / N_ROWS < 86.0
