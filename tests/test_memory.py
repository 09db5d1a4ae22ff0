"""Peak allocations of `generate`, `load_csv`, a training run and its parts, seen through tracemalloc.

numpy registers its array buffers with tracemalloc, so the traced peak counts
every row-sized array a call holds at once. Each bound sits about halfway
between the peaks with and without what it guards: `train` drops each
step's gradient arrays before the next step, and an MLP's backward pass
sums its rows in blocks; `generate` drops its raw draw before the dataset
copies its columns; `load_csv` keeps one `array.array` of floats per
column, not Python floats; `effective_gradient` gathers its
coefficient tables a block of rows at a time; `subset_stats` weighs by a
writeable view of the outcome, which `np.bincount` does not copy; and the
dataset constructor checks the arm values without `np.isin`.
"""

import tracemalloc

import numpy as np

from liftloss import (
    ABDataset,
    Activation,
    DataGenConfig,
    GradConfig,
    ModelKind,
    ModelSpec,
    TrainConfig,
    assign_bins,
    compute_cuts,
    effective_gradient,
    generate,
    global_lift,
    load_csv,
    predict,
    random_params,
    save_csv,
    subset_stats,
    train,
)

N_ROWS = 200_000
LINEAR = ModelSpec(ModelKind.LINEAR, 2)
INIT = np.array([1.0, 0.1, 1.0])


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


def step_inputs():
    """A 200k-row dataset and the linear model's predictions on it."""
    ds = generate(DataGenConfig(n_rows=N_ROWS, seed=3))
    return ds, predict(LINEAR, INIT, ds)


def test_full_batch_train_holds_one_steps_arrays():
    # 31.3 B/row above the dataset; 42.1 with whole-vector gathers and a copied
    # outcome, 59.1 while step t-1's gradient outlived step t's
    ds = generate(DataGenConfig(n_rows=N_ROWS, seed=3))
    config = TrainConfig(step_size=0.1, steps=3, grad=GradConfig(n_bins=10))
    train(ds, LINEAR, INIT, config)  # fills the cached quantile subsample draw first
    assert traced_peak(lambda: train(ds, LINEAR, INIT, config)) / N_ROWS < 37.0


def test_effective_gradient_gathers_in_row_blocks():
    # 23.3 B/row; 34.0 with the index and migration arrays spanning all rows
    ds, preds = step_inputs()
    config = GradConfig(n_bins=10)
    gl = global_lift(ds)
    effective_gradient(ds, preds, config, gl)  # fills the cached quantile subsample draw
    assert traced_peak(lambda: effective_gradient(ds, preds, config, gl)) / N_ROWS < 29.0


def test_subset_stats_does_not_copy_the_outcome():
    # 11.2 B/row (the global lift, taken before the 8.3 B/row intp key);
    # 16.0 while bincount copied the read-only outcome
    ds, preds = step_inputs()
    bins = assign_bins(preds, compute_cuts(preds, 10))
    assert traced_peak(lambda: subset_stats(ds, preds, bins, 10)) / N_ROWS < 12.0


def test_dataset_checks_an_int64_arm_without_isin():
    # 34.0 B/row, the 33 B/row dataset included; 43.0 with `np.isin`
    ds = generate(DataGenConfig(n_rows=N_ROWS, seed=3))
    arm = ds.arm.astype(np.int64)
    call = lambda: ABDataset(ds.features, ds.outcome, arm, ds.true_lift)  # noqa: E731
    assert traced_peak(call) / N_ROWS < 38.5


def test_generate_holds_one_copy_of_the_data():
    # 67.0 B/row warm (70.8 on a first call), the 33 B/row dataset included;
    # 95.0 while the (n, 3) draw outlived the copies
    config = DataGenConfig(n_rows=N_ROWS, seed=3)
    assert traced_peak(lambda: generate(config)) / N_ROWS < 86.0


def test_load_csv_keeps_columns_not_row_lists(tmp_path):
    # 85 B/row with d=2 and true_lift; 204 with a list of Python floats per
    # column, 284 with a Python list per row
    path = tmp_path / "d.csv"
    save_csv(generate(DataGenConfig(n_rows=N_ROWS, seed=3)), path)
    assert traced_peak(lambda: load_csv(path)) / N_ROWS < 145.0


def test_mlp_train_backprops_in_row_blocks():
    # 287 B/row above the dataset, 256 of them the hidden layer; 306 with
    # the backward pass's (n, d + 1) buffer spanning all rows
    ds = generate(DataGenConfig(n_rows=N_ROWS, seed=3))
    spec = ModelSpec(ModelKind.MLP, 2, hidden=32, activation=Activation.TANH)
    init = random_params(spec, seed=0)
    config = TrainConfig(step_size=0.1, steps=3, grad=GradConfig(n_bins=10))
    train(ds, spec, init, config)  # fills the cached quantile subsample draw first
    assert traced_peak(lambda: train(ds, spec, init, config)) / N_ROWS < 297.0
