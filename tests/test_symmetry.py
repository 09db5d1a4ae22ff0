"""Symmetries of the binned lift loss whose oracle is arithmetic alone.

Each property transforms a dataset in a way whose effect on the bins, the
loss and the gradient follows from the loss's definition, so no second copy
of the arithmetic is needed:

- scaling predictions and outcomes by 2**j keeps every bin and segment and
  scales every gradient by 2**j and the loss by 4**j, bit for bit (a power
  of two only moves exponents, short of overflow and subnormals);
- a linear `train` on outcomes * 2**j from init * 2**j follows the same path
  scaled, bit for bit;
- adding c to every outcome keeps the bins, and the loss and gradient within
  a bound derived from float64 rounding and the number of operations.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftloss import (
    ABDataset,
    DegeneratePredictionsError,
    EmptyArmInBinError,
    GradConfig,
    effective_gradient,
    generate,
    loss_partials,
    predict,
    true_lift_loss,
)
from liftloss.dataset import DataGenConfig
from liftloss.models import ModelKind, ModelSpec, TrainConfig, train

LINEAR = ModelSpec(ModelKind.LINEAR, 2)
U = 2.0**-53  # unit roundoff of float64
# whole ranks: at 20,000 rows and 7 bins every cut is a prediction
ROWS = st.one_of(st.integers(50, 5000), st.sampled_from([20000]))
BINS = st.integers(2, 10)
# None keeps the predictions distinct; 1 or 2 decimals tie many of them
TIES = st.sampled_from([None, 1, 2])
POWERS = st.integers(-20, 20)


def instance(seed, rows, ties):
    """A generated dataset and linear predictions on it, rounded to force ties."""
    data = generate(DataGenConfig(n_rows=rows, seed=seed))
    w = np.random.default_rng(seed).standard_normal(3)
    p = predict(LINEAR, w, data)
    return data, (p if ties is None else np.round(p, ties))


def with_outcome(data, y):
    return ABDataset(data.features, y, data.arm)


def gradient_or_error(data, p, bins):
    """The effective gradient, or the type of the error it raised."""
    try:
        return effective_gradient(data, p, GradConfig(n_bins=bins))
    except (DegeneratePredictionsError, EmptyArmInBinError) as err:
        return type(err)


def assert_same_structure(a, b):
    assert np.array_equal(a.bins, b.bins) and np.array_equal(a.segments, b.segments)
    assert np.array_equal(a.stats.size_t, b.stats.size_t)
    assert np.array_equal(a.stats.size_c, b.stats.size_c)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rows=ROWS, bins=BINS, ties=TIES, j=POWERS)
@example(seed=3, rows=20000, bins=7, ties=None, j=-20)
@example(seed=3, rows=20000, bins=7, ties=None, j=20)
def test_power_of_two_scale_is_exact(seed, rows, bins, ties, j):
    data, p = instance(seed, rows, ties)
    k = 2.0**j
    base = gradient_or_error(data, p, bins)
    scaled = gradient_or_error(with_outcome(data, data.outcome * k), p * k, bins)
    if isinstance(base, type):
        assert scaled is base
        return
    assert_same_structure(base, scaled)
    assert np.array_equal(scaled.cuts.cuts, base.cuts.cuts * k)
    assert np.array_equal(scaled.point_grad, base.point_grad * k)
    before, after = true_lift_loss(base.stats), true_lift_loss(scaled.stats)
    for name in ("loss", "bias_term", "separation_term"):
        assert getattr(after, name) == getattr(before, name) * k * k


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rows=st.integers(200, 3000), bins=st.integers(2, 6),
       j=POWERS)
@example(seed=1, rows=3000, bins=5, j=-20)
def test_power_of_two_scale_trains_the_same_path(seed, rows, bins, j):
    data = generate(DataGenConfig(n_rows=rows, seed=seed))
    init = np.array([1.0, 0.1, 1.0])
    config = TrainConfig(step_size=0.1, steps=15, grad=GradConfig(n_bins=bins))
    k = 2.0**j
    scaled = with_outcome(data, data.outcome * k)
    try:
        params, trace = train(data, LINEAR, init, config)
    except (DegeneratePredictionsError, EmptyArmInBinError) as err:
        with pytest.raises(type(err)):
            train(scaled, LINEAR, init * k, config)
        return
    params_k, trace_k = train(scaled, LINEAR, init * k, config)
    assert np.array_equal(params_k, params * k)
    assert np.array_equal(trace_k.losses(), trace.losses() * k * k)
    for e, e_k in zip(trace.entries, trace_k.entries, strict=True):
        assert np.array_equal(e_k.params, e.params * k)
    assert trace_k.events == trace.events


def shift_bounds(eg, m, scale):
    """First-order bounds on |loss' - loss| and max |grad' - grad| after a shift.

    The outcomes enter only through the per-(bin, arm) means, the global
    lift and each row's own outcome. With m the largest |outcome| of either
    run, a shifted outcome is off by u*m, a recursive sum of at most N such
    terms by (N - 1)*u*N*m, and its mean by (N + 1)*u*m. A lift is a
    difference of two means, compared across two runs, so every
    outcome-dependent input differs between the runs by at most
    delta = 4*(N + 2)*u*m. The bounds below push delta through each term
    of the loss and the gradient and add 16 roundings of each term's
    magnitude for evaluating the two runs.
    """
    s = eg.stats
    n = s.total_size
    delta = 4 * (n + 2) * U * m
    w = s.size / n
    gap, sep = np.abs(s.mean_pred - s.lift), np.abs(s.lift - s.global_lift)
    # loss = sum w * (gap**2 - sep**2): a lift moves gap and sep, the global lift sep
    loss_bound = delta * (w * (2 * gap + 4 * sep)).sum() + 16 * U * (w * (gap**2 + sep**2)).sum()
    # a boundary row's slope: lift weights times one-row lift updates |mean - y| / n_arm,
    # plus the change of the size partials, all over the probe shift dp
    d_lift, d_size = loss_partials(s)
    weight = np.abs(d_lift) + 2 * np.abs(s.mean_pred - s.global_lift) / n
    d_weight = 2 * (w + 1 / n) * delta  # both parts move with the global lift
    update = 2 * m / np.minimum(s.size_t, s.size_c)
    d_update = 2 * delta / np.minimum(s.size_t, s.size_c)
    d_size_err = 2 * (gap + 2 * sep) * delta / n
    per_bin = (weight * d_update + d_weight * update + d_size_err
               + 16 * U * (weight * update + np.abs(d_size)))
    dp = scale * np.concatenate([eg.cuts.cuts - eg.inner.minus, eg.inner.plus - eg.cuts.cuts])
    bias = 2 * (gap + delta) / n
    grad_bound = 2 * per_bin.max() / dp.min() + 4 * delta / n + 16 * U * bias.max()
    return loss_bound, grad_bound


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rows=ROWS, bins=BINS, ties=TIES,
       c=st.one_of(st.sampled_from([0.37, 5.0, -3.0]), st.floats(-100, 100)))
@example(seed=3, rows=20000, bins=7, ties=None, c=5.0)
def test_outcome_shift_keeps_loss_and_gradient(seed, rows, bins, ties, c):
    data, p = instance(seed, rows, ties)
    base = gradient_or_error(data, p, bins)
    shifted = gradient_or_error(with_outcome(data, data.outcome + c), p, bins)
    if isinstance(base, type):
        assert shifted is base
        return
    assert_same_structure(base, shifted)
    m = float(np.abs(data.outcome).max()) + abs(c)
    loss_bound, grad_bound = shift_bounds(base, m, GradConfig(n_bins=bins).migration_step_scale)
    assert abs(true_lift_loss(shifted.stats).loss - true_lift_loss(base.stats).loss) <= loss_bound
    assert np.abs(shifted.point_grad - base.point_grad).max() <= grad_bound
