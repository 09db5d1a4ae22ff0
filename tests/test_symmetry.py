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
  a bound derived from float64 rounding and the number of operations;
- adding c to every prediction and every treated outcome keeps the bins and
  segments, and the loss and gradient within the same kind of bound, and a
  linear `train` step from init + c in the offset keeps the slopes and moves
  the offset by c;
- swapping the arms and negating the predictions reverses the bins, swaps
  top and bottom segments, keeps the loss within rounding and negates every
  gradient, bit for bit where the cuts mirror bit for bit.

On tied predictions the cut rule breaks a tie between two edges by their
gaps, then by side, so these properties hold there only where the bins come
out the same (or mirrored); draws where they do not are counted as events.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from liftloss import (
    ABDataset,
    DegeneratePredictionsError,
    EmptyArmInBinError,
    GradConfig,
    effective_gradient,
    generate,
    global_lift,
    predict,
    true_lift_loss,
)
from liftloss.binning import MAX_SORT
from liftloss.dataset import DataGenConfig
from liftloss.gradient import MIGRATION_STEP_SCALE, loss_partials
from liftloss.models import ModelKind, ModelSpec, TrainConfig, train

LINEAR = ModelSpec(ModelKind.LINEAR, 2)
U = 2.0**-53  # unit roundoff of float64
# whole ranks: at 20,000 rows and 7 bins every cut's quantile position is a row
ROWS = st.one_of(st.integers(50, 5000), st.sampled_from([20000]))
BINS = st.integers(2, 10)
# (rows, bins) with whole-row quantile positions (m - 1)k / bins: every k at 20,000 rows and
# 7 bins, and above MAX_SORT (m - 1 = 99,999 = 3 * 3 * 41 * 271) every k at 3 and 9 bins
# and the even k at 6
WHOLE_RANKS = st.one_of(
    st.just((20000, 7)),
    st.tuples(st.integers(MAX_SORT + 1, 150_000), st.sampled_from([3, 6, 9])),
)
SIZES = st.one_of(st.tuples(st.integers(50, 5000), BINS), WHOLE_RANKS)
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
    assert np.array_equal(a.stats.count, b.stats.count)


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


def shift_bounds(eg, m, predictions_moved=False):
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

    With `predictions_moved` the predictions were shifted too, and m also
    bounds every |prediction|: each mean prediction then moves by delta as
    well, so the gap between it and the lift moves by 2*delta, and each cut
    and segment bound, read from rounded shifted values, by at most 16*u*m,
    which moves the probe shift dp in proportion.
    """
    s = eg.stats
    n = s.total_size
    delta = 4 * (n + 2) * U * m
    k = 2 if predictions_moved else 1  # the gap moves by k * delta
    w = s.size / n
    gap, sep = np.abs(s.mean_pred - s.lift), np.abs(s.lift - s.global_lift)
    # loss = sum w * (gap**2 - sep**2): a lift moves gap and sep, the global lift sep
    loss_bound = delta * (w * (2 * k * gap + 4 * sep)).sum() + 16 * U * (w * (gap**2 + sep**2)).sum()
    # a boundary row's slope: lift weights times one-row lift updates |mean - y| / n_arm,
    # plus the change of the size partials, all over the probe shift dp
    d_lift, d_size = loss_partials(s)
    weight = np.abs(d_lift) + 2 * np.abs(s.mean_pred - s.global_lift) / n
    d_weight = 2 * k * (w + 1 / n) * delta  # both parts move with the global lift
    update = 2 * m / s.count.min(axis=1)
    d_update = 2 * delta / s.count.min(axis=1)
    d_size_err = 2 * (k * gap + 2 * sep) * delta / n
    per_bin = (weight * d_update + d_weight * update + d_size_err
               + 16 * U * (weight * update + np.abs(d_size)))
    widths = np.concatenate([eg.cuts.cuts - eg.inner.minus, eg.inner.plus - eg.cuts.cuts])
    dp = MIGRATION_STEP_SCALE * widths
    bias = 2 * (gap + k * delta) / n
    grad_bound = 2 * per_bin.max() / dp.min() + 4 * k * delta / n + 16 * U * bias.max()
    if predictions_moved:
        slope = 2 * (weight * update + 2 * np.abs(d_size)).max() / dp.min()
        grad_bound += slope * 16 * U * m * MIGRATION_STEP_SCALE / dp.min()
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
    loss_bound, grad_bound = shift_bounds(base, m)
    assert abs(true_lift_loss(shifted.stats).loss - true_lift_loss(base.stats).loss) <= loss_bound
    assert np.abs(shifted.point_grad - base.point_grad).max() <= grad_bound


def same_bins(a, b):
    """Both runs raised the same error, or binned and segmented every row alike."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a.bins, b.bins) and np.array_equal(a.segments, b.segments)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=SIZES, ties=TIES,
       c=st.one_of(st.sampled_from([0.37, 5.0, -3.0]), st.floats(-100, 100)))
@example(seed=3, size=(20000, 7), ties=None, c=0.37)
@example(seed=3, size=(20000, 7), ties=None, c=5.0)
# tied: two edges at one distance from a cut's quantile position, both 0.1 wide, and the
# rounding of the shifted values decides which gap is wider
@example(seed=1517216583, size=(876, 7), ties=1, c=0.37)
def test_prediction_shift_keeps_bins_loss_and_gradient(seed, size, ties, c):
    rows, bins = size
    data, p = instance(seed, rows, ties)
    base = gradient_or_error(data, p, bins)
    shifted = gradient_or_error(with_outcome(data, data.outcome + c * data.arm), p + c, bins)
    if ties is not None and not same_bins(base, shifted):
        event("tied: the shift moved a cut")
        return
    if isinstance(base, type):
        assert shifted is base
        return
    assert_same_structure(base, shifted)
    m = float(max(np.abs(data.outcome).max(), np.abs(p).max())) + abs(c)
    loss_bound, grad_bound = shift_bounds(base, m, predictions_moved=True)
    assert abs(true_lift_loss(shifted.stats).loss - true_lift_loss(base.stats).loss) <= loss_bound
    assert np.abs(shifted.point_grad - base.point_grad).max() <= grad_bound


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rows=st.integers(200, 3000), bins=st.integers(2, 6),
       c=st.one_of(st.sampled_from([0.37, 5.0, -3.0]), st.floats(-100, 100)))
@example(seed=1, rows=3000, bins=5, c=5.0)
def test_prediction_shift_moves_each_train_step_by_c_in_the_offset(seed, rows, bins, c):
    # each step of a 10-step linear train, taken again from its params with c added to
    # the offset on the shifted data, gives the same slopes and the next offset plus c;
    # restarting every step from the unshifted path keeps the rounding of one step
    data = generate(DataGenConfig(n_rows=rows, seed=seed))
    shifted = with_outcome(data, data.outcome + c * data.arm)
    offset = np.array([0.0, 0.0, c])
    config = TrainConfig(step_size=0.1, steps=10, grad=GradConfig(n_bins=bins))
    try:
        params, trace = train(data, LINEAR, np.array([1.0, 0.1, 1.0]), config)
    except (DegeneratePredictionsError, EmptyArmInBinError):
        return
    x1 = np.column_stack([data.features, np.ones(rows)])
    one_step = TrainConfig(step_size=0.1, steps=1, grad=config.grad)
    assert np.array_equal(trace.entries[-1].params, params)
    for entry, following in zip(trace.entries, trace.entries[1:]):
        after = following.params
        p = predict(LINEAR, entry.params, data)
        eg = effective_gradient(data, p, config.grad, cached_global_lift=global_lift(data))
        moved, _ = train(shifted, LINEAR, entry.params + offset, one_step)
        m = float(max(np.abs(data.outcome).max(), np.abs(p).max())) + abs(c)
        _, grad_bound = shift_bounds(eg, m, predictions_moved=True)
        # the step sums rows * gradient in both runs; the update and the offset round once each
        step = np.abs(x1).T @ np.full(rows, grad_bound) + 2 * rows * U * (np.abs(x1).T @ np.abs(eg.point_grad))
        bound = 0.1 * step + 4 * U * (np.abs(after) + np.abs(offset))
        assert (np.abs(moved - (after + offset)) <= bound).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=SIZES, ties=TIES)
@example(seed=3, size=(20000, 7), ties=None)
@example(seed=3, size=(1_000_000, 3), ties=None)
@example(seed=3, size=(1_000_000, 9), ties=None)
def test_mirror_reverses_bins_and_negates_gradient(seed, size, ties):
    rows, bins = size
    data, p = instance(seed, rows, ties)
    base = gradient_or_error(data, p, bins)
    mirror = gradient_or_error(ABDataset(data.features, data.outcome, 1 - data.arm), -p, bins)
    mirrored = base is mirror if isinstance(base, type) or isinstance(mirror, type) else (
        np.array_equal(mirror.bins, bins + 1 - base.bins)
        and np.array_equal(mirror.segments, 2 - base.segments))
    if ties is not None:
        # the cut rule breaks equal gaps and collisions toward one side
        event(f"tied: bins {'mirror' if mirrored else 'do not mirror'}")
        if not mirrored:
            return
    assert mirrored
    if isinstance(base, type):
        return
    assert np.array_equal(mirror.stats.count, base.stats.count[::-1, ::-1])  # arms swapped too
    # each bin's terms are the same numbers, summed in the reverse order
    before, after = true_lift_loss(base.stats), true_lift_loss(mirror.stats)
    terms = before.bias_term + before.separation_term
    assert abs(after.loss - before.loss) <= 2 * bins * U * terms + 2 * U * abs(before.loss)
    if np.array_equal(mirror.cuts.cuts, -base.cuts.cuts[::-1]):
        # every step of the gradient is the same arithmetic with the signs flipped
        assert np.array_equal(mirror.point_grad, -base.point_grad)
    else:
        # where b - a rounds, the midpoint b - (b - a) / 2 and its mirror a + (b - a) / 2
        # can round one ulp apart, which moves the probe shift dp of the migration slopes
        dp = np.concatenate([base.cuts.cuts - base.inner.minus, base.inner.plus - base.cuts.cuts])
        eps = 8 * U * np.abs(base.cuts.cuts).max() / dp.min()
        bias = 2 * np.abs(base.stats.mean_pred - base.stats.lift).max() / base.stats.total_size
        bound = 2 * eps * (np.abs(base.point_grad).max() + bias)
        assert np.abs(mirror.point_grad + base.point_grad).max() <= bound
