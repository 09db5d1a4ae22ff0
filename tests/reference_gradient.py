"""Row-by-row reference implementations of the gradient pipeline.

These are the per-row forms that the coefficient-table gradient in
`liftloss.gradient` and the fused statistics in `liftloss.loss` replace,
kept verbatim, plus written-out forms of the binning steps, so property
tests can compare the two on random instances:

- `reference_cut_sample`: the rows `compute_cuts` reads, drawn afresh;
- `reference_compute_cuts`: edges from `np.unique` counts, each cut's
  nearest edge chosen in a per-cut loop in exact fractions, collisions
  resolved one cut at a time, and for small samples a check against
  `brute_force_cut_sets`, every edge-midpoint cut set that leaves no bin
  empty;
- `reference_spread` and `reference_single_cut_inner_cuts`: the 2-bin
  segment width from two separate `np.quantile` calls, with an `np.ptp`
  fallback, on the sample the cut was read from;
- `reference_inner_cuts`: the blend rule written out per boundary, or the
  single cut's width above;
- `reference_subset_stats`: five masked `bincount`s per call;
- `reference_keyed_subset_stats`: one `bins0 * 2 + arm` key after a
  min/max range check on `bins0 = bins - 1`; both take an unpinned global
  lift as the difference of the boolean-indexed arm means, and both check
  the sizes, total, lifts and arm imbalance that `SubsetStats` derives
  from their table against their own;
- `reference_assign_bins`: the cuts below each row counted in one
  (rows, cuts) comparison table, for every bin count;
- `reference_assign_segments`: per-row boundary indices and masks;
- `reference_fancy_assign_segments`: thresholds gathered by fancy indexing
  with `bins - 1`;
- `bias_gradient`, `loss_partials`, `_lift_deltas`, `_delta_loss` and
  `_migration_gradient`: the bias channel plus the per-row migration slope
  with its 4-way `np.where`;
- `reference_effective_gradient`: the per-row gradient from the reference
  bins, inner cuts, statistics and segments above;
- `reference_whole_gather_gradient`: `effective_gradient` with its
  coefficient tables gathered over all rows at once.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from liftloss.binning import (
    MAX_SORT,
    BinningError,
    CutPoints,
    DegeneratePredictionsError,
    InnerCuts,
    Segment,
    _check_predictions,
    assign_bins,
    assign_segments,
    compute_cuts,
    inner_cuts,
)
from liftloss.gradient import EffectiveGradient, _migration_tables
from liftloss.gradient import bias_gradient as table_bias_gradient
from liftloss.loss import EmptyArmInBinError, SubsetStats, subset_stats


def reference_compute_cuts(
    predictions,
    n_bins: int,
    max_sort: int = MAX_SORT,
    seed: int = 0,
) -> CutPoints:
    p = _check_predictions(predictions)
    if n_bins < 1:
        raise BinningError(f"n_bins must be >= 1, got {n_bins}")
    if n_bins == 1:
        return CutPoints(np.empty(0), 1)
    if max_sort < n_bins:
        raise BinningError(f"max_sort ({max_sort}) must be at least n_bins ({n_bins})")
    sample = reference_cut_sample(p, max_sort, seed)
    values, counts = np.unique(sample, return_counts=True)
    small = comb(2 * values.size - 1, n_bins - 1) <= 2000
    if values.size < n_bins:
        assert not (small and brute_force_cut_sets(sample, n_bins))
        raise DegeneratePredictionsError(
            f"degenerate predictions: need at least {n_bins} distinct values "
            f"to form {n_bins} bins",
            values.size,
        )
    # edge i follows the first cumsum(counts)[i] rows; positions are doubled and scaled by
    # n_bins so that they compare exactly: edge i at 2·n_bins·rows - n_bins, cut k at 2(m - 1)k
    position = 2 * n_bins * np.cumsum(counts)[:-1] - n_bins
    gaps = np.diff(values)
    chosen = []
    for k in range(1, n_bins):
        distance = np.abs(position - 2 * (sample.size - 1) * k)
        nearest = np.flatnonzero(distance == distance.min())
        # a tie goes to the wider gap, then to the upper edge
        chosen.append(int(nearest[gaps[nearest] == gaps[nearest].max()][-1]))
    # collisions, left to right: the next free edge above, leaving one edge for each later cut
    for k in range(len(chosen)):
        floor = chosen[k - 1] + 1 if k else 0
        chosen[k] = min(max(chosen[k], floor), position.size - len(chosen) + k)
    a, b = values[chosen], values[np.array(chosen) + 1]
    cuts = CutPoints(b - (b - a) * 0.5, n_bins, reference_spread(sample))
    if small:
        assert any(np.array_equal(cuts.cuts, c) for c in brute_force_cut_sets(sample, n_bins))
    return cuts


def brute_force_cut_sets(sample, n_bins: int) -> list[np.ndarray]:
    """Every increasing set of `n_bins - 1` cuts that leaves no bin of `sample` empty.

    The candidates are the distinct values and the midpoints between
    neighbouring ones, which together give every way a set of cuts can
    split the values.
    """
    values, counts = np.unique(sample, return_counts=True)
    mids = [b - (b - a) * 0.5 for a, b in zip(values, values[1:])]
    valid = []
    for cuts in combinations(sorted([*values, *mids]), n_bins - 1):
        sizes = [0] * n_bins
        for v, count in zip(values, counts):
            sizes[sum(v > c for c in cuts)] += count
        if min(sizes) > 0:
            valid.append(np.array(cuts))
    return valid


def reference_cut_sample(predictions, max_sort: int = MAX_SORT, seed: int = 0):
    """The predictions, or above `max_sort` of them the seeded subsample."""
    p = np.asarray(predictions, dtype=np.float64)
    if p.size <= max_sort:
        return p
    return p[np.random.default_rng(seed).choice(p.size, size=max_sort, replace=False)]


def reference_spread(sample) -> float:
    """Interquartile range of `sample`, or its range where that is 0."""
    width = float(np.quantile(sample, 0.75) - np.quantile(sample, 0.25))
    if width == 0.0:
        width = float(np.ptp(sample))
    return width


def reference_single_cut_inner_cuts(cuts: CutPoints, sample) -> InnerCuts:
    """Segment bounds of a single cut, one sixth of the spread of `sample`,
    the predictions the cut was read from, on each side."""
    assert cuts.n_bins == 2
    width = reference_spread(_check_predictions(sample))
    if width == 0.0:
        raise DegeneratePredictionsError("cannot size segments: predictions are constant", 1)
    offset = width / 6.0
    return InnerCuts(cuts.cuts - offset, cuts.cuts + offset)


def reference_inner_cuts(cuts: CutPoints, sample) -> InnerCuts:
    """Segment bounds one third of the way to each neighbouring cut, one
    boundary at a time; the outermost bounds mirror their inner gap. A
    single cut takes its width from `sample`, the predictions it was read
    from."""
    c = cuts.cuts
    k = c.size
    if k == 1:
        return reference_single_cut_inner_cuts(cuts, sample)
    minus = np.empty(k)
    plus = np.empty(k)
    for j in range(k):
        if j == 0:
            minus[j] = c[0] - (c[1] - c[0]) / 3.0
        else:
            minus[j] = (2.0 / 3.0) * c[j] + (1.0 / 3.0) * c[j - 1]
        if j == k - 1:
            plus[j] = c[k - 1] + (c[k - 1] - c[k - 2]) / 3.0
        else:
            plus[j] = (2.0 / 3.0) * c[j] + (1.0 / 3.0) * c[j + 1]
    return InnerCuts(minus, plus)


def reference_subset_stats(bins, predictions, outcome, arm, n_bins, cached_global_lift=None):
    """Per-bin stats from one masked `bincount` per summed quantity."""
    bins0 = np.asarray(bins) - 1
    if bins0.min() < 0 or bins0.max() >= n_bins:
        raise ValueError("bin index out of range")
    treated = np.asarray(arm) == 1
    count = np.zeros(n_bins, dtype=np.int64)
    count_t = np.zeros(n_bins, dtype=np.int64)
    sum_pred = np.zeros(n_bins)
    sum_y_t = np.zeros(n_bins)
    sum_y_c = np.zeros(n_bins)
    count += np.bincount(bins0, minlength=n_bins)
    count_t += np.bincount(bins0[treated], minlength=n_bins)
    sum_pred += np.bincount(bins0, weights=predictions, minlength=n_bins)
    sum_y_t += np.bincount(bins0[treated], weights=np.asarray(outcome)[treated], minlength=n_bins)
    sum_y_c += np.bincount(bins0[~treated], weights=np.asarray(outcome)[~treated], minlength=n_bins)

    count_c = count - count_t
    for arm_count, arm_name in ((count_t, "treatment"), (count_c, "control")):
        empty = np.flatnonzero(arm_count == 0)
        if empty.size:
            k = int(empty[0])
            # a bin with no rows at all is reported as empty, not as missing an arm
            raise EmptyArmInBinError(k + 1, n_bins, arm_name if count[k] else None)
    total = int(count.sum())
    total_t = int(count_t.sum())
    if cached_global_lift is None:
        y, arm = np.asarray(outcome), np.asarray(arm)
        gl = float(y[arm == 1].mean() - y[arm == 0].mean())
    else:
        gl = float(cached_global_lift)
    mean_y_t = sum_y_t / count_t
    mean_y_c = sum_y_c / count_c
    imbalance = float(np.abs(count_t / count - total_t / total).max())
    return _checked_stats(count_c, count_t, mean_y_c, mean_y_t, sum_pred / count, gl,
                          count, total, imbalance)


def _checked_stats(count_c, count_t, mean_y_c, mean_y_t, mean_pred, gl, count, total, imbalance):
    """The per-(bin, arm) table of per-arm arrays; its derived values must equal the caller's own."""
    stats = SubsetStats(np.stack([count_c, count_t], axis=1), np.stack([mean_y_c, mean_y_t], axis=1),
                        mean_pred, gl)
    assert stats.size.tobytes() == count.tobytes() and stats.total_size == total
    assert stats.lift.tobytes() == (mean_y_t - mean_y_c).tobytes()
    assert stats.max_arm_imbalance == imbalance
    return stats


def reference_keyed_subset_stats(dataset, predictions, bins, n_bins, cached_global_lift=None):
    """Per-bin stats from one `bins0 * 2 + arm` key, range-checked by min/max."""
    p = np.asarray(predictions, dtype=np.float64)
    if p.shape != (len(dataset),) or np.asarray(bins).shape != (len(dataset),):
        raise ValueError("predictions and bins must align with the dataset rows")
    bins0 = np.asarray(bins) - 1
    if bins0.min() < 0 or bins0.max() >= n_bins:
        raise ValueError("bin index out of range")
    key = bins0 * 2 + dataset.arm
    count_c, count_t = np.bincount(key, minlength=2 * n_bins).reshape(n_bins, 2).T
    sum_y_c, sum_y_t = (
        np.bincount(key, weights=dataset.outcome, minlength=2 * n_bins).reshape(n_bins, 2).T
    )
    sum_pred = np.bincount(bins0, weights=p, minlength=n_bins)
    count = count_c + count_t
    for arm_count, arm_name in ((count_t, "treatment"), (count_c, "control")):
        empty = np.flatnonzero(arm_count == 0)
        if empty.size:
            k = int(empty[0])
            raise EmptyArmInBinError(k + 1, n_bins, arm_name if count[k] else None)
    total = int(count.sum())
    total_t = int(count_t.sum())
    if cached_global_lift is None:
        y, arm = dataset.outcome, dataset.arm
        gl = float(y[arm == 1].mean() - y[arm == 0].mean())
    else:
        gl = float(cached_global_lift)
    mean_y_t = sum_y_t / count_t
    mean_y_c = sum_y_c / count_c
    imbalance = float(np.abs(count_t / count - total_t / total).max())
    return _checked_stats(count_c, count_t, mean_y_c, mean_y_t, sum_pred / count, gl,
                          count, total, imbalance)


def reference_assign_bins(predictions, cuts: CutPoints) -> np.ndarray:
    """1 + #(cuts < p), from one (rows, cuts) comparison table, for every bin count."""
    p = _check_predictions(predictions)
    return (1 + (p[:, None] > cuts.cuts).sum(axis=1)).astype(np.intp)


def reference_fancy_assign_segments(predictions, inner: InnerCuts, bins) -> np.ndarray:
    """Bottom / middle / top labels from thresholds gathered at `bins - 1`."""
    p = _check_predictions(predictions)
    b0 = bins - 1
    top = p > np.append(inner.minus, np.inf)[b0]
    seg = top.view(np.int8) + np.int8(Segment.MIDDLE)
    seg -= (p < np.insert(inner.plus, 0, -np.inf)[b0]) & ~top
    return seg


def reference_assign_segments(p, cuts: CutPoints, inner: InnerCuts, bins) -> np.ndarray:
    """Bottom / middle / top labels from per-row boundary indices."""
    seg = np.full(p.shape, Segment.MIDDLE, dtype=np.int8)
    n_bins = cuts.n_bins
    if n_bins == 1:
        return seg
    k = n_bins - 1
    upper = np.minimum(bins - 1, k - 1)  # 0-based index of the bin's upper boundary
    lower = np.maximum(bins - 2, 0)  # 0-based index of the bin's lower boundary
    top = (bins < n_bins) & (p > inner.minus[upper])
    bottom = (bins > 1) & (p < inner.plus[lower]) & ~top
    seg[top] = Segment.TOP
    seg[bottom] = Segment.BOTTOM
    return seg


def bias_gradient(stats: SubsetStats, bin_index):
    idx = np.asarray(bin_index) - 1
    g = 2.0 * (stats.mean_pred[idx] - stats.lift[idx]) / stats.total_size
    if np.isscalar(bin_index) or np.ndim(bin_index) == 0:
        return float(g)
    return g


def loss_partials(stats: SubsetStats) -> tuple[np.ndarray, np.ndarray]:
    weight = stats.size / stats.total_size
    pred_gap = stats.mean_pred - stats.lift
    sep_gap = stats.lift - stats.global_lift
    d_lift = weight * (-2.0 * pred_gap - 2.0 * sep_gap)
    d_size = (pred_gap**2 - sep_gap**2) / stats.total_size
    return d_lift, d_size


def _lift_deltas(stats: SubsetStats, y, treated, from0, to0):
    (size_c, size_t), (mean_y_c, mean_y_t) = stats.count.T, stats.mean_y.T
    d_from_t = (mean_y_t[from0] - y) / size_t[from0]
    d_to_t = (y - mean_y_t[to0]) / size_t[to0]
    d_from_c = (y - mean_y_c[from0]) / size_c[from0]
    d_to_c = (mean_y_c[to0] - y) / size_c[to0]
    d_from = np.where(treated, d_from_t, d_from_c)
    d_to = np.where(treated, d_to_t, d_to_c)
    return d_from, d_to


def _delta_loss(stats: SubsetStats, d_lift, d_size, y, treated, from0, to0):
    dl_from, dl_to = _lift_deltas(stats, y, treated, from0, to0)
    slope_from = -2.0 * (stats.mean_pred[from0] - stats.global_lift) / stats.total_size
    slope_to = -2.0 * (stats.mean_pred[to0] - stats.global_lift) / stats.total_size
    return (
        d_lift[from0] * dl_from
        - d_size[from0]
        + d_lift[to0] * dl_to
        + d_size[to0]
        - dl_from * slope_from  # size drops by one in the source bin
        + dl_to * slope_to  # and grows by one in the destination
    )


def _migration_gradient(
    stats: SubsetStats,
    cuts: CutPoints,
    inner: InnerCuts,
    outcome: np.ndarray,
    treated: np.ndarray,
    bins: np.ndarray,
    segments: np.ndarray,
    scale: float,
) -> np.ndarray:
    d_lift, d_size = loss_partials(stats)
    out = np.zeros(outcome.shape)
    for seg, step in ((Segment.TOP, 1), (Segment.BOTTOM, -1)):
        mask = segments == seg
        if not mask.any():
            continue
        b = bins[mask]
        from0 = b - 1
        to0 = b - 1 + step
        boundary = b - 1 if step == 1 else b - 2
        edge = cuts.cuts[boundary]
        dp = scale * (edge - (inner.minus[boundary] if step == 1 else inner.plus[boundary]))
        delta = _delta_loss(stats, d_lift, d_size, outcome[mask], treated[mask], from0, to0)
        out[mask] = delta / dp
    return out


def reference_effective_gradient(dataset, predictions, cuts, sample, cached_global_lift, scale):
    """Per-row gradient built only from the reference helpers above.

    `sample` is the predictions `cuts` were read from (`reference_cut_sample`
    of the ones passed to `compute_cuts`). Returns (point_grad, segments).
    """
    p = np.asarray(predictions, dtype=np.float64)
    bins = reference_assign_bins(p, cuts)
    stats = reference_subset_stats(
        bins, p, dataset.outcome, dataset.arm, cuts.n_bins, cached_global_lift
    )
    inner = reference_inner_cuts(cuts, sample)
    segments = reference_assign_segments(p, cuts, inner, bins)
    grad = bias_gradient(stats, bins)
    grad += _migration_gradient(
        stats, cuts, inner, dataset.outcome, dataset.is_treatment, bins, segments, scale
    )
    return grad, segments


def reference_whole_gather_gradient(
    dataset, predictions, config, cached_global_lift=None, cuts=None
) -> EffectiveGradient:
    """`effective_gradient` with the index and migration arrays spanning all rows."""
    p = np.asarray(predictions, dtype=np.float64)
    if p.shape != (len(dataset),):
        raise ValueError("predictions must align with the dataset rows")
    if cuts is None:
        cuts = compute_cuts(p, config.n_bins)
    bins = assign_bins(p, cuts)
    stats = subset_stats(dataset, p, bins, cuts.n_bins, cached_global_lift)
    inner = inner_cuts(cuts)
    segments = assign_segments(p, inner, bins)
    a, b = _migration_tables(stats, cuts, inner)
    a += table_bias_gradient(stats, np.arange(1, cuts.n_bins + 1))[:, None, None]
    # idx = (bin - 1) * 6 + segment * 2 + arm; the small terms stay int8
    idx = bins * 6
    idx += segments * 2 + dataset.arm - 6
    grad = a.take(idx)
    migration = b.take(idx)
    migration *= dataset.outcome
    grad += migration
    if not np.isfinite(grad).all():
        raise FloatingPointError("effective gradient produced non-finite values")
    return EffectiveGradient(grad, stats, cuts, inner, bins, segments)
