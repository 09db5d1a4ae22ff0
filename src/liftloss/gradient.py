"""Per-row effective gradient of the binned lift loss.

The loss jumps whenever a row crosses a bin boundary, so plain derivatives
miss the part of the signal that comes from regrouping rows. The effective
gradient adds a finite-difference slope for rows near a boundary: shift the
row's prediction just far enough to cross, apply the resulting changes to
the two affected bins (one row leaves, one bin gains it, both lifts move),
and divide the loss change by the prediction shift, `MIGRATION_STEP_SCALE`
(half) of the row's segment width. Rows deep inside a bin keep only the
smooth bias-channel derivative.

The loss change is a linearization, not the exact recomputed loss: each
lift moves by the one-row update `(y - mean) / n` with the bin's pre-move
arm count `n` as denominator, where an exact move would divide by `n - 1`
on leaving and `n + 1` on joining. The loss is linear in each bin's lift and
size, and these lift updates are affine in the row's outcome `y`, so every
row's gradient is

    A[bin, segment, arm] + B[bin, segment, arm] * y

a table of `6 * n_bins` coefficients built once per call from the per-bin
statistics; the per-row work is one gather from each table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import (
    BIN_BLOCK_ROWS,
    MAX_SORT,
    CutPoints,
    InnerCuts,
    Segment,
    assign_bins,
    assign_segments,
    compute_cuts,
    inner_cuts,
)
from .dataset import ABDataset
from .loss import SubsetStats, subset_stats

__all__ = [
    "MIGRATION_STEP_SCALE",
    "GradConfig",
    "EffectiveGradient",
    "bias_gradient",
    "loss_partials",
    "effective_gradient",
]

# the probe shift over the segment width; about half the segment's rows would cross
MIGRATION_STEP_SCALE = 0.5

# PointGradient: the per-row gradient is a plain float64 array aligned with
# the dataset rows; see EffectiveGradient.point_grad.


@dataclass(frozen=True)
class GradConfig:
    """Knobs for the effective gradient.

    `rebin_every` is the cut-refresh cadence used by the trainer; `n_bins`
    is at most `MAX_SORT`, the size of the cut sample. The probe shift is
    the constant `MIGRATION_STEP_SCALE` of the segment width.
    """

    n_bins: int
    rebin_every: int = 1

    def __post_init__(self) -> None:
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2 for gradient descent, got {self.n_bins}")
        if self.n_bins > MAX_SORT:
            raise ValueError(f"n_bins must be <= MAX_SORT ({MAX_SORT}), got {self.n_bins}")
        if self.rebin_every < 1:
            raise ValueError("rebin_every must be a positive integer")


@dataclass(frozen=True)
class EffectiveGradient:
    """Effective gradient plus the bin structure it was computed on."""

    point_grad: np.ndarray
    stats: SubsetStats
    cuts: CutPoints
    inner: InnerCuts
    bins: np.ndarray
    segments: np.ndarray


def bias_gradient(stats: SubsetStats, bins: np.ndarray) -> np.ndarray:
    """Smooth part of d(loss)/d(prediction) for rows in the given 1-based bins.

    Equals 2 * (mean_pred_n - lift_n) / total_size, one value per entry of `bins`.
    """
    idx = bins - 1
    return 2.0 * (stats.mean_pred[idx] - stats.lift[idx]) / stats.total_size


def loss_partials(stats: SubsetStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin partial derivatives of the loss w.r.t. bin lift and bin size.

    Everything else (mean predictions, global lift, total size) is treated
    as constant. Returns (d_loss/d_lift, d_loss/d_size) arrays.
    """
    weight = stats.size / stats.total_size
    pred_gap = stats.mean_pred - stats.lift
    sep_gap = stats.lift - stats.global_lift
    d_lift = weight * (-2.0 * pred_gap - 2.0 * sep_gap)
    d_size = (pred_gap**2 - sep_gap**2) / stats.total_size
    return d_lift, d_size


def _migration_tables(
    stats: SubsetStats, cuts: CutPoints, inner: InnerCuts
) -> tuple[np.ndarray, np.ndarray]:
    """Migration slope coefficients, indexed [bin - 1, segment, arm].

    A row's migration slope is `a + b * y`. Moving one row changes the
    source and destination lifts by amounts affine in its outcome `y`
    (pre-move arm counts as denominators; joining a bin is the negation of
    leaving it), and the loss is linear in each bin's lift and size, so the
    linearized loss change over the probe shift is affine in `y` too. Middle
    segments and the edge bins' outward segments stay zero.
    """
    n = stats.n_bins
    d_lift, d_size = loss_partials(stats)
    # the size partial moves with the lift, d(d_size)/d(lift) = -size_slope, so
    # a bin that loses a row weighs its lift change by d_lift + size_slope and
    # one that gains a row by d_lift - size_slope
    size_slope = 2.0 * (stats.mean_pred - stats.global_lift) / stats.total_size
    w_from = (d_lift + size_slope)[:, None]
    w_to = (d_lift - size_slope)[:, None]
    # lift change of a bin when one row of arm (control, treatment) leaves it
    sign = np.array([-1.0, 1.0])
    leave_a = sign * stats.mean_y / stats.count
    leave_b = -sign / stats.count
    a = np.zeros((n, 3, 2))
    b = np.zeros((n, 3, 2))
    dp_up = (MIGRATION_STEP_SCALE * (cuts.cuts - inner.minus))[:, None]
    dp_down = (MIGRATION_STEP_SCALE * (cuts.cuts - inner.plus))[:, None]
    for src, dst, seg, dp in (
        (slice(None, -1), slice(1, None), Segment.TOP, dp_up),
        (slice(1, None), slice(None, -1), Segment.BOTTOM, dp_down),
    ):
        gain = (d_size[dst] - d_size[src])[:, None]
        a[src, seg] = (w_from[src] * leave_a[src] - w_to[dst] * leave_a[dst] + gain) / dp
        b[src, seg] = (w_from[src] * leave_b[src] - w_to[dst] * leave_b[dst]) / dp
    return a, b


def _binned_stats(
    dataset: ABDataset, p: np.ndarray, config: GradConfig, cached_global_lift, cuts
) -> tuple[CutPoints, np.ndarray, SubsetStats, InnerCuts]:
    """The cuts, bins, per-bin statistics and segment boundaries of `effective_gradient`.

    All the binned loss needs, with the same errors in the same order; `train`
    calls it alone at its last step, whose gradient nothing reads.
    """
    if p.shape != (len(dataset),):
        raise ValueError("predictions must align with the dataset rows")
    if cuts is None:
        cuts = compute_cuts(p, config.n_bins)
    bins = assign_bins(p, cuts)
    stats = subset_stats(dataset, p, bins, cuts.n_bins, cached_global_lift)
    return cuts, bins, stats, inner_cuts(cuts)


def effective_gradient(
    dataset: ABDataset,
    predictions,
    config: GradConfig,
    cached_global_lift: float | None = None,
    cuts: CutPoints | None = None,
) -> EffectiveGradient:
    """Full per-row gradient: bias channel plus boundary migrations.

    Pass `cuts` to reuse an earlier step's boundaries and segment widths
    instead of recomputing quantiles (the trainer does this on its
    `rebin_every` cadence). Raises EmptyArmInBinError when a bin lacks an
    arm and DegeneratePredictionsError when the predictions cannot fill the bins.
    The tables are gathered `BIN_BLOCK_ROWS` rows at a time, so the call
    peaks at about 19 B/row beyond its inputs at 1M rows and 23 at 200k
    (tracemalloc, 10 bins): bins, segments, the gradient and its
    finiteness mask, plus one block's indices and migration part.
    """
    p = np.asarray(predictions, dtype=np.float64)
    cuts, bins, stats, inner = _binned_stats(dataset, p, config, cached_global_lift, cuts)
    segments = assign_segments(p, inner, bins)
    a, b = _migration_tables(stats, cuts, inner)
    a += bias_gradient(stats, np.arange(1, cuts.n_bins + 1))[:, None, None]
    grad = np.empty(p.shape)
    idx_buf = np.empty(min(p.size, BIN_BLOCK_ROWS), dtype=np.intp)
    migration_buf = np.empty(idx_buf.shape)
    for start in range(0, p.size, BIN_BLOCK_ROWS):
        k = min(BIN_BLOCK_ROWS, p.size - start)
        rows = slice(start, start + k)
        # idx = (bin - 1) * 6 + segment * 2 + arm; the small terms stay int8
        idx = np.multiply(bins[rows], 6, out=idx_buf[:k])
        idx += segments[rows] * 2 + dataset.arm[rows] - 6
        # every index is in range by construction; "raise" would gather into a
        # copy of `out` first, "clip" writes it directly
        a.take(idx, out=grad[rows], mode="clip")
        migration = b.take(idx, out=migration_buf[:k], mode="clip")
        migration *= dataset.outcome[rows]
        grad[rows] += migration
    if not np.isfinite(grad).all():
        raise FloatingPointError("effective gradient produced non-finite values")
    return EffectiveGradient(grad, stats, cuts, inner, bins, segments)
