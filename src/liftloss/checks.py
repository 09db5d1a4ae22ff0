"""Independent numerical checks of the effective gradient.

`run_gradcheck` evaluates `effective_gradient` once and checks that output,
the same per-row gradient the trainer descends, on every row. Neither check
reuses the gradient module's coefficient arithmetic: the bias channel (all
of a middle row's point gradient) is compared against one central finite
difference of the loss per frozen bin, and each boundary row's migration
part (its point gradient minus the bias channel) against a re-evaluation of
the loss after moving that row between bins, with the lifts updated from
the pre-move arm counts, read with the arm means from the stats' (bin, arm)
table. Neither error grows with the row count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .binning import Segment
from .dataset import ABDataset
from .gradient import MIGRATION_STEP_SCALE, EffectiveGradient, GradConfig, bias_gradient, effective_gradient
from .loss import true_lift_loss

__all__ = [
    "GradCheckResult",
    "bias_fd_check",
    "migration_recompute_check",
    "run_gradcheck",
]

BIAS_TOLERANCE = 1e-7
MIGRATION_TOLERANCE = 1e-10
# decimal digits of the migration oracle's np.longdouble: 18 on x86-64, 15 under MSVC
MIGRATION_DIGITS = np.finfo(np.longdouble).precision


def bias_fd_check(eg: EffectiveGradient) -> float:
    """Max relative error of the bias channel vs frozen-structure central FD.

    Freezes bin membership and every statistic but one bin's mean
    prediction, and differences the loss at +/- h around it, one bin at a
    time. The loss is exactly quadratic in each mean prediction, so the
    difference has no truncation error, and h can be 1% of their spread,
    which keeps rounding flat in the row count. Over the bin size it is the
    derivative for every row of the bin, compared with each middle row's
    point gradient (the bias channel alone) and with `bias_gradient` of
    every bin (a boundary row's bias part; `migration_recompute_check`
    covers the rest).
    """
    s = eg.stats
    h = 1e-2 * float(np.ptp(s.mean_pred))  # > 0: strictly increasing cuts separate the bins

    def loss_at(b, value):
        mean_pred = s.mean_pred.copy()
        mean_pred[b] = value
        return true_lift_loss(replace(s, mean_pred=mean_pred)).loss

    per_row = np.empty(s.n_bins)
    for b, m in enumerate(s.mean_pred):
        hi, lo = m + h, m - h
        per_row[b] = (loss_at(b, hi) - loss_at(b, lo)) / (hi - lo) / s.size[b]
    middle = eg.segments == Segment.MIDDLE
    analytic = np.concatenate([bias_gradient(s, np.arange(1, s.n_bins + 1)), eg.point_grad[middle]])
    oracle = np.concatenate([per_row, per_row[eg.bins[middle] - 1]])
    denom = np.maximum(np.abs(analytic), np.abs(oracle))
    return float((np.abs(analytic - oracle) / np.maximum(denom, 1e-300)).max())


def migration_recompute_check(dataset: ABDataset, eg: EffectiveGradient) -> tuple[float, int]:
    """Compare each boundary row's migration part against a loss re-evaluation.

    The migration part is the row's point gradient minus its bias channel.
    Covers every top/bottom row in one pass, a row that is the last of its
    arm in its bin included. Returns (max relative error, rows checked).
    """
    s, cuts, inner = eg.stats, eg.cuts, eg.inner
    rows = np.flatnonzero(eg.segments != Segment.MIDDLE)
    if rows.size == 0:
        return 0.0, 0
    up = eg.segments[rows] == Segment.TOP
    src = eg.bins[rows] - 1
    dst = np.where(up, src + 1, src - 1)
    k = np.minimum(src, dst)  # the boundary crossed
    inner_edge = np.where(up, inner.minus[k], inner.plus[k])
    dp = MIGRATION_STEP_SCALE * (cuts.cuts[k] - inner_edge)
    # the loss change is about 1/size of the loss terms it differences, so it
    # is taken in extended precision to keep its rounding flat in the rows
    ld = np.longdouble
    # each lift moves by the row's own-arm (mean - y) over the pre-move arm
    # count: with the arm mean for a treated row, against it for a control row
    arm, y = dataset.arm[rows], dataset.outcome[rows].astype(ld)
    sign = 2.0 * arm - 1.0
    lifts, mean_pred, mean_y = s.lift.astype(ld), s.mean_pred.astype(ld), s.mean_y.astype(ld)
    lift_src = lifts[src] + sign * (mean_y[src, arm] - y) / s.count[src, arm]
    lift_dst = lifts[dst] - sign * (mean_y[dst, arm] - y) / s.count[dst, arm]

    def contribution(bin0, lift, grow=0):
        gap, sep = mean_pred[bin0] - lift, lift - ld(s.global_lift)
        return (s.size[bin0] + grow) / ld(s.total_size) * (gap**2 - sep**2)

    # only the two affected bins change, so the loss difference reduces to
    # them; summing the untouched bins would just add cancellation noise
    before = contribution(src, lifts[src]) + contribution(dst, lifts[dst])
    after = contribution(src, lift_src, -1) + contribution(dst, lift_dst, +1)
    a = eg.point_grad[rows] - bias_gradient(s, eg.bins[rows])
    b = ((after - before) / dp).astype(np.float64)
    # every row's error is relative to the instance's largest slope, of either
    # side: a row whose terms cancel to nearly zero, divided by its own size,
    # would amplify double-precision noise into spurious relative error
    floor = max(float(np.maximum(np.abs(a), np.abs(b)).max()), 1e-300)
    worst = float(np.abs(a - b).max()) / floor
    return worst, a.size


@dataclass(frozen=True)
class GradCheckResult:
    bias_max_rel_err: float
    migration_max_rel_err: float
    migration_rows_checked: int

    @property
    def bias_passed(self) -> bool:
        return self.bias_max_rel_err <= BIAS_TOLERANCE

    @property
    def migration_passed(self) -> bool:
        return self.migration_max_rel_err <= MIGRATION_TOLERANCE

    @property
    def passed(self) -> bool:
        return self.bias_passed and self.migration_passed


def run_gradcheck(
    dataset: ABDataset, predictions: np.ndarray, config: GradConfig
) -> GradCheckResult:
    """Check one `effective_gradient` evaluation against both oracles, every row included."""
    eg = effective_gradient(dataset, predictions, config)
    bias_err = bias_fd_check(eg)
    mig_err, checked = migration_recompute_check(dataset, eg)
    return GradCheckResult(bias_err, mig_err, checked)
