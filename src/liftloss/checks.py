"""Independent numerical checks of the effective gradient.

`run_gradcheck` evaluates `effective_gradient` once and checks that output,
the same per-row gradient the trainer descends. Neither check reuses the
gradient module's coefficient arithmetic: the bias channel (all of a middle
row's point gradient) is compared against central finite differences of the
loss with the bin structure frozen, and each boundary row's migration part
(its point gradient minus the bias channel) against a re-evaluation of the
loss after moving that row between bins, with the lifts updated from the
pre-move arm counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .binning import Segment
from .dataset import ABDataset
from .gradient import EffectiveGradient, GradConfig, bias_gradient, effective_gradient
from .loss import SubsetStats, true_lift_loss

__all__ = [
    "GradCheckResult",
    "bias_fd_check",
    "migration_recompute_check",
    "moved_row_stats",
    "run_gradcheck",
]

BIAS_TOLERANCE = 1e-6
MIGRATION_TOLERANCE = 1e-10


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def bias_fd_check(
    eg: EffectiveGradient, predictions: np.ndarray, sample_rows: int = 100, seed: int = 0
) -> float:
    """Max relative error of the bias gradient vs frozen-structure central FD.

    Freezes bin membership and every statistic except the perturbed bin's
    mean prediction, then differences the loss around +/- eps shifts of a
    single row's prediction. A middle row's gradient is the bias channel
    alone, so its FD is compared with the row's `point_grad`; a boundary
    row's with `bias_gradient`, since its point gradient adds the migration
    part that `migration_recompute_check` covers.
    """
    if sample_rows < 1:
        raise ValueError(f"sample_rows must be at least 1, got {sample_rows}")
    stats, bins = eg.stats, eg.bins
    rng = np.random.default_rng(seed)
    rows = rng.choice(bins.size, size=min(sample_rows, bins.size), replace=False)
    worst = 0.0
    for i in rows:
        b0 = bins[i] - 1
        eps = 1e-4 * max(1.0, abs(float(predictions[i])))
        shift = eps / stats.size[b0]
        hi = stats.mean_pred.copy()
        hi[b0] += shift
        lo = stats.mean_pred.copy()
        lo[b0] -= shift
        loss_hi = true_lift_loss(replace(stats, mean_pred=hi)).loss
        loss_lo = true_lift_loss(replace(stats, mean_pred=lo)).loss
        fd = (loss_hi - loss_lo) / (2.0 * eps)
        if eg.segments[i] == Segment.MIDDLE:
            analytic = eg.point_grad[i]
        else:
            analytic = bias_gradient(stats, int(bins[i]))
        worst = max(worst, _rel_err(fd, analytic))
    return worst


def moved_row_stats(stats: SubsetStats, y: float, treated: bool, from0: int, to0: int) -> SubsetStats:
    """Stats after one row moves between bins, with the lift updates applied
    incrementally using the pre-move arm counts; mean predictions and the
    global lift stay fixed."""
    size = stats.size.copy()
    size_t = stats.size_t.copy()
    size_c = stats.size_c.copy()
    lift = stats.lift.copy()
    if treated:
        lift[from0] += (stats.mean_y_t[from0] - y) / stats.size_t[from0]
        lift[to0] += (y - stats.mean_y_t[to0]) / stats.size_t[to0]
        size_t[from0] -= 1
        size_t[to0] += 1
    else:
        lift[from0] += (y - stats.mean_y_c[from0]) / stats.size_c[from0]
        lift[to0] += (stats.mean_y_c[to0] - y) / stats.size_c[to0]
        size_c[from0] -= 1
        size_c[to0] += 1
    size[from0] -= 1
    size[to0] += 1
    return replace(stats, size=size, size_t=size_t, size_c=size_c, lift=lift)


def migration_recompute_check(
    dataset: ABDataset, eg: EffectiveGradient, config: GradConfig, sabotage: bool = False
) -> tuple[float, int]:
    """Compare each boundary row's migration part against a loss re-evaluation.

    The migration part is the row's point gradient minus its bias channel.
    Covers every top/bottom row. Returns (max relative error, rows checked).
    `sabotage` flips the sign of the computed terms, for verifying that the
    check actually detects a wrong gradient.
    """
    stats, cuts, inner, bins = eg.stats, eg.cuts, eg.inner, eg.bins
    scale = config.migration_step_scale
    rows = np.flatnonzero(eg.segments != Segment.MIDDLE)
    if rows.size == 0:
        return 0.0, 0

    def bin_contributions(s: SubsetStats, idx) -> float:
        w = s.size[idx] / s.total_size
        return float(
            (w * ((s.mean_pred[idx] - s.lift[idx]) ** 2 - (s.lift[idx] - s.global_lift) ** 2)).sum()
        )

    oracles = []
    for i in rows:
        up = eg.segments[i] == Segment.TOP
        b = int(bins[i])
        from0 = b - 1
        to0 = b if up else b - 2
        boundary = b - 1 if up else b - 2
        if up:
            dp = scale * (cuts.cuts[boundary] - inner.minus[boundary])
        else:
            dp = scale * (cuts.cuts[boundary] - inner.plus[boundary])
        moved = moved_row_stats(
            stats, float(dataset.outcome[i]), bool(dataset.arm[i]), from0, to0
        )
        # only the two affected bins change, so the loss difference reduces to
        # them; summing the untouched bins would just add cancellation noise
        affected = np.array([from0, to0])
        oracles.append(
            (bin_contributions(moved, affected) - bin_contributions(stats, affected)) / dp
        )
    a = eg.point_grad[rows] - bias_gradient(stats, bins[rows])
    if sabotage:
        a = -a
    b = np.asarray(oracles)
    # normalize each row against its own magnitude or the instance's largest
    # slope, whichever is bigger: rows whose terms cancel to nearly zero would
    # otherwise amplify double-precision noise into spurious relative error
    denom = np.maximum(np.abs(a), np.abs(b))
    floor = max(float(denom.max()), 1e-300)
    worst = float((np.abs(a - b) / np.maximum(denom, floor)).max())
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
    dataset: ABDataset,
    predictions: np.ndarray,
    config: GradConfig,
    sample_rows: int = 100,
    seed: int = 0,
    sabotage: bool = False,
) -> GradCheckResult:
    """Check one `effective_gradient` evaluation against both oracles."""
    eg = effective_gradient(dataset, predictions, config)
    bias_err = bias_fd_check(eg, predictions, sample_rows, seed)
    mig_err, checked = migration_recompute_check(dataset, eg, config, sabotage)
    return GradCheckResult(bias_err, mig_err, checked)
