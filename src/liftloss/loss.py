"""Per-bin subset statistics and the binned lift loss.

The loss weighs each bin by its share of the data and combines a bias term
(squared gap between the bin's mean prediction and its measured lift) with a
separation reward (squared gap between the bin's lift and the global lift):

    loss = sum_n w_n * [(mean_pred_n - lift_n)^2 - (lift_n - global_lift)^2]

Every lift here is estimated from outcomes as mean(y | treatment) minus
mean(y | control), so the loss is computable on real A/B-test data where
per-row lifts are unobservable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ABDataset, write_csv

__all__ = [
    "EmptyArmInBinError",
    "SubsetStats",
    "LossReport",
    "bin_table",
    "global_lift",
    "subset_stats",
    "true_lift_loss",
    "pointwise_mse",
    "variance_decomposition",
    "write_loss_report",
]


class EmptyArmInBinError(ValueError):
    """A bin ended up with no treatment or no control rows."""

    def __init__(self, bin_index: int, n_bins: int, arm_name: str):
        self.bin_index = bin_index
        self.n_bins = n_bins
        super().__init__(
            f"bin {bin_index} of {n_bins} has no {arm_name} rows; retry with fewer bins"
        )


# the per-bin columns of SubsetStats, in the order the bin tables list them
BIN_FIELDS = ("size", "size_t", "size_c", "mean_pred", "mean_y_t", "mean_y_c", "lift")


@dataclass(frozen=True)
class SubsetStats:
    """Counts and means per prediction bin, plus the global lift.

    `lift[n]` is the estimated lift of bin n+1: mean treated outcome minus
    mean control outcome within the bin. `max_arm_imbalance` is a
    randomization diagnostic: the largest deviation of a bin's treated share
    from the overall treated share.
    """

    size: np.ndarray
    size_t: np.ndarray
    size_c: np.ndarray
    mean_pred: np.ndarray
    mean_y_t: np.ndarray
    mean_y_c: np.ndarray
    lift: np.ndarray
    total_size: int
    global_lift: float
    max_arm_imbalance: float

    def __post_init__(self) -> None:
        n = self.size.shape[0]
        for name in BIN_FIELDS:
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if not (self.size == self.size_t + self.size_c).all():
            raise ValueError("per-bin sizes must satisfy size = size_t + size_c")
        if (self.size_t < 1).any() or (self.size_c < 1).any():
            raise ValueError("every bin needs at least one row from each arm")
        if int(self.size.sum()) != self.total_size:
            raise ValueError("bin sizes must sum to total_size")

    @property
    def n_bins(self) -> int:
        return self.size.shape[0]


def global_lift(dataset: ABDataset) -> float:
    """Mean treated outcome minus mean control outcome over the whole dataset."""
    treated = dataset.is_treatment
    y = dataset.outcome
    # `compress` picks the rows of `y[mask]` in the same order, several times faster
    return float(np.compress(treated, y).mean() - np.compress(~treated, y).mean())


def subset_stats(
    dataset: ABDataset,
    predictions,
    bins: np.ndarray,
    n_bins: int,
    cached_global_lift: float | None = None,
) -> SubsetStats:
    """Per-bin counts and means from one pass over the rows.

    Raises EmptyArmInBinError if any bin lacks treatment or control rows.
    Passing `cached_global_lift` pins the global lift (useful for minibatches,
    where the batch estimate would be noisier than the full-data value).
    """
    p = np.asarray(predictions, dtype=np.float64)
    if p.shape != (len(dataset),) or np.asarray(bins).shape != (len(dataset),):
        raise ValueError("predictions and bins must align with the dataset rows")
    bins0 = np.asarray(bins) - 1
    if bins0.min() < 0 or bins0.max() >= n_bins:
        raise ValueError("bin index out of range")
    # one bucket per (bin, arm): column 0 is control, column 1 treatment; each
    # bucket sums its rows in row order, as a per-arm masked bincount would
    key = bins0 * 2 + dataset.arm
    count_c, count_t = np.bincount(key, minlength=2 * n_bins).reshape(n_bins, 2).T
    sum_y_c, sum_y_t = (
        np.bincount(key, weights=dataset.outcome, minlength=2 * n_bins).reshape(n_bins, 2).T
    )
    sum_pred = np.bincount(bins0, weights=p, minlength=n_bins)
    for arm_count, arm_name in ((count_t, "treatment"), (count_c, "control")):
        empty = np.flatnonzero(arm_count == 0)
        if empty.size:
            raise EmptyArmInBinError(int(empty[0]) + 1, n_bins, arm_name)
    count = count_c + count_t
    total = int(count.sum())
    total_t = int(count_t.sum())
    if cached_global_lift is None:
        gl = float(sum_y_t.sum() / total_t - sum_y_c.sum() / (total - total_t))
    else:
        gl = float(cached_global_lift)
    mean_y_t = sum_y_t / count_t
    mean_y_c = sum_y_c / count_c
    imbalance = float(np.abs(count_t / count - total_t / total).max())
    return SubsetStats(
        size=count,
        size_t=count_t,
        size_c=count_c,
        mean_pred=sum_pred / count,
        mean_y_t=mean_y_t,
        mean_y_c=mean_y_c,
        lift=mean_y_t - mean_y_c,
        total_size=total,
        global_lift=gl,
        max_arm_imbalance=imbalance,
    )


@dataclass(frozen=True)
class LossReport:
    """Loss value with its bias / separation split and the stats behind it."""

    loss: float
    bias_term: float
    separation_term: float
    n_bins: int
    stats: SubsetStats


def true_lift_loss(stats: SubsetStats) -> LossReport:
    """Evaluate the binned lift loss from subset statistics.

    The report satisfies ``loss == bias_term - separation_term`` exactly.
    """
    weight = stats.size / stats.total_size
    bias = float((weight * (stats.mean_pred - stats.lift) ** 2).sum())
    separation = float((weight * (stats.lift - stats.global_lift) ** 2).sum())
    return LossReport(
        loss=bias - separation,
        bias_term=bias,
        separation_term=separation,
        n_bins=stats.n_bins,
        stats=stats,
    )


def pointwise_mse(discrete_predictions, true_lifts) -> float:
    """Mean squared error of binned predictions against known per-row lifts.

    Oracle metric: usable only on synthetic data where true lifts exist.
    `discrete_predictions[i]` should be the mean prediction of row i's bin.
    """
    if true_lifts is None:
        raise ValueError("pointwise MSE needs true lifts; dataset has none")
    p = np.asarray(discrete_predictions, dtype=np.float64)
    l = np.asarray(true_lifts, dtype=np.float64)
    if p.shape != l.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("predictions and true lifts must be equal-length 1-d arrays")
    if not (np.isfinite(p).all() and np.isfinite(l).all()):
        raise ValueError("inputs contain non-finite values")
    return float(np.mean((p - l) ** 2))


def variance_decomposition(values, groups) -> tuple[float, float, float]:
    """Split total variance into within-group and between-group parts.

    All three use 1/n normalization; ``total == within + between`` holds to
    machine precision.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-d array")
    labels = np.asarray(groups)
    if labels.shape != v.shape:
        raise ValueError("groups must align with values")
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    n = v.size
    mean = v.mean()
    group_means = np.bincount(inverse, weights=v) / counts
    total = float(np.sum((v - mean) ** 2) / n)
    within = float(np.sum((v - group_means[inverse]) ** 2) / n)
    between = float(np.sum(counts * (group_means - mean) ** 2) / n)
    return total, within, between


def bin_table(stats: SubsetStats) -> dict[str, np.ndarray]:
    """The per-bin table by column: `bin` (numbered from 1), then `BIN_FIELDS`."""
    return {"bin": np.arange(1, stats.n_bins + 1)} | {k: getattr(stats, k) for k in BIN_FIELDS}


def write_loss_report(report: LossReport, path: str | Path) -> None:
    """Write per-bin rows as CSV (CRLF rows) with a trailing '#' summary line (LF)."""
    s = report.stats
    table = bin_table(s)
    write_csv(path, list(table), list(table.values()), "\r\n")
    with open(path, "a", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# loss={report.loss!r} bias={report.bias_term!r} "
            f"separation={report.separation_term!r} n_bins={report.n_bins} "
            f"total_size={s.total_size} global_lift={s.global_lift!r}\n"
        )
