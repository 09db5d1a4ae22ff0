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
    "write_loss_report",
]


class EmptyArmInBinError(ValueError):
    """A bin has no rows of one arm, or none at all (`arm_name` None; only reused or given bins)."""

    def __init__(
        self, bin_index: int, n_bins: int, arm_name: str | None, advice="retry with fewer bins"
    ):
        self.bin_index = bin_index
        self.n_bins = n_bins
        self.arm_name = arm_name
        rows = "rows" if arm_name is None else f"{arm_name} rows"
        super().__init__(f"bin {bin_index} of {n_bins} has no {rows}; {advice}")


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
    """Mean treated minus mean control outcome over all rows: the one global-lift estimate."""
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

    Rows are counted and summed by one `bincount` key, `bins * 2 + arm`, in
    the integer width of the row indices, so `int8` or list bins cannot wrap.
    The same counts hold the range check: a bin below 1 makes the key
    negative or lands in buckets 0 and 1, and a bin above `n_bins` lengthens
    the result. Raises EmptyArmInBinError if any bin lacks treatment or
    control rows. The global lift is `global_lift(dataset)`, which `train`
    pins, unless `cached_global_lift` pins another (for a minibatch, the
    full data's, which is less noisy than the batch's).
    """
    p = np.asarray(predictions, dtype=np.float64)
    bins = np.asarray(bins)
    if p.shape != (len(dataset),) or bins.shape != (len(dataset),):
        raise ValueError("predictions and bins must align with the dataset rows")
    # before the key, so the lift's temporaries and the key are never alive together
    gl = global_lift(dataset) if cached_global_lift is None else float(cached_global_lift)
    # one bucket per (bin, arm): column 0 is control, column 1 treatment; each
    # bucket sums its rows in row order, as a per-arm masked bincount would
    key = np.multiply(bins, 2, dtype=np.intp)
    key += dataset.arm
    n_keys = 2 * n_bins + 2
    try:
        counts = np.bincount(key, minlength=n_keys)
    except ValueError:  # a negative key
        raise ValueError("bin index out of range") from None
    if counts.size > n_keys or counts[0] or counts[1]:
        raise ValueError("bin index out of range")
    count_c, count_t = counts[2:].reshape(n_bins, 2).T
    # the writeable view of the outcome: bincount would copy the read-only column
    y = dataset._outcome_weights
    sum_y_c, sum_y_t = np.bincount(key, weights=y, minlength=n_keys)[2:].reshape(n_bins, 2).T
    sum_pred = np.bincount(bins, weights=p, minlength=n_bins + 1)[1:]
    count = count_c + count_t
    for arm_count, arm_name in ((count_t, "treatment"), (count_c, "control")):
        empty = np.flatnonzero(arm_count == 0)
        if empty.size:
            k = int(empty[0])
            raise EmptyArmInBinError(k + 1, n_bins, arm_name if count[k] else None)
    total = int(count.sum())
    total_t = int(count_t.sum())
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
