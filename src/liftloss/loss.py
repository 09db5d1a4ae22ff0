"""Per-bin subset statistics and the binned lift loss.

The loss weighs each bin by its share of the data and combines a bias term
(squared gap between the bin's mean prediction and its measured lift) with a
separation reward (squared gap between the bin's lift and the global lift):

    loss = sum_n w_n * [(mean_pred_n - lift_n)^2 - (lift_n - global_lift)^2]

Every lift here is estimated from outcomes as mean(y | treatment) minus
mean(y | control), so the loss is computable on real A/B-test data where
per-row lifts are unobservable. So the loss reads a table of row counts and
mean outcomes per (bin, arm), `SubsetStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._threads import over_rows
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
        self.advice = advice
        rows = "rows" if arm_name is None else f"{arm_name} rows"
        super().__init__(f"bin {bin_index} of {n_bins} has no {rows}; {advice}")


@dataclass(frozen=True)
class SubsetStats:
    """The per-(bin, arm) table behind the loss, plus the global lift.

    `count[n, a]` and `mean_y[n, a]` are the rows and mean outcome of bin n+1
    in arm a, column 0 control and 1 treatment as in the dataset's arm;
    `mean_pred[n]` is the bin's mean prediction. Only these and the global
    lift are set. `size`, `total_size` and `lift` (mean treated minus mean
    control outcome) are derived from them, and `max_arm_imbalance`, the
    largest gap between a bin's treated share and the overall one, when read.
    The one emptiness check: EmptyArmInBinError for the first bin without
    treatment rows, else without control rows, naming no arm if it has no rows.
    """

    count: np.ndarray
    mean_y: np.ndarray
    mean_pred: np.ndarray
    global_lift: float
    size: np.ndarray = field(init=False)
    lift: np.ndarray = field(init=False)
    total_size: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.count.shape[0]
        if (self.count.shape, self.mean_y.shape, self.mean_pred.shape) != ((n, 2), (n, 2), (n,)):
            raise ValueError(f"count and mean_y must have shape ({n}, 2) and mean_pred ({n},)")
        size = self.count.sum(axis=1)
        for arm, arm_name in ((1, "treatment"), (0, "control")):
            empty = np.flatnonzero(self.count[:, arm] < 1)
            if empty.size:
                k = int(empty[0])
                raise EmptyArmInBinError(k + 1, n, arm_name if size[k] else None)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "lift", self.mean_y[:, 1] - self.mean_y[:, 0])
        object.__setattr__(self, "total_size", int(size.sum()))

    @property
    def n_bins(self) -> int:
        return self.count.shape[0]

    @property
    def max_arm_imbalance(self) -> float:
        treated = self.count[:, 1]
        return float(np.abs(treated / self.size - int(treated.sum()) / self.total_size).max())


def global_lift(dataset: ABDataset) -> float:
    """Mean treated minus mean control outcome over all rows: the one global-lift estimate.

    Outcome sums beyond float64 give inf or nan without a warning;
    `subset_stats` rejects such a lift.
    """
    treated = dataset.is_treatment
    y = dataset.outcome
    # `compress` picks the rows of `y[mask]` in the same order, several times faster
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.compress(treated, y).mean() - np.compress(~treated, y).mean())


def subset_stats(
    dataset: ABDataset,
    predictions,
    bins: np.ndarray,
    n_bins: int,
    cached_global_lift: float | None = None,
) -> SubsetStats:
    """The per-(bin, arm) table of counts and mean outcomes, from one pass over the rows.

    Rows are counted and summed by one `bincount` key, `bins * 2 + arm`, in
    the integer width of the row indices, so `int8` or list bins cannot wrap;
    its buckets, reshaped to (n_bins, 2), are the table's cells. The key is
    built on one contiguous range of rows per usable CPU once each range gets
    `MIN_SPLIT_ROWS` (131,072) rows. The `bincount`s run whole on the
    caller's thread: each adds a bucket's rows in row order, and adding
    per-range partial sums instead would round differently. The same
    counts hold the range check: a bin below 1 makes the key negative or
    lands in buckets 0 and 1, and a bin above `n_bins` lengthens the result.
    An empty cell raises EmptyArmInBinError from `SubsetStats`, and then a
    non-finite mean prediction, lift or global lift (sums beyond float64)
    FloatingPointError, without a RuntimeWarning. The global lift is
    `global_lift(dataset)`, which `train` pins, unless `cached_global_lift`
    pins another (for a minibatch, the full data's, which is less noisy than
    the batch's).
    """
    p = np.asarray(predictions, dtype=np.float64)
    bins = np.asarray(bins)
    if p.shape != (len(dataset),) or bins.shape != (len(dataset),):
        raise ValueError("predictions and bins must align with the dataset rows")
    # before the key, so the lift's temporaries and the key are never alive together
    gl = global_lift(dataset) if cached_global_lift is None else float(cached_global_lift)
    key = np.empty(p.shape, dtype=np.intp)

    def run(rows):
        k = np.multiply(bins[rows], 2, out=key[rows], dtype=np.intp)
        k += dataset.arm[rows]

    over_rows(p.size, run)
    # each bucket sums its rows in row order, as a per-arm masked bincount would
    n_keys = 2 * n_bins + 2
    try:
        counts = np.bincount(key, minlength=n_keys)
    except ValueError:  # a negative key
        raise ValueError("bin index out of range") from None
    if counts.size > n_keys or counts[0] or counts[1]:
        raise ValueError("bin index out of range")
    count = counts[2:].reshape(n_bins, 2)
    # the writeable view of the outcome: bincount would copy the read-only column
    y = dataset._outcome_weights
    sum_y = np.bincount(key, weights=y, minlength=n_keys)[2:].reshape(n_bins, 2)
    sum_pred = np.bincount(bins, weights=p, minlength=n_bins + 1)[1:]
    # an empty cell divides by zero here, and SubsetStats rejects it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stats = SubsetStats(count, sum_y / count, sum_pred / count.sum(axis=1), gl)
    # a finite lift has finite arm means
    if not (np.isfinite(stats.lift).all() and np.isfinite(stats.mean_pred).all()
            and np.isfinite(gl)):
        raise FloatingPointError("bin statistics are not finite")
    return stats


@dataclass(frozen=True)
class LossReport:
    """The loss's bias and separation terms and the stats behind them."""

    bias_term: float
    separation_term: float
    stats: SubsetStats

    @property
    def loss(self) -> float:
        return self.bias_term - self.separation_term

    @property
    def n_bins(self) -> int:
        return self.stats.n_bins


def true_lift_loss(stats: SubsetStats) -> LossReport:
    """Evaluate the binned lift loss from subset statistics.

    The report's ``loss`` is ``bias_term - separation_term``, exactly. A term
    beyond float64 raises FloatingPointError, without a RuntimeWarning.
    """
    weight = stats.size / stats.total_size
    with np.errstate(over="ignore", invalid="ignore"):
        bias = float((weight * (stats.mean_pred - stats.lift) ** 2).sum())
        separation = float((weight * (stats.lift - stats.global_lift) ** 2).sum())
    if not (np.isfinite(bias) and np.isfinite(separation)):
        raise FloatingPointError("loss is not finite")
    return LossReport(bias, separation, stats)


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
    """The per-bin table by column, bins numbered from 1; `_t` is treatment, `_c` control."""
    (size_c, size_t), (mean_y_c, mean_y_t) = stats.count.T, stats.mean_y.T
    return {"bin": np.arange(1, stats.n_bins + 1), "size": stats.size, "size_t": size_t,
            "size_c": size_c, "mean_pred": stats.mean_pred, "mean_y_t": mean_y_t,
            "mean_y_c": mean_y_c, "lift": stats.lift}


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
