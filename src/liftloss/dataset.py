"""A/B-test data model, CSV I/O, and the synthetic experiment generator."""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "NoiseDistribution",
    "ABDataset",
    "DataGenConfig",
    "CsvFormatError",
    "generate",
    "load_csv",
    "save_csv",
    "write_csv",
]


class NoiseDistribution(enum.Enum):
    UNIFORM01 = "uniform"
    STD_NORMAL = "normal"


class CsvFormatError(ValueError):
    """Raised when an input CSV does not follow the expected schema."""


def _require_both_arms(arm: np.ndarray) -> None:
    n_t = int(arm.sum())
    if n_t == 0:
        raise ValueError("no treatment rows")
    if n_t == arm.size:
        raise ValueError("no control rows")


@dataclass(frozen=True)
class ABDataset:
    """Columnar store of A/B-test rows.

    `features` has shape (n, d) and is stored column-major whatever layout
    it is handed; `outcome` and `arm` have shape (n,). `true_lift` is
    optional and only carried for synthetic data where the generating
    process is known. Arrays are made read-only on construction, so
    datasets can be shared across threads safely.
    """

    features: np.ndarray
    outcome: np.ndarray
    arm: np.ndarray
    true_lift: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = np.array(self.features, dtype=np.float64, order="F")
        y = np.array(self.outcome, dtype=np.float64)
        arm = np.asarray(self.arm)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-d (n, d), got shape {feats.shape}")
        n = feats.shape[0]
        if y.shape != (n,) or arm.shape != (n,):
            raise ValueError(
                f"misaligned columns: features {feats.shape}, outcome {y.shape}, arm {arm.shape}"
            )
        if not np.isfinite(feats).all():
            raise ValueError("features contain non-finite values")
        if not np.isfinite(y).all():
            raise ValueError("outcome contains non-finite values")
        # before the cast, which would wrap 257 to 1; `isin` would take 12 B/row
        if arm.dtype != bool and not ((arm == 0) | (arm == 1)).all():
            raise ValueError("arm values must be 0 (control) or 1 (treatment)")
        arm = arm.astype(np.int8)
        _require_both_arms(arm)
        lift = self.true_lift
        if lift is not None:
            lift = np.array(lift, dtype=np.float64)
            if lift.shape != (n,):
                raise ValueError(f"true_lift shape {lift.shape} does not match n={n}")
            if not np.isfinite(lift).all():
                raise ValueError("true_lift contains non-finite values")
        self._freeze(feats, y, arm, lift)

    def _freeze(self, feats, y, arm, lift) -> None:
        """Store the columns, read-only, and a writeable view of the outcome.

        `np.bincount` copies a `weights` array that is not writeable, so
        `subset_stats` weighs its rows by the view, which shares the bytes.
        """
        object.__setattr__(self, "_outcome_weights", y.view())
        for name, arr in zip(("features", "outcome", "arm", "true_lift"), (feats, y, arm, lift)):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_treatment(self) -> int:
        return int(self.arm.sum())

    @property
    def is_treatment(self) -> np.ndarray:
        """The arm as a read-only boolean view: no copy, the same bytes as `arm == 1`."""
        return self.arm.view(np.bool_)

    def take(self, indices: np.ndarray) -> "ABDataset":
        """Subset by integer row indices (used for minibatching).

        Features are gathered in one call, every column at once, into a
        column-major (k, d) array: the same values as `features[indices]`
        in the layout the constructor gives. The rows were validated when
        this dataset was built, so the subset is stored as gathered; only
        the check that both arms are present runs again.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise TypeError(
                f"row indices must be a 1-d integer array, got {idx.ndim}-d {idx.dtype}"
            )
        feats = self.features.T.take(idx, axis=1).T
        arm = self.arm.take(idx)
        _require_both_arms(arm)
        lift = None if self.true_lift is None else self.true_lift.take(idx)
        subset = object.__new__(ABDataset)
        subset._freeze(feats, self.outcome.take(idx), arm, lift)
        return subset


@dataclass(frozen=True)
class DataGenConfig:
    """Knobs for the synthetic generator.

    Each row draws three independent noise values (r1, r2, r3). The visible
    features are (r1, r3); r2 stays hidden. Treated rows get an extra
    `lift_coefficient * r3` added to the outcome, so the per-row lift is
    known exactly and stored in `true_lift`.
    """

    n_rows: int
    treatment_fraction: float = 0.7
    seed: int = 0
    noise_distribution: NoiseDistribution = NoiseDistribution.UNIFORM01
    lift_coefficient: float = 0.5

    def __post_init__(self) -> None:
        if self.n_rows < 2:
            raise ValueError(f"n_rows must be >= 2, got {self.n_rows}")
        if not 0.0 < self.treatment_fraction < 1.0:
            raise ValueError(
                f"treatment_fraction must be strictly between 0 and 1, got {self.treatment_fraction}"
            )
        check_seed(self.seed)
        if not np.isfinite(self.lift_coefficient):
            raise ValueError("lift_coefficient must be finite")


def check_seed(seed: int) -> None:
    """Reject a seed that numpy's generators cannot take, naming it."""
    if seed < 0 or seed >= 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


def generate(config: DataGenConfig) -> ABDataset:
    """Draw a synthetic randomized-experiment dataset.

    Deterministic given `config.seed`. Arm labels are i.i.d.
    Bernoulli(treatment_fraction), independent of the features. Note that for
    very small n_rows a draw can land all rows in one arm, which fails the
    dataset invariant and raises. Features are column-major, as in every
    dataset. Peak memory is about 67 B/row (tracemalloc, 200k–1M rows; up
    to 71 on a process's first call), the returned 33 B/row dataset
    included: the raw (n, 3) draw is released before the dataset copies
    its columns.
    """
    rng = np.random.default_rng(config.seed)
    if config.noise_distribution is NoiseDistribution.UNIFORM01:
        r = rng.random((config.n_rows, 3))
    else:
        r = rng.standard_normal((config.n_rows, 3))
    treated = rng.random(config.n_rows) < config.treatment_fraction
    lift = config.lift_coefficient * r[:, 2]
    outcome = r[:, 0] + r[:, 1] + np.where(treated, lift, 0.0)
    features = r[:, [0, 2]]
    del r  # release the (n, 3) draw before ABDataset copies the columns
    return ABDataset(features, outcome, treated, lift)


CSV_BLOCK_ROWS = 1 << 16  # rows converted and written per `write` call


def write_csv(path: str | Path, header: list[str], columns: list[np.ndarray], newline: str) -> None:
    """Write equal-length ndarray columns as CSV, `newline` ending each line.

    Each cell is the `repr` of a column's `tolist()` value, so ints print
    plainly and floats round-trip exactly. Memory stays O(`CSV_BLOCK_ROWS`):
    rows are converted and written block by block.
    """
    n = len(columns[0])
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError(f"need {len(header)} columns of equal length for header {','.join(header)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + newline)
        for lo in range(0, n, CSV_BLOCK_ROWS):
            parts = (c[lo : lo + CSV_BLOCK_ROWS] for c in columns)
            cells = [map(repr, p.tolist()) for p in parts]
            fh.write(newline.join(map(",".join, zip(*cells))) + newline)


def save_csv(dataset: ABDataset, path: str | Path) -> None:
    """Write a dataset to CSV at full float precision (round-trips exactly)."""
    header = [f"f{j}" for j in range(dataset.d)] + ["y", "arm"]
    columns = [*dataset.features.T, dataset.outcome, dataset.arm]
    if dataset.true_lift is not None:
        header.append("true_lift")
        columns.append(dataset.true_lift)
    write_csv(path, header, columns, "\r\n")


def _parse_float(text: str, column: str, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvFormatError(
            f"line {line_no}: invalid value for column '{column}': {text!r}"
        ) from None


def load_csv(path: str | Path) -> ABDataset:
    """Read a dataset CSV with header ``f0,...,f{d-1},y,arm[,true_lift]``.

    Parse failures report the offending physical line number (header is
    line 1). A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8"
    exports write, is skipped. Fields go into one list per column, so the
    features arrive column-major, the layout `ABDataset` keeps.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        header = [h.strip() for h in header]
        has_lift = header and header[-1] == "true_lift"
        base = header[:-1] if has_lift else header
        d = len(base) - 2
        expected = [f"f{j}" for j in range(d)] + ["y", "arm"]
        if d < 1 or base != expected:
            raise CsvFormatError(
                f"line 1: expected header f0,...,f{{d-1}},y,arm[,true_lift], got {','.join(header)}"
            )
        n_cols = len(header)
        columns: list[list] = [[] for _ in header]  # f0..f{d-1}, y, arm[, true_lift]
        for row in reader:
            line_no = reader.line_num  # a quoted field may span lines
            if len(row) != n_cols:
                raise CsvFormatError(
                    f"line {line_no}: expected {n_cols} fields, got {len(row)}"
                )
            for j in range(d + 1):  # the features, then y
                columns[j].append(_parse_float(row[j], header[j], line_no))
            arm_text = row[d + 1].strip()
            if arm_text not in ("0", "1"):
                raise CsvFormatError(
                    f"line {line_no}: arm value must be 0 or 1, got {arm_text!r}"
                )
            columns[d + 1].append(int(arm_text))
            if has_lift:
                columns[d + 2].append(_parse_float(row[d + 2], "true_lift", line_no))
    if not columns[0]:
        raise CsvFormatError("no data rows")
    return ABDataset(
        np.array(columns[:d], dtype=np.float64).T,
        np.array(columns[d], dtype=np.float64),
        np.array(columns[d + 1], dtype=np.int8),
        np.array(columns[d + 2], dtype=np.float64) if has_lift else None,
    )
