"""Quantile bin structure over model predictions.

Converts a vector of continuous predictions into equal-frequency bins plus,
for gradient purposes, a three-way split of each bin into bottom / middle /
top segments around the bin boundaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinningError",
    "DegeneratePredictionsError",
    "Segment",
    "CutPoints",
    "InnerCuts",
    "DEFAULT_MAX_SORT",
    "compute_cuts",
    "assign_bins",
    "inner_cuts",
    "assign_segments",
]

DEFAULT_MAX_SORT = 100_000
# assign_bins counts cuts up to this many bins; int8 counts would overflow at 128
COUNT_MAX_BINS = 64


class BinningError(ValueError):
    pass


class DegeneratePredictionsError(BinningError):
    """Predictions cannot support the requested number of bins."""


class Segment(enum.IntEnum):
    """Position of a row inside its bin; ordered bottom < middle < top."""

    BOTTOM = 0
    MIDDLE = 1
    TOP = 2


@dataclass(frozen=True)
class CutPoints:
    """Strictly increasing bin boundaries; `cuts` has length `n_bins - 1`."""

    cuts: np.ndarray
    n_bins: int

    def __post_init__(self) -> None:
        cuts = np.array(self.cuts, dtype=np.float64)
        if self.n_bins < 1:
            raise BinningError(f"n_bins must be >= 1, got {self.n_bins}")
        if cuts.shape != (self.n_bins - 1,):
            raise BinningError(
                f"expected {self.n_bins - 1} cuts for {self.n_bins} bins, got {cuts.shape}"
            )
        if not np.isfinite(cuts).all():
            raise BinningError("cut values must be finite")
        if cuts.size > 1 and not (np.diff(cuts) > 0).all():
            raise BinningError("cut values must be strictly increasing")
        cuts.setflags(write=False)
        object.__setattr__(self, "cuts", cuts)


@dataclass(frozen=True)
class InnerCuts:
    """Segment boundaries around each cut: `minus[k] < cuts[k] < plus[k]`."""

    minus: np.ndarray
    plus: np.ndarray

    def __post_init__(self) -> None:
        minus = np.array(self.minus, dtype=np.float64)
        plus = np.array(self.plus, dtype=np.float64)
        if minus.shape != plus.shape or minus.ndim != 1:
            raise BinningError("minus/plus must be 1-d arrays of equal length")
        if not ((minus < plus).all() and np.isfinite(minus).all() and np.isfinite(plus).all()):
            raise BinningError("inner cuts must be finite with minus < plus")
        minus.setflags(write=False)
        plus.setflags(write=False)
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "plus", plus)


def _check_predictions(predictions) -> np.ndarray:
    p = np.asarray(predictions, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise BinningError("predictions must be a non-empty 1-d array")
    if not np.isfinite(p).all():
        raise BinningError("predictions contain non-finite values")
    return p


def compute_cuts(
    predictions,
    n_bins: int,
    max_sort: int = DEFAULT_MAX_SORT,
    seed: int = 0,
) -> CutPoints:
    """Choose cut values so the bins are roughly equal in size.

    Cuts are the k/n_bins empirical quantiles (midpoint interpolation, which
    places a cut halfway between the order statistics flanking the quantile
    boundary). Inputs longer than `max_sort` are quantiled on a seeded
    uniform subsample of `max_sort` points instead of a full sort.
    """
    p = _check_predictions(predictions)
    if n_bins < 1:
        raise BinningError(f"n_bins must be >= 1, got {n_bins}")
    if n_bins == 1:
        return CutPoints(np.empty(0), 1)
    if max_sort < n_bins:
        raise BinningError(f"max_sort ({max_sort}) must be at least n_bins ({n_bins})")
    if p.size > max_sort:
        rng = np.random.default_rng(seed)
        s = p[rng.choice(p.size, size=max_sort, replace=False)]
        s.sort()  # a fresh gather, so sorting it in place leaves the caller's array alone
    else:
        s = np.sort(p)
    # one sort serves both the distinct-value count and the quantiles
    if 1 + np.count_nonzero(s[1:] != s[:-1]) < n_bins:
        raise DegeneratePredictionsError(
            f"degenerate predictions: need at least {n_bins} distinct values "
            f"to form {n_bins} bins"
        )
    quantiles = np.arange(1, n_bins) / n_bins
    cuts = np.quantile(s, quantiles, method="midpoint")
    if cuts.size > 1 and not (np.diff(cuts) > 0).all():
        raise DegeneratePredictionsError(
            "degenerate predictions: tied quantiles, reduce n_bins"
        )
    return CutPoints(cuts, n_bins)


def assign_bins(predictions, cuts: CutPoints) -> np.ndarray:
    """Map each prediction to its 1-based bin index.

    A prediction falls in bin ``1 + (number of cuts strictly below it)``;
    values exactly equal to a cut go to the lower bin. Up to
    `COUNT_MAX_BINS` bins the cuts below each row are counted one cut at a
    time in an int8 buffer; above that one binary search per row
    (`searchsorted(side="left") + 1`) is faster. Both paths give the same
    bins, ties included.
    """
    p = _check_predictions(predictions)
    if cuts.n_bins > COUNT_MAX_BINS:
        return np.searchsorted(cuts.cuts, p, side="left") + 1
    bins = np.ones(p.shape, dtype=np.int8)
    for c in cuts.cuts:
        bins += p > c
    return bins.astype(np.intp)


def inner_cuts(cuts: CutPoints, predictions) -> InnerCuts:
    """Place segment boundaries one third of the way into each neighboring bin.

    Interior boundaries blend with their neighbors (2/3 own cut + 1/3
    neighbor); the outermost boundaries extrapolate the same one-third-of-gap
    width outward. With a single cut there is no neighboring gap at all, so
    the offset falls back to one sixth of the interquartile range of
    `predictions`.
    """
    k = cuts.n_bins - 1
    if k < 1:
        raise BinningError("no boundaries: need at least 2 bins for inner cuts")
    c = cuts.cuts
    if k == 1:
        p = _check_predictions(predictions)
        q1, q3 = np.quantile(p, [0.25, 0.75])
        width = float(q3 - q1)
        if width == 0.0:
            width = float(np.ptp(p))
        if width == 0.0:
            raise DegeneratePredictionsError("cannot size segments: predictions are constant")
        offset = width / 6.0
        return InnerCuts(c - offset, c + offset)
    minus = np.empty(k)
    plus = np.empty(k)
    minus[1:] = (2.0 / 3.0) * c[1:] + (1.0 / 3.0) * c[:-1]
    plus[:-1] = (2.0 / 3.0) * c[:-1] + (1.0 / 3.0) * c[1:]
    minus[0] = c[0] - (c[1] - c[0]) / 3.0
    plus[-1] = c[-1] + (c[-1] - c[-2]) / 3.0
    return InnerCuts(minus, plus)


def assign_segments(
    predictions, cuts: CutPoints, inner: InnerCuts, bins: np.ndarray
) -> np.ndarray:
    """Label each row bottom / middle / top within its bin.

    `bins` is `assign_bins(predictions, cuts)`. Top means within one segment
    of the bin's upper cut (candidates to migrate up), bottom within one
    segment of the lower cut (candidates to migrate down). The first bin has
    no bottom segment and the last no top segment; their outer regions stay
    middle, so with one bin and empty `inner` every row is middle.
    """
    p = _check_predictions(predictions)
    b0 = bins - 1
    # per-bin thresholds; the edge bins' outward sides can never be crossed
    top = p > np.append(inner.minus, np.inf)[b0]
    seg = top.view(np.int8) + np.int8(Segment.MIDDLE)  # MIDDLE + 1 == TOP
    seg -= (p < np.insert(inner.plus, 0, -np.inf)[b0]) & ~top  # MIDDLE - 1 == BOTTOM
    return seg
