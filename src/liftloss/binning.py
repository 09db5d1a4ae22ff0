"""Quantile bin structure over model predictions.

Converts a vector of continuous predictions into equal-frequency bins plus,
for gradient purposes, a three-way split of each bin into bottom / middle /
top segments around the bin boundaries. The cuts depend only on the
predictions and the bin count.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from ._threads import over_rows

__all__ = [
    "BinningError",
    "DegeneratePredictionsError",
    "Segment",
    "CutPoints",
    "InnerCuts",
    "MAX_SORT",
    "compute_cuts",
    "assign_bins",
    "inner_cuts",
    "assign_segments",
]

# compute_cuts sorts every row up to this many, and a fixed subsample of this many above
MAX_SORT = 100_000
# assign_bins counts cuts up to this many bins; int8 counts would overflow at 128
COUNT_MAX_BINS = 64
# rows per block of assign_bins' count: a block of predictions stays in cache
# for all of its cut comparisons
BIN_BLOCK_ROWS = 1 << 16


class BinningError(ValueError):
    pass


class DegeneratePredictionsError(BinningError):
    """Predictions have fewer distinct values than the requested number of bins.

    `distinct` counts the distinct values in the sample the cuts were read
    from; `compute_cuts` succeeds with that many bins. `inner_cuts` passes
    the cuts' own bin count: the values are distinct, but too close for float64.
    """

    def __init__(self, message: str, distinct: int):
        super().__init__(message)
        self.distinct = distinct


class Segment(enum.IntEnum):
    """Position of a row inside its bin; ordered bottom < middle < top."""

    BOTTOM = 0
    MIDDLE = 1
    TOP = 2


@dataclass(frozen=True)
class CutPoints:
    """Strictly increasing bin boundaries; `cuts` has length `n_bins - 1`.

    `spread` from `compute_cuts` is its sample's interquartile range, or range if that is 0.
    """

    cuts: np.ndarray
    n_bins: int
    spread: float | None = None

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
        if self.spread is not None and not 0 < self.spread < np.inf:
            raise BinningError(f"spread must be finite and positive, got {self.spread}")
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


def _check_predictions(predictions, finite: bool = True) -> np.ndarray:
    p = np.asarray(predictions, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise BinningError("predictions must be a non-empty 1-d array")
    if finite and not np.isfinite(p).all():
        raise BinningError("predictions contain non-finite values")
    return p


@functools.lru_cache(maxsize=1)
def _subsample_rows(n: int) -> np.ndarray:
    """The `MAX_SORT` of `n` rows that `compute_cuts` quantiles, drawn with seed 0.

    The draw depends only on `n`, and a training run asks for the same one
    at every step, so the last one is kept, as a read-only view whose `base`
    is the writeable draw.
    """
    rows = np.random.default_rng(0).choice(n, size=MAX_SORT, replace=False).view()
    rows.setflags(write=False)
    return rows


@np.errstate(over="ignore", invalid="ignore")  # CutPoints rejects inf or nan cuts and spread
def compute_cuts(predictions, n_bins: int) -> CutPoints:
    """Choose cut values so the bins are roughly equal in size and none is empty.

    Inputs longer than `MAX_SORT` are cut on a uniform subsample of
    `MAX_SORT` points, drawn with seed 0 once per row count and reused. The
    m-row (sub)sample `s` is sorted once. A cut sits only on an edge, e with
    s[e] < s[e + 1], at its midpoint `b - (b - a) * 0.5`, the arithmetic of
    `np.quantile(method="midpoint")`: cut k takes the edge nearest the
    position (m - 1)k/n_bins, so a quantile already between two distinct
    values is the cut bit for bit. A tie in distance goes to the wider gap,
    favouring neither side, and with equal gaps to the upper edge, keeping
    the tied run in the lower bin as a cut on a value would. Cuts that pick
    one edge (tied data) resolve left to right: the next free edge above,
    clamped down so each later cut keeps one. No bin of the sample, nor of
    the predictions holding it, is thus empty, and DegeneratePredictionsError
    is raised if and only if the sample has fewer than `n_bins` distinct
    values. `spread` reads the quartiles by `np.quantile`'s linear rule.
    Only the values sorted are checked for finiteness: a non-finite row
    outside the subsample is left to `assign_bins`, which callers run next.
    """
    # one bin sorts nothing, so its rows are all checked here
    p = _check_predictions(predictions, finite=n_bins <= 1)
    if n_bins < 1:
        raise BinningError(f"n_bins must be >= 1, got {n_bins}")
    if n_bins == 1:
        return CutPoints(np.empty(0), 1)
    if p.size > MAX_SORT:
        # the writeable draw: `take` copies an index array that is not writeable
        s = p.take(_subsample_rows(p.size).base)
        s.sort()  # a fresh gather, so sorting it in place leaves the caller's array alone
    else:
        s = np.sort(p)
    _check_predictions(s[[0, -1]])  # the sort puts NaN last and infinities at the ends
    edges = np.flatnonzero(s[1:] != s[:-1])  # s[e] < s[e + 1]: where a cut may sit
    distinct = 1 + edges.size
    if distinct < n_bins:
        raise DegeneratePredictionsError(
            f"degenerate predictions: need at least {n_bins} distinct values "
            f"to form {n_bins} bins",
            distinct,
        )
    # np.quantile's linear-rule quartiles: lerp by t = frac(v) between the flanking order statistics
    v = (s.size - 1) * np.array([0.25, 0.75])
    lo = np.floor(v).astype(np.intp)
    t = v - lo
    a, b = s[lo], s[lo + 1]
    q = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    # positions times 2·n_bins, exact in integers: cut k at 2(m - 1)k, edge e at n_bins(2e + 1)
    k = np.arange(n_bins - 1)
    target = 2 * (s.size - 1) * (k + 1)
    above = np.searchsorted(edges, (target + n_bins - 1) // (2 * n_bins)).clip(max=edges.size - 1)
    below = (above - 1).clip(min=0)
    e = edges[np.stack([below, above])]
    dist, gap = np.abs(n_bins * (2 * e + 1) - target), s[e + 1] - s[e]
    j = np.where((dist[1] < dist[0]) | (dist[1] == dist[0]) & (gap[1] >= gap[0]), above, below)
    j = np.minimum(np.maximum.accumulate(j - k), distinct - n_bins) + k
    a, b = s[edges[j]], s[edges[j] + 1]
    cuts = b - (b - a) * 0.5  # one ulp apart it may round to b, putting b's rows in a's bin
    return CutPoints(np.where(cuts < b, cuts, a), n_bins, float(q[1] - q[0] or s[-1] - s[0]))


def assign_bins(predictions, cuts: CutPoints) -> np.ndarray:
    """Map each prediction to its 1-based bin index.

    A prediction falls in bin ``1 + (number of cuts strictly below it)``;
    values exactly equal to a cut go to the lower bin. Up to
    `COUNT_MAX_BINS` bins the cuts below each row are counted one cut at a
    time in an int8 buffer, a block of `BIN_BLOCK_ROWS` rows at a time, so
    each block is read from memory once for its finiteness check and all
    the cuts; above that one binary search per row
    (`searchsorted(side="left") + 1`) is faster. Both paths give the same
    bins, ties included. The rows split into one contiguous range per usable
    CPU once each range gets `MIN_SPLIT_ROWS` (131,072) rows; a row's bin
    does not depend on the split.
    """
    p = _check_predictions(predictions, finite=False)
    bins = np.empty(p.shape, dtype=np.intp)

    def run(rows):
        part, out = p[rows], bins[rows]
        count_buf = np.empty(min(part.size, BIN_BLOCK_ROWS), dtype=np.int8)
        above_buf = np.empty(count_buf.shape, dtype=bool)
        for start in range(0, part.size, BIN_BLOCK_ROWS):
            block = _check_predictions(part[start : start + BIN_BLOCK_ROWS])
            if cuts.n_bins > COUNT_MAX_BINS:
                count = np.searchsorted(cuts.cuts, block, side="left") + 1
            else:
                count = count_buf[: block.size]
                above = above_buf[: block.size]
                count.fill(1)
                for c in cuts.cuts:
                    count += np.greater(block, c, out=above).view(np.int8)
            out[start : start + block.size] = count

    over_rows(p.size, run)
    return bins


@np.errstate(over="ignore", invalid="ignore")  # InnerCuts rejects inf or nan boundaries
def inner_cuts(cuts: CutPoints) -> InnerCuts:
    """Place segment boundaries one third of the way into each neighboring bin.

    Interior boundaries blend with their neighbors (2/3 own cut + 1/3
    neighbor); the outermost boundaries extrapolate the same one-third-of-gap
    width outward. With a single cut there is no neighboring gap at all, so
    the offset is one sixth of `cuts.spread`, which comes from the sample
    the cut was read from: reused cuts keep their segments. Cuts so close
    that a boundary rounds onto a cut, leaving `minus < cut < plus` false,
    raise DegeneratePredictionsError, at two comparisons per cut.
    """
    k = cuts.n_bins - 1
    if k < 1:
        raise BinningError("no boundaries: need at least 2 bins for inner cuts")
    c = cuts.cuts
    if k == 1:
        if cuts.spread is None:
            raise BinningError("a single cut needs its sample's spread to size segments")
        minus, plus = c - cuts.spread / 6.0, c + cuts.spread / 6.0
    else:
        minus = np.empty(k)
        plus = np.empty(k)
        minus[1:] = (2.0 / 3.0) * c[1:] + (1.0 / 3.0) * c[:-1]
        plus[:-1] = (2.0 / 3.0) * c[:-1] + (1.0 / 3.0) * c[1:]
        minus[0] = c[0] - (c[1] - c[0]) / 3.0
        plus[-1] = c[-1] + (c[-1] - c[-2]) / 3.0
    if not ((minus < c).all() and (c < plus).all()):  # a zero-width probe would divide by 0
        raise DegeneratePredictionsError(
            f"cuts too close for float64 to place segments between {k + 1} bins", cuts.n_bins
        )
    return InnerCuts(minus, plus)


def assign_segments(predictions, inner: InnerCuts, bins: np.ndarray) -> np.ndarray:
    """Label each row bottom / middle / top within its bin.

    `bins` is `assign_bins(predictions, cuts)` and `inner` is
    `inner_cuts(cuts)`. Top means within one segment of the
    bin's upper cut (candidates to migrate up), bottom within one segment of
    the lower cut (candidates to migrate down). The first bin has no bottom
    segment and the last no top segment; their outer regions stay middle, so
    with one bin and empty `inner` every row is middle. A non-finite
    prediction raises BinningError, and then a bin outside 1..n_bins. The
    checks and labels run `BIN_BLOCK_ROWS` rows at a time, on one contiguous
    range of rows per usable CPU once each range gets `MIN_SPLIT_ROWS`
    (131,072) rows.
    """
    p = _check_predictions(predictions, finite=False)
    if np.shape(bins) != p.shape:
        _check_predictions(p)  # a non-finite prediction is reported first
        raise BinningError(f"bins shape {np.shape(bins)} does not match predictions {p.shape}")
    n_bins = inner.minus.size + 1
    # per-bin thresholds indexed by the 1-based bin itself; the edge bins'
    # outward sides can never be crossed, and index 0 is no bin
    upper = np.concatenate(([np.nan], inner.minus, [np.inf]))
    lower = np.concatenate(([np.nan, -np.inf], inner.plus))
    seg = np.empty(p.shape, dtype=np.int8)

    def run(rows):
        """Label the rows a block at a time; whether they are finite and their bins in range."""
        in_range = True
        for start in range(rows.start, rows.stop, BIN_BLOCK_ROWS):
            block = slice(start, min(start + BIN_BLOCK_ROWS, rows.stop))
            part, b = p[block], bins[block]
            if not np.isfinite(part).all():
                return False, in_range
            # past a bin out of range, only the finiteness is checked
            in_range = in_range and b.min() >= 1 and b.max() <= n_bins
            if in_range:
                top = part > upper.take(b)
                bottom = part < lower.take(b)
                # MIDDLE + 1 == TOP
                out = np.add(top.view(np.int8), np.int8(Segment.MIDDLE), out=seg[block])
                out -= np.greater(bottom, top, out=bottom)  # bottom & ~top; MIDDLE - 1 == BOTTOM
        return True, in_range

    finite, in_range = np.array(over_rows(p.size, run)).all(axis=0)
    if not finite:
        raise BinningError("predictions contain non-finite values")
    if not in_range:
        raise BinningError(f"bin index out of range 1..{n_bins}")
    return seg
