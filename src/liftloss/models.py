"""Parametric prediction models and the gradient-descent trainer.

Two model families are provided: linear with offset, and a one-hidden-layer
MLP. Both expose prediction and the chain-rule contraction of a per-row loss
gradient into a parameter gradient, which is all the trainer needs.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._threads import over_rows, over_threads
from .binning import BinningError, DegeneratePredictionsError
from .dataset import ABDataset, check_seed
from .gradient import GradConfig, _binned_stats, effective_gradient
from .loss import EmptyArmInBinError, LossReport, global_lift, true_lift_loss

__all__ = [
    "ModelKind",
    "Activation",
    "ModelSpec",
    "TrainConfig",
    "TraceEntry",
    "TrainTrace",
    "TrainingDivergedError",
    "n_params",
    "random_params",
    "predict",
    "backprop",
    "train",
    "save_params",
    "load_params",
]


# rows per block of both MLP passes: a (block, 32) slice of the hidden layer is 1 MB.
# Their threads split the rows on these blocks' boundaries.
BACKWARD_BLOCK_ROWS = 1 << 12
# rows per product of a split linear forward pass: two threads running products of
# 4096 rows wait on each other in BLAS, at 4.5 against 2.6 ms for 1M rows on one
LINEAR_BLOCK_ROWS = 1 << 16


class ModelKind(enum.Enum):
    LINEAR = "linear"
    MLP = "mlp"


class Activation(enum.Enum):
    TANH = "tanh"
    RELU = "relu"


@dataclass(frozen=True)
class ModelSpec:
    """Model family and shape. `hidden`/`activation` apply to MLPs only."""

    kind: ModelKind
    d: int
    hidden: int | None = None
    activation: Activation | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"input dimension must be >= 1, got {self.d}")
        if self.kind is ModelKind.MLP:
            if self.hidden is None or self.hidden < 1 or self.activation is None:
                raise ValueError("MLP models need a positive hidden size and an activation")
        elif self.hidden is not None or self.activation is not None:
            raise ValueError("hidden/activation only apply to MLP models")


def n_params(spec: ModelSpec) -> int:
    if spec.kind is ModelKind.LINEAR:
        return spec.d + 1
    return spec.hidden * spec.d + spec.hidden + spec.hidden + 1


def random_params(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    """Small random initialization (breaks MLP symmetry)."""
    rng = np.random.default_rng(seed)
    return 0.1 * rng.standard_normal(n_params(spec))


def _check_params(spec: ModelSpec, params) -> np.ndarray:
    p = np.asarray(params, dtype=np.float64)
    if p.shape != (n_params(spec),):
        raise ValueError(f"expected {n_params(spec)} parameters, got shape {p.shape}")
    return p


def _features(data, spec: ModelSpec) -> np.ndarray:
    x = data.features if isinstance(data, ABDataset) else np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-d array")
    if x.shape[1] != spec.d:
        raise ValueError(f"model expects {spec.d} features, data has {x.shape[1]}")
    return x


def _row_blocks(n: int, size: int = BACKWARD_BLOCK_ROWS) -> list[slice]:
    """Row blocks of `size` rows each, the last one shorter: those of the MLP passes by default."""
    return [slice(a, a + size) for a in range(0, max(n, 1), size)]


def _forward_blocks(n: int, size: int = BACKWARD_BLOCK_ROWS) -> list[slice]:
    """Blocks of `size` rows, the last one shorter, or longer where it would hold 1 row.

    A 1-row product takes BLAS's vector path, which rounds unlike the rows of a larger one.
    """
    blocks = _row_blocks(n, size)
    if len(blocks) > 1 and n % size == 1:
        blocks[-2:] = [slice(blocks[-2].start, n)]
    return blocks


@np.errstate(over="ignore", invalid="ignore")  # the binning rejects non-finite predictions
def _forward(spec: ModelSpec, p: np.ndarray, x: np.ndarray):
    """Predictions and the output layer's input `z`: `x`, or an MLP's hidden layer.

    Both kinds end in `z @ w + b`, with `w, b` the last `z.shape[1] + 1`
    parameters. An MLP builds `z` in place in one fresh (n, hidden) buffer,
    a row block at a time, on one thread per usable CPU. A linear model
    splits its rows into one range per usable CPU once each gets
    `MIN_SPLIT_ROWS` (131,072) rows, and multiplies `LINEAR_BLOCK_ROWS`
    rows at a time on one grid whatever the count, so no product's rows
    depend on the count, not even where a threaded BLAS divides a product
    further. With BLAS on one thread this matches one whole-array product:
    it rounds a row alike wherever the row sits on a 4-row grid, though not
    off it.
    """
    if spec.kind is ModelKind.LINEAR:
        preds = np.empty(len(x))

        def run_linear(rows):
            x_r, preds_r = x[rows], preds[rows]
            for b in _forward_blocks(len(x_r), LINEAR_BLOCK_ROWS):
                out = np.matmul(x_r[b], p[:-1], out=preds_r[b])
                out += p[-1]

        over_rows(len(x), run_linear, LINEAR_BLOCK_ROWS)
        return preds, x
    n_w1 = spec.hidden * spec.d
    w1_t = p[:n_w1].reshape(spec.hidden, spec.d).T
    b1, w2 = p[n_w1 : n_w1 + spec.hidden], p[-spec.hidden - 1 : -1]
    z, preds = np.empty((len(x), spec.hidden)), np.empty(len(x))

    def run(blocks):
        for rows in blocks:
            z_b = np.matmul(x[rows], w1_t, out=z[rows])
            z_b += b1
            if spec.activation is Activation.TANH:
                np.tanh(z_b, out=z_b)
            else:
                np.maximum(z_b, 0.0, out=z_b)
            np.matmul(z_b, w2, out=preds[rows])
            preds[rows] += p[-1]

    over_threads(_forward_blocks(len(x)), run)
    return preds, z


def _backward(spec: ModelSpec, p: np.ndarray, x: np.ndarray, g: np.ndarray, z) -> np.ndarray:
    """Parameter gradient from `_forward`'s `z`, which it overwrites for an MLP.

    Each MLP block of `BACKWARD_BLOCK_ROWS` rows is read from cache, not
    memory, by the three passes over it: the output layer's product, the
    activation derivative, and the first layer's product. The threads return
    each block's two products, and they are summed here in block order, so
    the gradient does not depend on the thread count.
    """
    if spec.kind is ModelKind.LINEAR:
        return np.concatenate([x.T @ g, [g.sum()]])
    d = x.shape[1]

    def run(blocks):
        sums = []
        for rows in blocks:
            z_b, g_b = z[rows], g[rows]
            xg = np.empty((g_b.size, d + 1))  # [x * g, g], as one buffer
            dw2_b = z_b.T @ g_b
            # overwrite the activations with their derivative: 1 - z^2, or [z > 0]
            if spec.activation is Activation.TANH:
                np.square(z_b, out=z_b)
                np.subtract(1.0, z_b, out=z_b)
            else:
                np.greater(z_b, 0.0, out=z_b)
            np.multiply(x[rows], g_b[:, None], out=xg[:, :-1])
            xg[:, -1] = g_b
            sums.append((dw2_b, z_b.T @ xg))
        return sums

    dw2 = np.zeros(spec.hidden)
    m = np.zeros((spec.hidden, d + 1))
    for sums in over_threads(_row_blocks(len(x)), run):
        for dw2_b, m_b in sums:
            dw2 += dw2_b
            m += m_b
    m *= p[-spec.hidden - 1 : -1, None]
    return np.concatenate([m[:, :-1].ravel(), m[:, -1], dw2, [g.sum()]])


def predict(spec: ModelSpec, params, data) -> np.ndarray:
    """Model predictions for a dataset or a raw (n, d) feature array.

    Linear parameter layout is [coef_0, ..., coef_{d-1}, offset]; the MLP
    layout is [W1 row-major, b1, w2, b2]. Predictions that overflow come
    back as inf or nan, without a warning.
    """
    return _forward(spec, _check_params(spec, params), _features(data, spec))[0]


def backprop(spec: ModelSpec, params, data, point_grad) -> np.ndarray:
    """Contract a per-row loss gradient into a parameter gradient.

    Returns sum_i g_i * d(prediction_i)/d(params). ReLU uses derivative 0 at
    exactly zero. The MLP's first layer is one (hidden, d+1) product with w2
    factored out of the row sums, `[dW1 | db1] = (act'.T @ [g*x, g]) * w2`,
    within 1e-12 of max|grad| of the unfactored `(g*w2*act').T @ [x, 1]`.
    Its row sums run over `BACKWARD_BLOCK_ROWS` rows at a time, whose slice
    of the hidden layer stays in cache, and need no row-sized buffer beyond
    the hidden layer. The blocks are split among one thread per usable CPU,
    and their sums are added in block order, so the gradient is bit-identical
    whatever the count. Called alone it rebuilds the hidden layer; `train`
    reuses its forward pass's.
    """
    p = _check_params(spec, params)
    x = _features(data, spec)
    g = np.asarray(point_grad, dtype=np.float64)
    if g.shape != (x.shape[0],):
        raise ValueError("point gradient must align with the rows")
    z = x if spec.kind is ModelKind.LINEAR else _forward(spec, p, x)[1]
    return _backward(spec, p, x, g, z)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings; `batch=None` means full batch."""

    step_size: float
    steps: int
    grad: GradConfig
    batch: int | None = None
    snapshot_steps: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.step_size < np.inf:
            raise ValueError("step_size must be finite and >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch is not None and self.batch < 1:
            raise ValueError("batch must be a positive integer")
        bad = [t for t in self.snapshot_steps if t < 0 or t > self.steps]
        if bad:
            raise ValueError(f"snapshot steps {bad} outside the range 0..{self.steps}")
        check_seed(self.seed)


@dataclass(frozen=True)
class TraceEntry:
    step: int
    loss: float
    bias_term: float
    separation_term: float
    params: np.ndarray


@dataclass
class TrainTrace:
    """Per-step loss/parameter history plus per-bin snapshots and events."""

    entries: list[TraceEntry] = field(default_factory=list)
    snapshots: dict[int, LossReport] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)

    def losses(self) -> np.ndarray:
        return np.array([e.loss for e in self.entries])


class TrainingDivergedError(RuntimeError):
    """A training step failed to bin or went non-finite; carries the trace so far."""

    def __init__(self, message: str, trace: TrainTrace):
        super().__init__(message)
        self.trace = trace


def train(
    dataset: ABDataset,
    spec: ModelSpec,
    init_params,
    config: TrainConfig,
) -> tuple[np.ndarray, TrainTrace]:
    """Plain gradient descent on the binned lift loss.

    Records the loss and a parameter copy at every step t = 0..steps (the
    entry at step t describes the model before the t-th update, so steps=0
    yields one entry and unchanged parameters). Cuts are refreshed every
    `grad.rebin_every` steps. If a bin loses an arm mid-run the bin count is
    halved and training continues; at step 0 this is raised instead, with a
    hint to use fewer bins. At 2 bins, the fewest `GradConfig` allows, it is
    raised at any step, naming the step and advising more rows or a larger
    batch. Every binning failure (non-finite or collapsed predictions) and
    every non-finite statistic, loss, gradient or parameter raises
    TrainingDivergedError naming the step, with no RuntimeWarning; only a
    DegeneratePredictionsError at step 0 is raised as is. Non-finite initial
    parameters raise ValueError, and so does a minibatch that draws rows of
    one arm only, naming the step and the batch size. Each step builds the
    MLP hidden layer once, for the forward pass, and hands it to the
    backward pass, which sums it in row blocks. Both passes run their row
    blocks on one thread per usable CPU, as do the step's per-row passes
    once each thread gets `MIN_SPLIT_ROWS` rows, and the results are
    bit-identical whatever the count.
    The last step scores the loss only, without building (or checking) a
    gradient that nothing would read.
    Each step's arrays (the effective gradient's, an MLP's hidden layer)
    are released before the next step builds its own, so a full-batch step
    peaks at about 26 B/row above the dataset at 1M rows on one thread, 27
    on two, and 31 at 200k (tracemalloc, 10 bins, d=2); a hidden-32 MLP's
    peaks at 283 at 1M rows and 287 at 200k, 256 of them the hidden layer,
    on one thread or two.
    Deterministic given the seed, which only drives minibatch sampling.
    """
    params = _check_params(spec, init_params).copy()
    if not np.isfinite(params).all():
        raise ValueError("initial parameters must be finite")
    grad_cfg = config.grad
    rng = np.random.default_rng(config.seed)
    cached_lift = global_lift(dataset)
    trace = TrainTrace()
    snapshot_set = set(config.snapshot_steps)
    cuts = None
    for t in range(config.steps + 1):
        if config.batch is None or config.batch >= len(dataset):
            data_t = dataset
        else:
            idx = rng.choice(len(dataset), size=config.batch, replace=False)
            try:
                data_t = dataset.take(idx)
            except ValueError as err:  # the draw holds rows of one arm only
                raise ValueError(
                    f"step {t}: minibatch of {config.batch} rows has {err}; use a larger batch"
                ) from err
        x = _features(data_t, spec)
        preds, z = _forward(spec, params, x)
        reuse = cuts if (t % grad_cfg.rebin_every != 0 and cuts is not None) else None
        while True:
            try:
                if t == config.steps:  # the last loss needs no segments and no gradient
                    stats = _binned_stats(data_t, preds, grad_cfg, cached_lift, reuse)[2]
                else:
                    eg = effective_gradient(
                        data_t, preds, grad_cfg, cached_global_lift=cached_lift, cuts=reuse
                    )
                    cuts, stats = eg.cuts, eg.stats
                report = true_lift_loss(stats)
                break
            except (BinningError, FloatingPointError) as err:
                if t == 0 and isinstance(err, DegeneratePredictionsError):
                    raise  # the caller's own predictions cannot fill the bins
                raise TrainingDivergedError(f"{err} at step {t}", trace) from err
            except EmptyArmInBinError as err:
                if reuse is not None:
                    # stale boundaries no longer cover the predictions; re-cut first
                    trace.events.append(f"step {t}: {err}; refreshing cuts")
                    reuse = None
                    continue
                if grad_cfg.n_bins <= 2:  # GradConfig allows no fewer bins
                    raise EmptyArmInBinError(
                        err.bin_index, err.n_bins, err.arm_name,
                        f"at step {t}, {err.advice} or a larger batch",
                    ) from err
                if t == 0:
                    raise  # infeasible at the initial predictions: caller should lower n_bins
                new_bins = max(2, grad_cfg.n_bins // 2)
                trace.events.append(
                    f"step {t}: {err}; reducing bins {grad_cfg.n_bins} -> {new_bins}"
                )
                grad_cfg = replace(grad_cfg, n_bins=new_bins)
        if not np.isfinite(params).all():
            raise TrainingDivergedError(f"non-finite parameters at step {t}", trace)
        trace.entries.append(
            TraceEntry(t, report.loss, report.bias_term, report.separation_term, params.copy())
        )
        if t in snapshot_set:
            trace.snapshots[t] = report
        if t == config.steps:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # checked at the next step
            params -= config.step_size * _backward(spec, params, x, eg.point_grad, z)
        del z, eg  # free this step's hidden buffer and gradient arrays before the next step
    return params, trace


def save_params(path: str | Path, spec: ModelSpec, params) -> None:
    p = _check_params(spec, params)
    doc: dict = {"kind": spec.kind.value, "d": spec.d}
    if spec.kind is ModelKind.MLP:
        doc["hidden"] = spec.hidden
        doc["activation"] = spec.activation.value
    doc["values"] = [float(v) for v in p]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_params(path: str | Path) -> tuple[ModelSpec, np.ndarray]:
    """Read a params file from `save_params`; a leading UTF-8 byte-order mark is skipped."""
    try:  # undecodable bytes and bad JSON are ValueErrors; a missing file is not
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        kind = ModelKind(doc["kind"])
        mlp = kind is ModelKind.MLP
        for key in ("d", "hidden") if mlp else ("d",):
            if type(doc[key]) is not int:  # int() would truncate 2.7 and accept "2" or true
                raise ValueError(f"{key} must be a JSON integer, got {doc[key]!r}")
        spec = ModelSpec(
            kind,
            doc["d"],
            doc["hidden"] if mlp else None,
            Activation(doc["activation"]) if mlp else None,
        )
        values = doc["values"]
        # exact types: bool is an int subclass, and float() would take "0.5" and true
        numbers = type(values) is list and all(type(v) in (int, float) for v in values)
        if not numbers or len(values) != n_params(spec):
            raise ValueError(f"values must be a JSON array of {n_params(spec)} numbers")
        values = np.array(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("parameter values must be finite")
    except (KeyError, ValueError, TypeError, OverflowError) as err:
        raise ValueError(f"malformed parameter file {path}: {err}") from err
    return spec, values
