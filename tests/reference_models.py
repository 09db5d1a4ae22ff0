"""Reference forms of the MLP passes and of the training loop.

These are the MLP branches of `liftloss.models.predict` and `backprop` as
they were before the hidden layer moved into one in-place buffer and the
first layer's gradient became one factored `(hidden, d+1)` product. Kept
verbatim so property tests can compare the two on random instances:

- `unpack_mlp`: the documented `[W1 row-major, b1, w2, b2]` layout, decoded
  here rather than by the package, so a layout bug in `liftloss.models`
  cannot hide behind a shared decoder;
- `reference_predict`: fresh `z`, then `h`, then `h @ w2 + b2`;
- `reference_backprop`: `u = g*w2*act'`, `dW1 = u.T @ x`, `db1 = u.sum(0)`;
- `public_loop_train`: `train`'s loop written out over the public
  `predict` -> `effective_gradient` -> `backprop`, each called alone, with
  the same minibatch draws, cut reuse, cut refresh and bin halving.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from liftloss import (
    EmptyArmInBinError,
    TrainTrace,
    backprop,
    effective_gradient,
    global_lift,
    predict,
    true_lift_loss,
)
from liftloss.models import Activation, ModelKind, ModelSpec, TraceEntry


def unpack_mlp(spec: ModelSpec, params: np.ndarray):
    """`(W1, b1, w2, b2)` from `[W1 row-major, b1, w2, b2]`, read front to back."""
    h, d = spec.hidden, spec.d
    w1, b1, w2, b2 = np.split(params, np.cumsum([h * d, h, h]))
    assert b2.shape == (1,)
    return w1.reshape(h, d), b1, w2, b2[0]


def reference_predict(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    assert spec.kind is ModelKind.MLP
    w1, b1, w2, b2 = unpack_mlp(spec, params)
    z = x @ w1.T + b1
    h = np.tanh(z) if spec.activation is Activation.TANH else np.maximum(z, 0.0)
    return h @ w2 + b2


def reference_backprop(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, g: np.ndarray
) -> np.ndarray:
    assert spec.kind is ModelKind.MLP
    w1, b1, w2, _ = unpack_mlp(spec, params)
    z = x @ w1.T + b1
    if spec.activation is Activation.TANH:
        h = np.tanh(z)
        dact = 1.0 - h**2
    else:
        h = np.maximum(z, 0.0)
        dact = (z > 0).astype(np.float64)
    dw2 = h.T @ g
    db2 = g.sum()
    u = (g[:, None] * w2[None, :]) * dact
    dw1 = u.T @ x
    db1 = u.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2, [db2]])


def public_loop_train(dataset, spec, init_params, config):
    """`train` for runs that do not diverge, one public call per phase."""
    params = np.array(init_params, dtype=np.float64)
    grad_cfg = config.grad
    rng = np.random.default_rng(config.seed)
    cached = global_lift(dataset)
    trace = TrainTrace()
    cuts = None
    for t in range(config.steps + 1):
        if config.batch is None or config.batch >= len(dataset):
            data_t = dataset
        else:
            data_t = dataset.take(rng.choice(len(dataset), size=config.batch, replace=False))
        preds = predict(spec, params, data_t)
        reuse = cuts if (t % grad_cfg.rebin_every != 0 and cuts is not None) else None
        while True:
            try:
                eg = effective_gradient(data_t, preds, grad_cfg, cached_global_lift=cached,
                                        cuts=reuse)
                break
            except EmptyArmInBinError as err:
                if t == 0:
                    raise
                if reuse is not None:
                    trace.events.append(f"step {t}: {err}; refreshing cuts")
                    reuse = None
                    continue
                if grad_cfg.n_bins <= 2:
                    raise
                new_bins = max(2, grad_cfg.n_bins // 2)
                trace.events.append(
                    f"step {t}: {err}; reducing bins {grad_cfg.n_bins} -> {new_bins}"
                )
                grad_cfg = replace(grad_cfg, n_bins=new_bins)
        cuts = eg.cuts
        report = true_lift_loss(eg.stats)
        trace.entries.append(
            TraceEntry(t, report.loss, report.bias_term, report.separation_term, params.copy())
        )
        if t < config.steps:
            params -= config.step_size * backprop(spec, params, data_t, eg.point_grad)
    return params, trace
