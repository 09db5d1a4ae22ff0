"""Unfactored reference forms of the MLP forward and backward passes.

These are the MLP branches of `liftloss.models.predict` and `backprop` as
they were before the hidden layer moved into one in-place buffer and the
first layer's gradient became one factored `(hidden, d+1)` product. Kept
verbatim so property tests can compare the two on random instances:

- `reference_predict`: fresh `z`, then `h`, then `h @ w2 + b2`;
- `reference_backprop`: `u = g*w2*act'`, `dW1 = u.T @ x`, `db1 = u.sum(0)`.
"""

from __future__ import annotations

import numpy as np

from liftloss.models import Activation, ModelKind, ModelSpec, _unpack_mlp


def reference_predict(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    assert spec.kind is ModelKind.MLP
    w1, b1, w2, b2 = _unpack_mlp(spec, params)
    z = x @ w1.T + b1
    h = np.tanh(z) if spec.activation is Activation.TANH else np.maximum(z, 0.0)
    return h @ w2 + b2


def reference_backprop(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, g: np.ndarray
) -> np.ndarray:
    assert spec.kind is ModelKind.MLP
    w1, b1, w2, _ = _unpack_mlp(spec, params)
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
