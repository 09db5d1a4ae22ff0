"""In-memory spans around liftloss's public functions, and a traced replay of `train`.

The benchmark records spans from its own code only: the replay wraps each
call it makes into a layer, and `patched` swaps the public functions that
`effective_gradient` and the CLI look up in their module namespaces for
wrappers that record a span and call the original. Nothing in the program
changes; the originals are restored on exit.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from liftloss import cli, gradient
from liftloss.binning import Segment
from liftloss.gradient import effective_gradient
from liftloss.loss import EmptyArmInBinError, global_lift, true_lift_loss
from liftloss.models import (
    TraceEntry,
    TrainingDivergedError,
    TrainTrace,
    backprop,
    n_params,
    predict,
)

# Public functions `effective_gradient` calls through its module namespace.
GRADIENT_PARTS = (
    (gradient, "compute_cuts", "binning.compute_cuts"),
    (gradient, "assign_bins", "binning.assign_bins"),
    (gradient, "inner_cuts", "binning.inner_cuts"),
    (gradient, "assign_segments", "binning.assign_segments"),
    (gradient, "subset_stats", "loss.subset_stats"),
    (gradient, "bias_gradient", "gradient.bias"),
)
# Dataset I/O the CLI commands call through their module namespace.
CLI_IO = (
    (cli, "generate", "dataset.generate"),
    (cli, "save_csv", "dataset.save_csv"),
    (cli, "load_csv", "dataset.load_csv"),
)

_REFRESH = re.compile(r"refreshing cuts$")
_HALVING = re.compile(r"reducing bins (\d+) -> (\d+)$")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None
    rows: int = 0


@dataclass
class Tracer:
    """Spans kept in memory (name, start, end, parent, step id) plus counters."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    step: int | None = None
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, rows: int = 0):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.step, rows)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "step": s.step, "rows": s.rows}
                for s in self.spans
            ],
            "counters": self.counters,
        }


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace each (module, attribute) with a span-recording wrapper."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, name in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def count_events(events: list[str]) -> dict[str, int]:
    """Cut refreshes and bin halvings read from `TrainTrace.events` or CLI notes."""
    return {
        "cut_refreshes": sum(1 for e in events if _REFRESH.search(e)),
        "bin_halvings": sum(1 for e in events if _HALVING.search(e)),
    }


def final_n_bins(events: list[str], n_bins: int) -> int:
    """Bin count in force after the halvings recorded in the events."""
    for e in events:
        m = _HALVING.search(e)
        if m:
            n_bins = int(m.group(2))
    return n_bins


def replay_train(dataset, spec, init_params, config, tracer: Tracer):
    """`liftloss.train`'s exact sequence, with a span around every phase.

    Minibatch draw, `take`, `predict`, cut reuse and refresh, bin halving,
    `true_lift_loss`, `backprop` and the update run in the same order with
    the same arguments, so the result must equal `train`'s bit for bit.
    Call it under `patched(tracer, GRADIENT_PARTS)` to split the gradient.
    """
    params = np.array(init_params, dtype=np.float64)
    if params.shape != (n_params(spec),):
        raise ValueError(f"expected {n_params(spec)} parameters, got shape {params.shape}")
    grad_cfg = config.grad
    rng = np.random.default_rng(config.seed)
    cached_lift = global_lift(dataset)
    trace = TrainTrace()
    snapshot_set = set(config.snapshot_steps)
    cuts = None
    for t in range(config.steps + 1):
        tracer.step = t
        with tracer.span("models.step"):
            # Both spans open on full-batch steps too, where they time an empty branch.
            full_batch = config.batch is None or config.batch >= len(dataset)
            with tracer.span("models.draw"):
                if not full_batch:
                    idx = rng.choice(len(dataset), size=config.batch, replace=False)
            with tracer.span("dataset.take"):
                data_t = dataset if full_batch else dataset.take(idx)
            with tracer.span("models.predict"):
                preds = predict(spec, params, data_t)
            if not np.isfinite(preds).all():
                raise TrainingDivergedError(f"non-finite predictions at step {t}", trace)
            reuse = cuts if (t % grad_cfg.rebin_every != 0 and cuts is not None) else None
            if reuse is not None:
                tracer.count("cut_reuse_attempts")
            while True:
                try:
                    with tracer.span("gradient.effective_gradient", rows=len(data_t)):
                        eg = effective_gradient(
                            data_t, preds, grad_cfg, cached_global_lift=cached_lift, cuts=reuse
                        )
                    break
                except FloatingPointError as err:
                    raise TrainingDivergedError(f"{err} at step {t}", trace) from err
                except EmptyArmInBinError as err:
                    if t == 0:
                        raise
                    if reuse is not None:
                        trace.events.append(f"step {t}: {err}; refreshing cuts")
                        tracer.count("cut_refreshes")
                        reuse = None
                        continue
                    if grad_cfg.n_bins <= 2:
                        raise
                    new_bins = max(2, grad_cfg.n_bins // 2)
                    trace.events.append(
                        f"step {t}: {err}; reducing bins {grad_cfg.n_bins} -> {new_bins}"
                    )
                    tracer.count("bin_halvings")
                    grad_cfg = replace(grad_cfg, n_bins=new_bins)
            cuts = eg.cuts
            with tracer.span("loss.true_lift_loss"):
                report = true_lift_loss(eg.stats)
            if not (np.isfinite(report.loss) and np.isfinite(params).all()):
                raise TrainingDivergedError(f"non-finite loss or parameters at step {t}", trace)
            trace.entries.append(
                TraceEntry(t, report.loss, report.bias_term, report.separation_term, params.copy())
            )
            if t in snapshot_set:
                trace.snapshots[t] = report
            if t < config.steps:
                with tracer.span("models.backprop"):
                    update = backprop(spec, params, data_t, eg.point_grad)
                params -= config.step_size * update
        # counted outside the step span, so counting adds nothing to the loop's self time
        tracer.count("boundary_rows", int((eg.segments != Segment.MIDDLE).sum()))
        tracer.count("gradient_rows", len(data_t))
    tracer.step = None
    return params, trace


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the time its child spans cover, in seconds."""
    own = [s.end - s.start for s in tracer.spans]
    for s in tracer.spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


STEP_LAYERS = {
    "dataset.take_ms": "dataset.take",
    "binning.compute_cuts_ms": "binning.compute_cuts",
    "binning.assign_bins_ms": "binning.assign_bins",
    "binning.inner_cuts_ms": "binning.inner_cuts",
    "binning.assign_segments_ms": "binning.assign_segments",
    "loss.subset_stats_ms": "loss.subset_stats",
    "loss.true_lift_loss_ms": "loss.true_lift_loss",
    "gradient.bias_ms": "gradient.bias",
    "gradient.migration_self_ms": "gradient.effective_gradient",
    "models.draw_ms": "models.draw",
    "models.predict_ms": "models.predict",
    "models.backprop_ms": "models.backprop",
    "models.loop_self_ms": "models.step",
}
GRADIENT_LAYER_METRICS = (
    "binning.compute_cuts_ms", "binning.assign_bins_ms", "binning.inner_cuts_ms",
    "binning.assign_segments_ms", "loss.subset_stats_ms", "loss.true_lift_loss_ms",
    "gradient.bias_ms", "gradient.migration_self_ms",
)


def step_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-training-step self times, gradient costs and counters from a replay."""
    own = self_times(tracer)
    steps = [s for s in tracer.spans if s.name == "models.step"]
    n_steps = len(steps)
    by_name: dict[str, float] = {}
    for s, t in zip(tracer.spans, own):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
    out = {metric: 1e3 * by_name.get(name, 0.0) / n_steps for metric, name in STEP_LAYERS.items()}
    grads = [s for s in tracer.spans if s.name == "gradient.effective_gradient"]
    grad_s = sum(s.end - s.start for s in grads)
    n_cuts = sum(1 for s in tracer.spans if s.name == "binning.compute_cuts")
    step_ms = np.array([1e3 * (s.end - s.start) for s in steps])
    c = tracer.counters
    out.update({
        "gradient.effective_gradient_ms": 1e3 * grad_s / n_steps,
        "gradient.effective_gradient_ns_per_row": 1e9 * grad_s / sum(s.rows for s in grads),
        # Never 0: at least 1 evaluation per step, and cuts at least once per
        # rebin. Each refresh or halving adds one of each.
        "gradient.evals_per_step": len(grads) / n_steps,
        "binning.cuts_per_step": n_cuts / n_steps,
        "binning.boundary_row_share": c.get("boundary_rows", 0) / c["gradient_rows"],
        "models.step_ms_p50": float(np.percentile(step_ms, 50)),
        "models.step_ms_p90": float(np.percentile(step_ms, 90)),
    })
    step_total = float(step_ms.sum()) / n_steps
    out["share.grad_layers_pct"] = (
        100.0 * sum(out[m] for m in GRADIENT_LAYER_METRICS) / step_total
    )
    out["share.predict_backprop_pct"] = (
        100.0 * (out["models.predict_ms"] + out["models.backprop_ms"]) / step_total
    )
    return out
