"""Output checks. Each raises CheckFailed with a reason; the caller counts it as a failure."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from liftloss import (
    assign_bins,
    compute_cuts,
    generate,
    global_lift,
    load_params,
    predict,
    subset_stats,
    true_lift_loss,
)


EVAL_TOL = 1e-12  # eval loss vs final trace loss


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def same_bits(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dataset_matches_generate(loaded, gen_config) -> None:
    """A dataset read back with `load_csv` is bit-identical to `generate(gen_config)`."""
    ref = generate(gen_config)
    for column in ("features", "outcome", "arm", "true_lift"):
        _require(
            same_bits(getattr(loaded, column), getattr(ref, column)),
            f"column {column} differs from generate({gen_config})",
        )


def eval_matches_trace(report_path, trace_path) -> None:
    """The eval report's loss equals the last `trace.csv` loss within `EVAL_TOL`."""
    summary = [ln for ln in Path(report_path).read_text().splitlines() if ln.startswith("# loss=")]
    _require(len(summary) == 1, f"{report_path}: no '# loss=' summary line")
    eval_loss = float(summary[0].split()[1].split("=", 1)[1])
    last = Path(trace_path).read_text().splitlines()[-1]
    train_loss = float(last.split(",")[1])
    _require(
        abs(eval_loss - train_loss) <= EVAL_TOL,
        f"eval loss {eval_loss!r} differs from final train loss {train_loss!r} "
        f"by more than {EVAL_TOL}",
    )


def params_file_matches(params_path, spec, params) -> None:
    """The saved params file holds exactly `spec` and `params`."""
    try:
        saved_spec, saved = load_params(params_path)
    except (ValueError, OSError) as err:
        raise CheckFailed(f"{params_path}: {err}") from err
    _require(saved_spec == spec, f"{params_path}: model {saved_spec} != {spec}")
    _require(same_bits(saved, params), f"{params_path}: {saved} != in-process {params}")


def train_outputs_complete(prefix: str, n_params: int, steps: int, snapshots) -> None:
    """Every file `liftloss train` documents exists and `trace.csv` has its header."""
    names = ["params.json", "trace.csv", "snapshots.json", "manifest.json"]
    names += [f"snapshot_t{t}.csv" for t in snapshots]
    for name in names:
        _require(Path(f"{prefix}.{name}").is_file(), f"missing output {prefix}.{name}")
    lines = Path(f"{prefix}.trace.csv").read_text().splitlines()
    header = "step,loss,bias,separation," + ",".join(f"p{i}" for i in range(n_params))
    _require(lines[0] == header, f"trace.csv header {lines[0]!r} != {header!r}")
    _require(len(lines) == steps + 2,
             f"trace.csv has {len(lines) - 1} rows, expected {steps + 1}")
    doc = json.loads(Path(f"{prefix}.snapshots.json").read_text())
    _require(doc["steps"] == sorted(snapshots),
             f"snapshot steps {doc['steps']} != {list(snapshots)}")


def files_identical(a, b) -> None:
    _require(Path(a).read_bytes() == Path(b).read_bytes(), f"{a} and {b} differ")


def same_training(result_a, result_b, what: str) -> None:
    """Two (params, TrainTrace) results agree exactly: params, losses and events."""
    (pa, ta), (pb, tb) = result_a, result_b
    _require(same_bits(pa, pb), f"{what}: final params differ: {pa} vs {pb}")
    _require(same_bits(ta.losses(), tb.losses()), f"{what}: trace losses differ")
    _require(ta.events == tb.events, f"{what}: events differ: {ta.events} vs {tb.events}")


def trace_consistent(params, trace, steps: int) -> None:
    """`train` kept one entry per step, and the last entry holds the returned params."""
    _require(len(trace.entries) == steps + 1,
             f"{len(trace.entries)} trace entries for {steps} steps")
    _require(np.isfinite(trace.losses()).all(), "non-finite trace loss")
    _require(same_bits(trace.entries[-1].params, params),
             "last trace entry params != returned params")


def final_loss_recomputes(dataset, spec, params, trace, n_bins: int) -> None:
    """A full-batch run's last loss equals a fresh evaluation of the returned params."""
    preds = predict(spec, params, dataset)
    bins = assign_bins(preds, compute_cuts(preds, n_bins))
    stats = subset_stats(dataset, preds, bins, n_bins, global_lift(dataset))
    loss = true_lift_loss(stats).loss
    last = trace.entries[-1].loss
    _require(loss == last, f"recomputed loss {loss!r} != trace {last!r}")
