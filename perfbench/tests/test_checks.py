"""Each output check passes on real artifacts and fails on a corrupted one."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from liftloss import cli, generate, load_csv, train
from liftloss.models import TraceEntry, TrainTrace

from perfbench import checks, tracing
from perfbench.checks import CheckFailed
from perfbench.workloads import CSV_PIPELINE, WORKLOADS, smoke

CSV = smoke(CSV_PIPELINE)
MLP = replace(smoke(WORKLOADS["minibatch_mlp_1m"]), steps=12)
SEED = 7


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    for _, args in CSV.cli_commands(SEED, out):
        assert cli.main(args) == 0
    return out


def corrupt_digit(path: Path, line_no: int) -> None:
    """Change the last digit of the first field on one line."""
    lines = path.read_text().splitlines(keepends=True)
    field = lines[line_no].split(",")[0]
    digit = str((int(field[-1]) + 1) % 10)
    lines[line_no] = field[:-1] + digit + lines[line_no][len(field):]
    path.write_text("".join(lines))


def copy(src: Path, dst: Path) -> Path:
    dst.write_bytes(src.read_bytes())
    return dst


def trained(pipeline):
    data = load_csv(pipeline / "data.csv")
    return data, train(data, CSV.spec, CSV.init_params(SEED), CSV.train_config(SEED))


def test_gen_output_check(pipeline, tmp_path):
    checks.dataset_matches_generate(load_csv(pipeline / "data.csv"), CSV.gen_config(SEED))
    bad = copy(pipeline / "data.csv", tmp_path / "data.csv")
    corrupt_digit(bad, 5)
    with pytest.raises(CheckFailed, match="column features"):
        checks.dataset_matches_generate(load_csv(bad), CSV.gen_config(SEED))
    with pytest.raises(CheckFailed):
        checks.dataset_matches_generate(load_csv(pipeline / "data.csv"), CSV.gen_config(SEED + 1))


def test_params_check(pipeline, tmp_path):
    _, (params, _) = trained(pipeline)
    checks.params_file_matches(pipeline / "run.params.json", CSV.spec, params)
    doc = json.loads((pipeline / "run.params.json").read_text())
    doc["values"][1] = float(np.nextafter(doc["values"][1], np.inf))
    bad = tmp_path / "run.params.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="in-process"):
        checks.params_file_matches(bad, CSV.spec, params)
    bad.write_text("{}")
    with pytest.raises(CheckFailed, match="malformed"):
        checks.params_file_matches(bad, CSV.spec, params)


def test_outputs_check(pipeline, tmp_path):
    n = len(CSV.init_params(SEED))
    checks.train_outputs_complete(str(pipeline / "run"), n, CSV.steps, CSV.snapshots)
    for path in pipeline.glob("run.*"):
        copy(path, tmp_path / path.name)
    prefix = str(tmp_path / "run")
    (tmp_path / f"run.snapshot_t{CSV.snapshots[-1]}.csv").unlink()
    with pytest.raises(CheckFailed, match="missing output"):
        checks.train_outputs_complete(prefix, n, CSV.steps, CSV.snapshots)
    copy(pipeline / f"run.snapshot_t{CSV.snapshots[-1]}.csv",
         tmp_path / f"run.snapshot_t{CSV.snapshots[-1]}.csv")
    trace_csv = tmp_path / "run.trace.csv"
    trace_csv.write_text(trace_csv.read_text().replace("separation,", "sep,", 1))
    with pytest.raises(CheckFailed, match="header"):
        checks.train_outputs_complete(prefix, n, CSV.steps, CSV.snapshots)


def test_eval_check(pipeline, tmp_path):
    checks.eval_matches_trace(pipeline / "report.csv", pipeline / "run.trace.csv")
    trace_csv = copy(pipeline / "run.trace.csv", tmp_path / "run.trace.csv")
    lines = trace_csv.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-9))
    lines[-1] = ",".join(fields)
    trace_csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="differs from final train loss"):
        checks.eval_matches_trace(pipeline / "report.csv", trace_csv)


def test_files_identical(pipeline, tmp_path):
    same = copy(pipeline / "data.csv", tmp_path / "same.csv")
    checks.files_identical(pipeline / "data.csv", same)
    corrupt_digit(same, 2)
    with pytest.raises(CheckFailed):
        checks.files_identical(pipeline / "data.csv", same)


def test_final_loss_check(pipeline):
    data, (params, trace) = trained(pipeline)
    checks.trace_consistent(params, trace, CSV.steps)
    checks.final_loss_recomputes(data, CSV.spec, params, trace, CSV.bins)
    last = trace.entries[-1]
    off = TrainTrace(trace.entries[:-1] + [TraceEntry(last.step, last.loss * (1 + 1e-12),
                                                      last.bias_term, last.separation_term,
                                                      last.params)])
    with pytest.raises(CheckFailed, match="recomputed loss"):
        checks.final_loss_recomputes(data, CSV.spec, params, off, CSV.bins)
    with pytest.raises(CheckFailed, match="trace entries"):
        checks.trace_consistent(params, off, CSV.steps + 1)


def test_replay_equals_train_with_refreshes():
    data = generate(MLP.gen_config(SEED))
    for variant in MLP.variant_seeds(SEED):
        args = (data, MLP.spec, MLP.init_params(variant), MLP.train_config(variant))
        expected = train(*args)
        tracer = tracing.Tracer()
        with tracing.patched(tracer, tracing.GRADIENT_PARTS):
            replayed = tracing.replay_train(*args, tracer)
        checks.same_training(expected, replayed, "replay")
        counts = tracing.count_events(expected[1].events)
        assert counts == {k: tracer.counters.get(k, 0) for k in counts}
        retries = counts["cut_refreshes"] + counts["bin_halvings"]
        metrics = tracing.step_metrics(tracer)
        assert metrics["gradient.evals_per_step"] == pytest.approx(1 + retries / (MLP.steps + 1))
        rebins = len(range(0, MLP.steps + 1, MLP.rebin_every))
        assert metrics["binning.cuts_per_step"] == pytest.approx(
            (rebins + retries) / (MLP.steps + 1))
        assert 0 < metrics["binning.boundary_row_share"] < 1
    perturbed = (expected[0] + 1e-15, expected[1])
    with pytest.raises(CheckFailed, match="final params differ"):
        checks.same_training(expected, perturbed, "replay")


def test_patched_restores_originals():
    from liftloss import gradient

    before = gradient.assign_bins
    with tracing.patched(tracing.Tracer(), tracing.GRADIENT_PARTS):
        assert gradient.assign_bins is not before
    assert gradient.assign_bins is before


def test_event_counting():
    events = [
        "step 3: bin 2 of 10 has no control rows; retry with fewer bins; refreshing cuts",
        "step 9: bin 1 of 10 has no control rows; retry with fewer bins; reducing bins 10 -> 5",
    ]
    assert tracing.count_events(events) == {"cut_refreshes": 1, "bin_halvings": 1}
    assert tracing.final_n_bins(events, 10) == 5
