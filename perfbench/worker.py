"""One workload run in a fresh process: set up, signal ready, measure, check, report.

Started by `perfbench/run.py` as ``python -m perfbench.worker`` from the
checkout root with liftloss's `src` on PYTHONPATH. Prints ``ready`` once the
inputs are built, then one ``RESULT {json}`` line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
CLI_TIMEOUT_S = 120

import liftloss  # noqa: E402  (import time is part of set-up)

if not Path(liftloss.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"liftloss imported from {liftloss.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
from liftloss import cli, generate, load_csv, n_params, train  # noqa: E402

from perfbench import checks, tracing  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402
from perfbench.run import BLAS_PIN  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CSV_PIPELINE,
    LR,
    OP_STEPS,
    WORKLOADS,
    lift_r2,
    smoke,
)


def _fail(failures: list[str], what: str, err: BaseException) -> None:
    failures.append(f"{what}: {err}")
    if not isinstance(err, CheckFailed):
        traceback.print_exception(err, file=sys.stderr)


def _ratio(a: list[float], b: list[float]) -> float:
    return sum(a) / sum(b) if a and b else float("nan")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


# --------------------------------------------------------------- workloads


def memory_setup(w, seed: int) -> dict:
    t0 = time.perf_counter()
    data = generate(w.gen_config(seed))
    return {"data": data, "generate_s": time.perf_counter() - t0}


def _train_variant(w, data, variant_seed):
    return train(data, w.spec, w.init_params(variant_seed), w.train_config(variant_seed))


def memory_timed(w, seed: int, state: dict, seconds: float) -> dict:
    """Repeat a short `train` of the first variant for `seconds`, then train every
    variant for the workload's full steps, untimed, for the quality metrics.

    Many short identical ops give a far steadier fastest op than a few long
    ones: a shared 2-vCPU VM slowed the same work by up to 50%, in phases of
    seconds to minutes.
    """
    data = state["data"]
    variants = w.variant_seeds(seed)
    op_config = replace(w.train_config(variants[0]), steps=OP_STEPS)
    ops = []  # (wall seconds, (params, trace) or None)
    failures: list[str] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            result = train(data, w.spec, w.init_params(variants[0]), op_config)
        except Exception as err:  # one failed operation; keep measuring the rest
            _fail(failures, f"train op {len(ops)}", err)
            result = None
        ops.append((time.perf_counter() - t0, result))

    first = None
    good_walls = []
    for i, (wall, result) in enumerate(ops):
        if result is None:
            continue
        try:
            checks.trace_consistent(*result, OP_STEPS)
            if first is None:
                first = result
            else:
                checks.same_training(first, result, f"op {i} repeats op 0")
        except CheckFailed as err:
            _fail(failures, f"train op {i}", err)
            continue
        good_walls.append(wall)

    neg_loss, r2 = [], []
    for v in variants:
        try:
            params, trace = _train_variant(w, data, v)
            checks.trace_consistent(params, trace, w.steps)
            if w.batch is None:
                n_bins = tracing.final_n_bins(trace.events, w.bins)
                checks.final_loss_recomputes(data, w.spec, params, trace, n_bins)
            neg_loss.append(-trace.entries[-1].loss)
            r2.append(lift_r2(w, data, params))
        except Exception as err:
            _fail(failures, f"variant {v} full training", err)
    peak = _peak_rss_mb()
    # The fastest op is steadier from run to run than the median; the record
    # keeps every op's wall.
    wall = min(good_walls) if good_walls else float("nan")
    return {
        "attempted": len(ops) + len(variants),
        "failed": len(failures),
        "failures": failures,
        "op_walls_s": [op[0] for op in ops],
        "metrics": {
            "wall_s": wall,
            "row_steps_per_s": w.rows_per_eval * (OP_STEPS + 1) / wall,
            "peak_rss_mb": peak,
            "neg_final_loss": statistics.median(neg_loss) if neg_loss else float("nan"),
            "lift_r2": statistics.median(r2) if r2 else float("nan"),
        },
    }


CSV_METRICS = (
    "dataset.save_csv_us_per_row", "dataset.load_csv_us_per_row", "dataset.csv_bytes",
    "cli.startup_s", "cli.gen_s", "cli.train_s", "cli.eval_s", "cli.write_outputs_ms",
    "share.csv_io_startup_pct",
)


def memory_traced(w, seed: int, state: dict, csv_pipeline) -> dict:
    """Each variant once through `train()` and once through the traced replay,
    then the `csv_pipeline` for the dataset CSV and cli layers.

    Full-batch runs have one variant, which runs twice so the overhead
    compares more than one pair. A pair that raises or whose replay differs
    from `train()` is a failure and gives no samples.
    """
    data = state["data"]
    variants = w.variant_seeds(seed)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    failures: list[str] = []
    events: list[str] = []
    pairs = max(2, len(variants))
    for i in range(pairs):
        v = variants[i % len(variants)]
        walls = {}
        try:
            for trace_it in (i % 2 == 1, i % 2 == 0):  # alternate which side runs first
                t0 = time.perf_counter()
                if trace_it:
                    with tracing.patched(tracer, tracing.GRADIENT_PARTS):
                        replayed = tracing.replay_train(
                            data, w.spec, w.init_params(v), w.train_config(v), tracer
                        )
                else:
                    expected = _train_variant(w, data, v)
                walls[trace_it] = time.perf_counter() - t0
            checks.same_training(expected, replayed, f"traced replay of variant {v} vs train()")
        except Exception as err:
            _fail(failures, f"traced pair {i} (variant {v})", err)
            continue
        untraced.append(walls[False])
        traced.append(walls[True])
        events += expected[1].events
    counters = tracing.count_events(events)
    if not failures and any(tracer.counters.get(k, 0) != n for k, n in counters.items()):
        _fail(failures, "replay", CheckFailed(
            f"replay counted {tracer.counters}, train() events give {counters}"))
    counters["cut_reuse_attempts"] = tracer.counters.get("cut_reuse_attempts", 0)
    metrics = tracing.step_metrics(tracer)
    metrics["dataset.generate_ms"] = 1e3 * state["generate_s"]
    metrics["trace.overhead_ratio"] = _ratio(traced, untraced)

    csv_state = csv_setup(csv_pipeline, seed)
    try:
        csv = csv_traced(csv_pipeline, seed, csv_state)
    finally:
        shutil.rmtree(csv_state["dir"], ignore_errors=True)
    metrics.update({k: csv["metrics"][k] for k in CSV_METRICS})
    return {"attempted": 2 * pairs + csv["attempted"],
            "failed": len(failures) + csv["failed"], "failures": failures + csv["failures"],
            "counters": counters, "metrics": metrics, "tracer": tracer}


# --------------------------------------------------------------- CSV pipeline (traced runs)


def csv_setup(w, seed: int) -> dict:
    out = ROOT / "perfbench" / "_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return {"dir": out}


def _run_cli(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One CLI subprocess; a timeout returns exit code -1, so it counts as a failure."""
    cmd = [sys.executable, "-m", "liftloss.cli", *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(cmd, -1, "", f"timed out after {CLI_TIMEOUT_S} s\n")
    return time.perf_counter() - t0, proc


def _notes(stdout: str) -> list[str]:
    return [ln[len("note: "):] for ln in stdout.splitlines() if ln.startswith("note: ")]


def _pipeline(w, seed: int, out: Path) -> dict:
    """Run gen, train and eval as subprocesses; return walls, exit codes and train notes."""
    out.mkdir()
    op = {"dir": out, "walls": {}, "codes": {}, "notes": []}
    for name, args in w.cli_commands(seed, out):
        wall, proc = _run_cli(args)
        op["walls"][name] = wall
        op["codes"][name] = proc.returncode
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            break
        if name == "train":
            op["notes"] = _notes(proc.stdout)
    return op


def _exited_ok(op: dict) -> bool:
    return len(op["codes"]) == 3 and not any(op["codes"].values())


COMPARED_OUTPUTS = ("data.csv", "run.params.json", "run.trace.csv", "run.snapshots.json",
                    "report.csv")


def _check_pipeline(w, seed: int, op: dict) -> list[str]:
    """Full output checks of one pipeline run; returns the failures."""
    failures: list[str] = []
    out = op["dir"]
    if not _exited_ok(op):
        failures.append(f"{out.name}: nonzero exit {op['codes']}")
        return failures
    try:
        data = load_csv(out / "data.csv")
        checks.dataset_matches_generate(data, w.gen_config(seed))
    except Exception as err:
        _fail(failures, "gen output", err)
        return failures
    try:
        prefix = str(out / "run")
        checks.train_outputs_complete(prefix, n_params(w.spec), w.steps, w.snapshots)
        params, trace = train(data, w.spec, w.init_params(seed), w.train_config(seed))
        checks.params_file_matches(f"{prefix}.params.json", w.spec, params)
        if op["notes"] != trace.events:
            raise CheckFailed(f"CLI notes {op['notes']} != train() events {trace.events}")
    except Exception as err:
        _fail(failures, "train output", err)
    try:
        checks.eval_matches_trace(out / "report.csv", out / "run.trace.csv")
    except Exception as err:
        _fail(failures, "eval output", err)
    return failures


def _inprocess_pipeline(w, seed: int, out: Path,
                        tracer: tracing.Tracer | None) -> tuple[float, str]:
    """The same three commands through `liftloss.cli.main` in this process."""
    out.mkdir()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        for name, args in w.cli_commands(seed, out):
            if tracer is None:
                code = cli.main(args)
            else:
                with tracer.span(f"cli.{name}"):
                    code = cli.main(args)
            if code != 0:
                raise RuntimeError(f"in-process liftloss {name} exited {code}")
    return time.perf_counter() - t0, buf.getvalue()


STARTUP_PROBES = 5  # `liftloss --version` runs behind cli.startup_s
TRACED_PAIRS = 2  # in-process pipelines run traced and untraced


def csv_traced(w, seed: int, state: dict) -> dict:
    """Subprocess pipeline for the CLI timings, then in-process pairs, traced and untraced.

    The pairs alternate which side runs first, so warm-up does not bias the
    overhead. A CLI call or pair that fails is counted and gives no samples.
    """
    work = state["dir"]
    failures: list[str] = []
    startup = []
    for i in range(STARTUP_PROBES):
        wall, proc = _run_cli(["--version"])
        if proc.returncode != 0:
            failures.append(f"startup probe {i}: liftloss --version exited {proc.returncode}")
            continue
        startup.append(wall)
    op = _pipeline(w, seed, work / "subprocess")
    failures += _check_pipeline(w, seed, op)

    tracer = tracing.Tracer()

    def traced_train(dataset, spec, init, config):
        with tracer.span("models.train"), tracing.patched(tracer, tracing.GRADIENT_PARTS):
            return tracing.replay_train(dataset, spec, init, config, tracer)

    untraced, traced = [], []
    for i in range(TRACED_PAIRS):
        walls = {}
        try:
            for trace_it in (i % 2 == 1, i % 2 == 0):
                out = work / f"{'traced' if trace_it else 'untraced'}{i}"
                if not trace_it:
                    walls[False] = _inprocess_pipeline(w, seed, out, None)[0]
                    continue
                with tracing.patched(tracer, tracing.CLI_IO), \
                        mock.patch.object(cli, "train", traced_train):
                    walls[True], stdout = _inprocess_pipeline(w, seed, out, tracer)
                for name in COMPARED_OUTPUTS:
                    checks.files_identical(op["dir"] / name, out / name)
                if _notes(stdout) != op["notes"]:
                    raise CheckFailed(f"traced notes {_notes(stdout)} != CLI notes {op['notes']}")
        except Exception as err:
            _fail(failures, f"traced pipeline pair {i}", err)
            continue
        untraced.append(walls[False])
        traced.append(walls[True])

    own = tracing.self_times(tracer)
    per_call: dict[str, list[float]] = {}
    for s in tracer.spans:
        per_call.setdefault(s.name, []).append(s.end - s.start)
    nan = float("nan")
    mean = {name: statistics.fmean(d) for name, d in per_call.items()}
    write_outputs = [t for s, t in zip(tracer.spans, own) if s.name == "cli.train"]
    metrics = tracing.step_metrics(tracer)
    startup_s = statistics.median(startup) if startup else nan
    # One save and two loads per pipeline, as a share of the traced in-process
    # pipeline that holds them plus the three start-ups it saves, so both sides
    # are measured together.
    io_s = mean.get("dataset.save_csv", nan) + 2 * mean.get("dataset.load_csv", nan)
    pipeline_s = (statistics.fmean(traced) if traced else nan) + 3 * startup_s
    metrics.update({
        "dataset.generate_ms": 1e3 * mean.get("dataset.generate", nan),
        "dataset.save_csv_us_per_row": 1e6 * mean.get("dataset.save_csv", nan) / w.rows,
        "dataset.load_csv_us_per_row": 1e6 * mean.get("dataset.load_csv", nan) / w.rows,
        "dataset.csv_bytes": (op["dir"] / "data.csv").stat().st_size if _exited_ok(op) else nan,
        "cli.startup_s": startup_s,
        "cli.gen_s": op["walls"].get("gen", nan),
        "cli.train_s": op["walls"].get("train", nan),
        "cli.eval_s": op["walls"].get("eval", nan),
        "cli.write_outputs_ms": 1e3 * statistics.fmean(write_outputs) if write_outputs else nan,
        "share.csv_io_startup_pct": 100.0 * (io_s + 3 * startup_s) / pipeline_s,
        "trace.overhead_ratio": _ratio(traced, untraced),
    })
    counters = tracing.count_events(op["notes"])
    counters["cut_reuse_attempts"] = tracer.counters.get("cut_reuse_attempts", 0)
    return {"attempted": STARTUP_PROBES + 3 + 6 * TRACED_PAIRS, "failed": len(failures),
            "failures": failures, "counters": counters, "metrics": metrics, "tracer": tracer}


# --------------------------------------------------------------- entry point


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "cpu_count": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    ap.add_argument("--probe", action="store_true", help="set up, print ready and exit")
    ap.add_argument("--spans", help="file to write the traced run's spans to")
    args = ap.parse_args(argv)
    w, csv_pipeline = WORKLOADS[args.workload], CSV_PIPELINE
    if args.smoke:
        w, csv_pipeline = smoke(w), smoke(csv_pipeline)
    state = memory_setup(w, args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0
    try:
        if args.trace:
            result = memory_traced(w, args.seed, state, csv_pipeline)
        else:
            result = memory_timed(w, args.seed, state, args.seconds)
    except Exception as err:  # a failure outside any one operation; report no metrics
        failures: list[str] = []
        _fail(failures, "run", err)
        result = {"attempted": 1, "failed": 1, "failures": failures, "metrics": {}}
    tracer = result.pop("tracer", None)
    if tracer is not None and args.spans:
        Path(args.spans).write_text(json.dumps(tracer.to_json()) + "\n")
    result["environment"] = environment()
    result["workload"] = {"rows": w.rows, "bins": w.bins, "batch": w.batch, "steps": w.steps,
                          "op_steps": OP_STEPS, "rebin_every": w.rebin_every, "lr": LR,
                          "variants": w.variants, "model": w.model.value}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
