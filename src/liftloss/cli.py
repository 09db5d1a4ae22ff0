"""Command-line interface: data generation, training, evaluation, checks.

Subcommands: gen, train, eval, gradcheck, plot-data. Every flag can also be
given in a config file of ``key = value`` lines (via --config); flags on the
command line take precedence. Each command that writes files also writes a
manifest JSON recording the resolved options, so runs are reproducible.

Exit codes: 0 success, 1 validation error, 2 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .binning import BinningError, DegeneratePredictionsError, assign_bins, compute_cuts
from .checks import BIAS_TOLERANCE, MIGRATION_TOLERANCE, run_gradcheck
from .dataset import (
    CsvFormatError,
    DataGenConfig,
    NoiseDistribution,
    generate,
    load_csv,
    save_csv,
    write_csv,
)
from .gradient import GradConfig
from .loss import (
    EmptyArmInBinError,
    LossReport,
    bin_table,
    subset_stats,
    true_lift_loss,
    write_loss_report,
)
from .models import (
    Activation,
    ModelKind,
    ModelSpec,
    TrainConfig,
    TrainingDivergedError,
    load_params,
    n_params,
    predict,
    random_params,
    save_params,
    train,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors: exit 1
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_manifest(path: Path, command: str, args: argparse.Namespace, inputs, outputs) -> None:
    options = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    doc = {
        "command": command,
        "version": __version__,
        "seed": options.get("seed"),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "options": options,
    }
    path.write_text(json.dumps(doc, indent=2, default=str) + "\n", encoding="utf-8")


def _parse_floats(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def cmd_gen(args) -> int:
    if args.rows < 2:
        raise ValueError(f"--rows must be >= 2, got {args.rows}")
    config = DataGenConfig(
        n_rows=args.rows,
        treatment_fraction=args.treatment_frac,
        seed=args.seed,
        noise_distribution=NoiseDistribution(args.noise),
        lift_coefficient=args.lift,
    )
    dataset = generate(config)
    out = Path(args.output)
    save_csv(dataset, out)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "gen", args, [], [out])
    print(f"wrote {len(dataset)} rows ({dataset.n_treatment} treated) to {out}")
    return 0


def _model_spec(args, d: int) -> ModelSpec:
    kind = ModelKind(args.model)
    if kind is ModelKind.MLP:
        if args.hidden is None:
            raise ValueError("--hidden is required for --model mlp")
        args.activation = args.activation or Activation.TANH.value  # resolved for the manifest
    activation = None if args.activation is None else Activation(args.activation)
    return ModelSpec(kind, d, args.hidden, activation)


def _init_params(args, spec: ModelSpec) -> np.ndarray:
    if args.init is None:
        return random_params(spec, args.seed)
    values = _parse_floats(args.init, "--init")
    if values.shape != (n_params(spec),):
        raise ValueError(
            f"--init needs {n_params(spec)} values for this model "
            f"(layout: coefficients then offset for linear), got {values.size}"
        )
    return values


def _snapshot_doc(step: int, report: LossReport) -> dict:
    s = report.stats
    table = bin_table(s)
    return {
        "step": step,
        "loss": report.loss,
        "bias": report.bias_term,
        "separation": report.separation_term,
        "total_size": s.total_size,
        "global_lift": s.global_lift,
        "bins": [dict(zip(table, row)) for row in zip(*(c.tolist() for c in table.values()))],
    }


def _write_trace(path: Path, entries) -> None:
    """One LF-terminated row per trace entry: step, loss split, then every parameter."""
    params = np.array([e.params for e in entries])
    header = ["step", "loss", "bias", "separation"] + [f"p{i}" for i in range(params.shape[1])]
    scalars = zip(*((e.step, e.loss, e.bias_term, e.separation_term) for e in entries))
    write_csv(path, header, [*scalars, *params.T], "\n")


def cmd_train(args) -> int:
    dataset = load_csv(args.data)
    spec = _model_spec(args, dataset.d)
    init = _init_params(args, spec)
    snapshots = _parse_ints(args.snapshots, "--snapshots") if args.snapshots else ()
    config = TrainConfig(
        step_size=args.lr,
        steps=args.steps,
        grad=GradConfig(
            n_bins=args.bins,
            migration_step_scale=args.migration_scale,
            rebin_every=args.rebin_every,
            max_sort=args.max_sort,
        ),
        batch=args.batch,
        snapshot_steps=snapshots,
        seed=args.seed,
    )
    params, trace = train(dataset, spec, init, config)

    prefix = Path(args.output)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    params_path = Path(f"{prefix}.params.json")
    trace_path = Path(f"{prefix}.trace.csv")
    snaps_path = Path(f"{prefix}.snapshots.json")
    outputs = [params_path, trace_path, snaps_path]

    save_params(params_path, spec, params)
    _write_trace(trace_path, trace.entries)
    snaps_doc = {
        "steps": sorted(trace.snapshots),
        "events": trace.events,
        "snapshots": [_snapshot_doc(t, trace.snapshots[t]) for t in sorted(trace.snapshots)],
    }
    snaps_path.write_text(json.dumps(snaps_doc, indent=2) + "\n", encoding="utf-8")
    for t in sorted(trace.snapshots):
        snap_csv = Path(f"{prefix}.snapshot_t{t}.csv")
        write_loss_report(trace.snapshots[t], snap_csv)
        outputs.append(snap_csv)
    _write_manifest(Path(f"{prefix}.manifest.json"), "train", args, [args.data], outputs)

    final = trace.entries[-1]
    print(f"trained {config.steps} steps: loss {final.loss:.6f} params {np.array2string(params, precision=4)}")
    for event in trace.events:
        print(f"note: {event}")
    return 0


def cmd_eval(args) -> int:
    if args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    if args.bins > 1 and args.max_sort < args.bins:  # one bin needs no cuts, so no sort
        raise ValueError(f"--max-sort ({args.max_sort}) must be at least --bins ({args.bins})")
    dataset = load_csv(args.data)
    spec, params = load_params(args.params)
    predictions = predict(spec, params, dataset)
    n_bins = args.bins
    note = None
    try:
        cuts = compute_cuts(predictions, n_bins, max_sort=args.max_sort, seed=args.seed)
    except DegeneratePredictionsError:
        distinct = int(np.unique(predictions).size)
        if distinct >= n_bins:
            raise
        note = f"predictions have only {distinct} distinct values; evaluated with {distinct} bins"
        print(f"warning: {note}", file=sys.stderr)
        n_bins = distinct
        cuts = compute_cuts(predictions, n_bins, max_sort=args.max_sort, seed=args.seed)
    bins = assign_bins(predictions, cuts)
    report = true_lift_loss(subset_stats(dataset, predictions, bins, n_bins))
    out = Path(args.output)
    write_loss_report(report, out)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "eval",
        args,
        [args.data, args.params],
        [out],
    )
    if note:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(f"# note: {note}\n")
    print(
        f"loss {report.loss:.6f} (bias {report.bias_term:.6f}, "
        f"separation {report.separation_term:.6f}) over {n_bins} bins -> {out}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    config = GradConfig(
        n_bins=args.bins, migration_step_scale=args.migration_scale, max_sort=args.max_sort
    )
    if args.data is not None:
        dataset = load_csv(args.data)
    else:
        if args.rows < 2:
            raise ValueError(f"--rows must be >= 2, got {args.rows}")
        dataset = generate(DataGenConfig(n_rows=args.rows, seed=args.seed))
    rng = np.random.default_rng(args.seed)
    model = ModelSpec(ModelKind.LINEAR, dataset.d)
    predictions = predict(model, rng.standard_normal(dataset.d + 1), dataset)
    result = run_gradcheck(dataset, predictions, config, args.sample_rows, args.seed)
    print(
        f"bias gradient vs frozen-structure finite differences: "
        f"max relative error {result.bias_max_rel_err:.3e} "
        f"(tolerance {BIAS_TOLERANCE:.0e}) {'PASS' if result.bias_passed else 'FAIL'}"
    )
    print(
        f"migration terms vs recompute oracle over {result.migration_rows_checked} rows: "
        f"max relative error {result.migration_max_rel_err:.3e} "
        f"(tolerance {MIGRATION_TOLERANCE:.0e}) {'PASS' if result.migration_passed else 'FAIL'}"
    )
    if not result.passed:
        print("gradcheck FAILED", file=sys.stderr)
        return 2
    print("gradcheck PASS")
    return 0


def cmd_plot_data(args) -> int:
    snaps_path = Path(args.snapshots)
    if not snaps_path.exists():
        raise FileNotFoundError(f"snapshot file not found: {snaps_path}")
    fields = ["bin", "mean_pred", "lift", "size"]
    try:  # a malformed file names itself and the first entry it lacks
        doc = json.loads(snaps_path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise KeyError("snapshots")
        available = {
            snap["step"]: [[row[k] for row in snap["bins"]] for k in fields]
            for snap in doc["snapshots"]
        }
    except KeyError as err:
        raise ValueError(f"{snaps_path} has no {err} entry") from None
    except (TypeError, json.JSONDecodeError) as err:
        raise ValueError(f"{snaps_path} is not a train snapshots file: {err}") from None
    if not available:
        raise ValueError(f"{snaps_path} contains no snapshots")
    wanted = _parse_ints(args.steps, "--steps") if args.steps else tuple(sorted(available))
    missing = [t for t in wanted if t not in available]
    if missing:
        raise ValueError(
            f"snapshot steps {missing} not found; available: {sorted(available)}"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for t in wanted:
        out = out_dir / f"bins_t{t}.csv"
        write_csv(out, fields, available[t], "\n")
        outputs.append(out)
    _write_manifest(out_dir / "plot_data.manifest.json", "plot-data", args, [snaps_path], outputs)
    print(f"wrote {len(outputs)} snapshot files to {out_dir}")
    return 0


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="file of 'key = value' lines; command-line flags win")


def build_parser() -> _Parser:
    parser = _Parser(prog="liftloss", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"liftloss {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a synthetic randomized-experiment CSV")
    p.add_argument("--rows", type=int, required=True, help="number of rows (>= 2)")
    p.add_argument("--treatment-frac", type=float, default=DataGenConfig.treatment_fraction)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=["uniform", "normal"], default=DataGenConfig.noise_distribution.value)
    p.add_argument("--lift", type=float, default=DataGenConfig.lift_coefficient, help="lift coefficient on the third noise draw")
    p.add_argument("-o", "--output", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit a model by descending the binned lift loss")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--model", choices=["linear", "mlp"], default="linear")
    p.add_argument("--hidden", type=int, help="hidden width (mlp only)")
    p.add_argument("--activation", choices=["tanh", "relu"], help="hidden activation (mlp only; default tanh)")
    p.add_argument("--init", help="comma-separated parameters, coefficients then offset; random if omitted")
    p.add_argument("--lr", type=float, default=0.1, help="gradient step size")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--batch", type=int, help="minibatch size (full batch if omitted)")
    p.add_argument("--snapshots", help="comma-separated step indices to snapshot")
    p.add_argument("--rebin-every", type=int, default=GradConfig.rebin_every)
    p.add_argument("--migration-scale", type=float, default=GradConfig.migration_step_scale)
    p.add_argument("--max-sort", type=int, default=GradConfig.max_sort)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="output prefix")
    _add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved model parameters on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--params", required=True, help="params JSON from train")
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--max-sort", type=int, default=GradConfig.max_sort)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="loss report CSV")
    _add_config_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify the gradient against independent oracles")
    p.add_argument("--data", help="dataset CSV (synthetic data generated if omitted)")
    p.add_argument("--rows", type=int, default=200, help="rows of synthetic data when --data is omitted")
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--migration-scale", type=float, default=GradConfig.migration_step_scale)
    p.add_argument("--max-sort", type=int, default=GradConfig.max_sort)
    p.add_argument("--sample-rows", type=int, default=100, help="rows sampled for the bias check")
    _add_config_flag(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("plot-data", help="export per-snapshot bin CSVs for plotting")
    p.add_argument("--snapshots", required=True, help="snapshots JSON written by train")
    p.add_argument("--steps", help="comma-separated snapshot steps (default: all)")
    p.add_argument("--out-dir", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_plot_data)
    return parser


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config FILE into argv tokens placed before the real flags."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    return [argv[0]] + _config_tokens(path) + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.func(args)
    except SystemExit as exc:  # argparse help/usage paths
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 1)
    except (EmptyArmInBinError, BinningError, TrainingDivergedError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CsvFormatError, FileNotFoundError, IsADirectoryError, PermissionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _config_tokens(path: str) -> list[str]:
    """Turn 'key = value' config lines into argv tokens (prepended, so real
    flags override them). A line whose first non-blank character is '#' is a
    comment; every value is passed as written, a '#' in it included."""
    tokens: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line must be 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not key:
            raise ValueError(f"config line has empty key: {raw!r}")
        tokens.extend([f"--{key}", value])
    return tokens


if __name__ == "__main__":
    sys.exit(main())
