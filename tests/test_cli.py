import argparse
import codecs
import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from liftloss import (
    DataGenConfig,
    GradConfig,
    NoiseDistribution,
    bias_gradient,
    checks,
    effective_gradient,
    load_csv,
    load_params,
)
from liftloss.binning import MAX_SORT
from liftloss import cli
from liftloss.cli import build_parser, main

from reference_gradient import reference_cut_sample


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["gen", "--rows", "2000", "--treatment-frac", "0.7", "--seed", "1",
                 "-o", str(path)]) == 0
    return path


def run_train(tmp_path, data_csv, *extra):
    prefix = tmp_path / "run"
    code = main([
        "train", "--data", str(data_csv), "--model", "linear",
        "--init", "1,0.1,1", "--lr", "0.1", "--steps", "10", "--bins", "5",
        "--snapshots", "0,1,10", "-o", str(prefix), *extra,
    ])
    return code, prefix


class TestGen:
    def test_writes_rows_and_manifest(self, tmp_path, data_csv):
        ds = load_csv(data_csv)
        assert len(ds) == 2000 and ds.true_lift is not None
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert manifest["command"] == "gen" and manifest["seed"] == 1
        assert manifest["options"]["rows"] == 2000

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen", "--rows", "500", "--seed", "9"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_rows_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--rows", "0", "-o", str(tmp_path / "x.csv")]) == 1
        assert "--rows" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, tmp_path):
        assert main(["gen", "--rows", "10", "--bogus", "-o", str(tmp_path / "x.csv")]) == 1


def test_flag_defaults_come_from_the_library(monkeypatch):
    # move every library default: the parser must follow, so each has one home
    for cls, name, value in (
        (GradConfig, "rebin_every", 3),
        (DataGenConfig, "treatment_fraction", 0.4),
        (DataGenConfig, "noise_distribution", NoiseDistribution.STD_NORMAL),
        (DataGenConfig, "lift_coefficient", 0.9),
    ):
        monkeypatch.setattr(cls, name, value)
    parser = build_parser()
    gen = parser.parse_args(["gen", "--rows", "10", "-o", "x"])
    assert (gen.treatment_frac, gen.noise, gen.lift) == (0.4, "normal", 0.9)
    train = parser.parse_args(["train", "--data", "d", "-o", "x"])
    assert train.rebin_every == 3


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv,flag,value", [
    (["train", "--data", "d.csv", "-o", "run"], "--max-sort", "5"),
    (["eval", "--data", "d.csv", "--params", "m.json", "-o", "e.csv"], "--max-sort", "5"),
    (["gradcheck"], "--max-sort", "5"),
    (["eval", "--data", "d.csv", "--params", "m.json", "-o", "e.csv"], "--seed", "1"),
    (["train", "--data", "d.csv", "-o", "run"], "--migration-scale", "0.5"),
    (["gradcheck"], "--migration-scale", "0.5"),
], ids=["train-max-sort", "eval-max-sort", "gradcheck-max-sort", "eval-seed",
        "train-migration-scale", "gradcheck-migration-scale"])
def test_cut_sample_settings_are_unknown_flags(tmp_path, capsys, argv, flag, value, via_config):
    # the cuts depend only on the predictions and the bin count, and the
    # probe shift is the constant MIGRATION_STEP_SCALE of the segment width
    extra = [flag, value]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
        extra = ["--config", str(cfg)]
    assert main([*argv, *extra]) == 1
    assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err


class TestTrain:
    def test_writes_all_outputs(self, tmp_path, data_csv):
        code, prefix = run_train(tmp_path, data_csv)
        assert code == 0
        spec, params = load_params(f"{prefix}.params.json")
        assert params.shape == (3,)
        trace_lines = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace_lines[0] == "step,loss,bias,separation,p0,p1,p2"
        assert len(trace_lines) == 12  # header + steps 0..10
        snaps = json.loads((tmp_path / "run.snapshots.json").read_text())
        assert snaps["steps"] == [0, 1, 10]
        for t in (0, 1, 10):
            assert (tmp_path / f"run.snapshot_t{t}.csv").exists()
        assert (tmp_path / "run.manifest.json").exists()

    def test_initial_snapshot_predictions_dominate_lifts(self, tmp_path, data_csv):
        # started far too high, every bin predicts far above its lift; the
        # snapshot CSV read as README says holds the JSON's per-bin values
        code, prefix = run_train(tmp_path, data_csv)
        path = Path(f"{prefix}.snapshot_t0.csv")
        header = path.read_text().splitlines()[0].split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, comments="#")
        columns = dict(zip(header, table.T))
        assert columns["mean_pred"].min() > columns["lift"].max()
        bins = json.loads(Path(f"{prefix}.snapshots.json").read_text())["snapshots"][0]["bins"]
        for name in ("mean_pred", "lift", "size"):
            assert columns[name].tolist() == [row[name] for row in bins]

    def test_zero_steps_keeps_init(self, tmp_path, data_csv):
        prefix = tmp_path / "noop"
        assert main(["train", "--data", str(data_csv), "--init", "1,0.1,1",
                     "--steps", "0", "--bins", "5", "-o", str(prefix)]) == 0
        _, params = load_params(f"{prefix}.params.json")
        np.testing.assert_array_equal(params, [1.0, 0.1, 1.0])

    def test_too_many_bins_fails_nonzero(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        assert main(["gen", "--rows", "100", "--seed", "2", "-o", str(small)]) == 0
        code = main(["train", "--data", str(small), "--steps", "2", "--bins", "1000",
                     "-o", str(tmp_path / "bad")])
        assert code == 2
        assert "bins" in capsys.readouterr().err

    @pytest.mark.parametrize("args,setting", [
        (["--lr", "inf"], "step_size"),
        (["--lr", "nan"], "step_size"),
        (["--init", "nan,0.1,1"], "initial parameters"),
        (["--init", "1,-inf,1"], "initial parameters"),
    ])
    def test_non_finite_settings_are_usage_errors(self, tmp_path, data_csv, capsys, args, setting):
        code = main(["train", "--data", str(data_csv), "--steps", "2", *args,
                     "-o", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting in err and "finite" in err
        assert not (tmp_path / "x.manifest.json").exists()

    @pytest.mark.parametrize("model", [[], ["--model", "mlp", "--hidden", "3"]], ids=["linear", "mlp"])
    def test_negative_seed_is_named(self, tmp_path, data_csv, capsys, model):
        # without --init the seed draws the initial parameters before training starts
        prefix = tmp_path / "run"
        assert main(["train", "--data", str(data_csv), *model, "--steps", "2", "--seed", "-1",
                     "-o", str(prefix)]) == 1
        assert capsys.readouterr().err == "error: seed must fit in 64 unsigned bits, got -1\n"
        assert not Path(f"{prefix}.manifest.json").exists()

    def test_wrong_init_length_is_usage_error(self, tmp_path, data_csv):
        code = main(["train", "--data", str(data_csv), "--init", "1,2",
                     "--steps", "1", "-o", str(tmp_path / "x")])
        assert code == 1

    def test_hidden_with_linear_model_is_usage_error(self, tmp_path, data_csv, capsys):
        code = main(["train", "--data", str(data_csv), "--model", "linear", "--hidden", "8",
                     "--steps", "1", "-o", str(tmp_path / "x")])
        assert code == 1
        assert "only apply to MLP models" in capsys.readouterr().err
        assert not (tmp_path / "x.manifest.json").exists()

    def test_activation_with_linear_model_is_usage_error(self, tmp_path, data_csv, capsys):
        code = main(["train", "--data", str(data_csv), "--model", "linear",
                     "--activation", "relu", "--steps", "1", "-o", str(tmp_path / "x")])
        assert code == 1
        assert "only apply to MLP models" in capsys.readouterr().err
        assert not (tmp_path / "x.manifest.json").exists()

    def test_mlp_runs(self, tmp_path, data_csv):
        prefix = tmp_path / "mlp"
        assert main(["train", "--data", str(data_csv), "--model", "mlp", "--hidden", "4",
                     "--steps", "5", "--bins", "4", "--seed", "3", "-o", str(prefix)]) == 0
        spec, params = load_params(f"{prefix}.params.json")
        assert spec.hidden == 4 and params.size == 4 * 2 + 4 + 4 + 1

    def test_manifest_records_resolved_activation(self, tmp_path, data_csv):
        # an MLP without the flag trains with tanh; a linear model has none
        assert main(["train", "--data", str(data_csv), "--model", "mlp", "--hidden", "4",
                     "--steps", "1", "--bins", "4", "-o", str(tmp_path / "mlp")]) == 0
        code, prefix = run_train(tmp_path, data_csv)
        assert code == 0
        for name, want in (("mlp", "tanh"), ("run", None)):
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["options"]["activation"] == want


class TestEval:
    def test_ranks_models(self, tmp_path, data_csv):
        from liftloss import ModelKind, ModelSpec, save_params
        from liftloss import global_lift

        ds = load_csv(data_csv)
        spec = ModelSpec(ModelKind.LINEAR, 2)
        losses = {}
        for name, params in {
            "true": [0.0, 0.5, 0.0],
            "null": [0.0, 0.0, global_lift(ds)],
            "reversed": [0.0, -0.5, 0.0],
        }.items():
            pfile = tmp_path / f"{name}.json"
            save_params(pfile, spec, np.array(params))
            out = tmp_path / f"{name}.csv"
            assert main(["eval", "--data", str(data_csv), "--params", str(pfile),
                         "--bins", "5", "-o", str(out)]) == 0
            summary = out.read_text().splitlines()
            loss_line = [l for l in summary if l.startswith("# loss=")][0]
            losses[name] = float(loss_line.split()[1].split("=")[1])
        assert losses["true"] < losses["null"] < losses["reversed"]

    def test_constant_model_falls_back_to_fewer_bins(self, tmp_path, data_csv, capsys):
        # degenerate predictions cannot fill 5 bins; eval reduces the count
        from liftloss import ModelKind, ModelSpec, save_params

        pfile = tmp_path / "const.json"
        save_params(pfile, ModelSpec(ModelKind.LINEAR, 2), np.array([0.0, 0.0, 0.25]))
        out = tmp_path / "const.csv"
        assert main(["eval", "--data", str(data_csv), "--params", str(pfile),
                     "--bins", "5", "-o", str(out)]) == 0
        assert "distinct" in capsys.readouterr().err
        assert "# note:" in out.read_text()

    @staticmethod
    def eval_f0_with_eighth_value_outside_the_cut_sample(tmp_path, f0):
        """`eval --bins 10` of the model `f0` after one row outside the cut sample becomes 7."""
        from liftloss import ABDataset, ModelKind, ModelSpec, save_csv, save_params

        n = f0.size
        outside = np.setdiff1d(np.arange(n), reference_cut_sample(np.arange(n)))
        f0[outside[0]] = 7.0
        arm = np.arange(n) // 14 % 2
        ds = ABDataset(np.stack([f0, np.zeros(n)], axis=1), np.arange(n) % 5.0, arm)
        data, pfile, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "e.csv"
        save_csv(ds, data)
        save_params(pfile, ModelSpec(ModelKind.LINEAR, 2), np.array([1.0, 0.0, 0.0]))
        assert main(["eval", "--data", str(data), "--params", str(pfile),
                     "--bins", "10", "-o", str(out)]) == 0
        return out.read_text()

    def test_fallback_counts_the_cut_sample_above_max_sort(self, tmp_path, capsys):
        # f0 takes 7 values, sized so each k/7 quantile falls inside one of
        # them, and an 8th in one row that the cut sample leaves out
        f0 = np.resize(np.repeat(np.arange(7.0), [3, 2, 2, 2, 2, 2, 1]), 2 * MAX_SORT)
        report = self.eval_f0_with_eighth_value_outside_the_cut_sample(tmp_path, f0)
        note = (f"predictions have only 7 distinct values in the cut sample of {MAX_SORT} rows; "
                "evaluated with 7 bins")
        assert capsys.readouterr().err == f"warning: {note}\n"
        assert report.endswith(f"# note: {note}\n")
        assert "n_bins=7 " in report

    def test_fallback_cuts_equal_shares_of_the_distinct_values(self, tmp_path, capsys):
        # f0 cycles through 7 values in equal shares, so the 7-bin quantiles
        # fall in runs of ties; the fallback still cuts between each pair
        report = self.eval_f0_with_eighth_value_outside_the_cut_sample(
            tmp_path, np.arange(2 * MAX_SORT + 1) % 7.0)
        assert "evaluated with 7 bins" in capsys.readouterr().err
        assert "n_bins=7 " in report

    def test_single_bin_reports_squared_gap(self, tmp_path, data_csv):
        from liftloss import ModelKind, ModelSpec, global_lift, predict, save_params

        ds = load_csv(data_csv)
        pfile = tmp_path / "m.json"
        params = np.array([0.2, 0.3, 0.1])
        save_params(pfile, ModelSpec(ModelKind.LINEAR, 2), params)
        out = tmp_path / "one.csv"
        assert main(["eval", "--data", str(data_csv), "--params", str(pfile),
                     "--bins", "1", "-o", str(out)]) == 0
        loss_line = [l for l in out.read_text().splitlines() if l.startswith("# loss=")][0]
        loss = float(loss_line.split()[1].split("=")[1])
        preds = predict(ModelSpec(ModelKind.LINEAR, 2), params, ds)
        assert loss == pytest.approx((preds.mean() - global_lift(ds)) ** 2)

    def test_bins_may_differ_from_training(self, tmp_path, data_csv):
        code, prefix = run_train(tmp_path, data_csv)
        assert code == 0
        out = tmp_path / "eval8.csv"
        assert main(["eval", "--data", str(data_csv), "--params", f"{prefix}.params.json",
                     "--bins", "8", "-o", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "bin"))]
        assert len(rows) == 8

    def test_reproduces_the_final_training_loss_above_max_sort(self, tmp_path):
        # eval cuts the predictions as train's last step did, subsample included
        data = tmp_path / "big.csv"
        assert main(["gen", "--rows", "150000", "--seed", "4", "-o", str(data)]) == 0
        prefix = tmp_path / "run"
        assert main(["train", "--data", str(data), "--init", "1,0.1,1", "--steps", "2",
                     "--bins", "10", "-o", str(prefix)]) == 0
        out = tmp_path / "eval.csv"
        assert main(["eval", "--data", str(data), "--params", f"{prefix}.params.json",
                     "--bins", "10", "-o", str(out)]) == 0
        trace_loss = (tmp_path / "run.trace.csv").read_text().splitlines()[-1].split(",")[1]
        loss_line = [l for l in out.read_text().splitlines() if l.startswith("# loss=")][0]
        assert float(loss_line.split()[1].split("=")[1]) == float(trace_loss)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_reproduces_the_final_training_loss(self, tmp_path, seed):
        # eval's global lift is the one train pinned, so the losses agree bit for bit
        data = tmp_path / "data.csv"
        assert main(["gen", "--rows", "20000", "--seed", str(seed), "-o", str(data)]) == 0
        prefix = tmp_path / "run"
        assert main(["train", "--data", str(data), "--init", "1,0.1,1", "--steps", "3",
                     "--bins", "5", "-o", str(prefix)]) == 0
        out = tmp_path / "eval.csv"
        assert main(["eval", "--data", str(data), "--params", f"{prefix}.params.json",
                     "--bins", "5", "-o", str(out)]) == 0
        trace_loss = (tmp_path / "run.trace.csv").read_text().splitlines()[-1].split(",")[1]
        loss_line = [l for l in out.read_text().splitlines() if l.startswith("# loss=")][0]
        assert loss_line.split()[1] == f"loss={trace_loss}"

    def test_non_finite_params_file_is_usage_error(self, tmp_path, data_csv, capsys):
        from liftloss import ModelKind, ModelSpec, save_params

        pfile = tmp_path / "m.json"
        save_params(pfile, ModelSpec(ModelKind.LINEAR, 2), np.array([0.2, np.nan, 0.1]))
        out = tmp_path / "e.csv"
        assert main(["eval", "--data", str(data_csv), "--params", str(pfile),
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed parameter file {pfile}") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"{", b"\xff\xfe{}"], ids=["bad-json", "not-utf8"])
    def test_unreadable_params_file_is_named(self, tmp_path, data_csv, capsys, content):
        pfile = tmp_path / "bad.json"
        pfile.write_bytes(content)
        out = tmp_path / "e.csv"
        assert main(["eval", "--data", str(data_csv), "--params", str(pfile),
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed parameter file {pfile}: ")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--bins", "0"], "error: --bins must be >= 1, got 0\n"),
        (["--bins", str(MAX_SORT + 1)],
         f"error: --bins must be <= MAX_SORT ({MAX_SORT}), got {MAX_SORT + 1}\n"),
    ])
    def test_bad_bin_settings_are_usage_errors(self, tmp_path, data_csv, capsys, args, message):
        # validated like train's settings: exit 1, not the runtime failure exit 2
        from liftloss import ModelKind, ModelSpec, save_params

        pfile = tmp_path / "m.json"
        save_params(pfile, ModelSpec(ModelKind.LINEAR, 2), np.array([0.2, 0.5, 0.1]))
        out = tmp_path / "bad.csv"
        assert main(["eval", "--data", str(data_csv), "--params", str(pfile),
                     *args, "-o", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck", "--rows", "200", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 2

    def test_defaults_pass_and_report_errors(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        errors = [float(line.split("max relative error ")[1].split()[0])
                  for line in lines if "max relative error" in line]
        assert len(errors) == 2
        assert 0.0 < errors[0] <= 1e-6 and 0.0 <= errors[1] <= 1e-10
        assert lines[-1] == "gradcheck PASS"

    def test_wrong_migration_part_detected(self, monkeypatch, capsys):
        # flip each row's migration part (point gradient minus bias channel)
        def corrupted(*args, **kwargs):
            eg = effective_gradient(*args, **kwargs)
            flipped = 2 * bias_gradient(eg.stats, eg.bins) - eg.point_grad
            return dataclasses.replace(eg, point_grad=flipped)

        monkeypatch.setattr(checks, "effective_gradient", corrupted)
        assert main(["gradcheck", "--rows", "200", "--seed", "3"]) == 2
        out = capsys.readouterr().out
        assert any(line.startswith("migration") and line.endswith("FAIL")
                   for line in out.splitlines())

    @pytest.mark.parametrize("rows,bins,seed", [(75, 8, 0), (111, 10, 68), (38, 8, 220)])
    def test_boundary_row_last_of_its_arm_passes(self, capsys, rows, bins, seed):
        # each instance has a boundary row that is the only one of its arm in its bin
        assert main(["gradcheck", "--rows", str(rows), "--bins", str(bins),
                     "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "gradcheck PASS"

    def test_zero_rows_is_usage_error(self):
        assert main(["gradcheck", "--rows", "0"]) == 1

    def test_reads_dataset_file(self, data_csv):
        assert main(["gradcheck", "--data", str(data_csv), "--seed", "5"]) == 0

    def test_rows_with_data_is_usage_error(self, data_csv, capsys):
        assert main(["gradcheck", "--data", str(data_csv), "--rows", "5"]) == 1
        assert capsys.readouterr().err == "error: --rows only applies without --data\n"

    @pytest.mark.parametrize("data", [True, False], ids=["data", "synthetic"])
    def test_negative_seed_is_named(self, data_csv, capsys, data):
        source = ["--data", str(data_csv)] if data else []
        assert main(["gradcheck", *source, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must fit in 64 unsigned bits, got -1\n"

    @pytest.mark.parametrize("flag,value", [
        ("--bins", "1"),
        ("--bins", str(MAX_SORT + 1)),
    ])
    def test_bad_gradient_settings_rejected_like_train(
        self, tmp_path, data_csv, capsys, flag, value
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_train(tmp_path, data_csv, flag, value)
            train_err = capsys.readouterr().err
            assert main(["gradcheck", "--data", str(data_csv), flag, value]) == 1
        assert code == 1
        assert capsys.readouterr().err == train_err

    @pytest.mark.parametrize("bins,seed", [(3, 2), (5, 3), (10, 1)])
    def test_correct_gradient_passes_at_a_million_rows(self, capsys, bins, seed):
        assert main(["gradcheck", "--rows", "1000000", "--bins", str(bins),
                     "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        errors = [float(line.split("max relative error ")[1].split()[0])
                  for line in lines if "max relative error" in line]
        assert len(errors) == 2 and max(errors) < 1e-12


def subcommand_parsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def parser_commands():
    return set(subcommand_parsers())


def test_readme_lists_the_parser_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    assert set(re.findall(r"^liftloss (\S+)", block, re.M)) == parser_commands()


def test_readme_cli_flags_are_parser_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    accepted = {"--help", "--version"}
    for p in subcommand_parsers().values():
        accepted.update(s for a in p._actions for s in a.option_strings)
    assert set(re.findall(r"--[a-z][\w-]*", section)) <= accepted


def test_docstring_lists_the_parser_commands():
    listed = cli.__doc__.split("Subcommands:", 1)[1].split(".", 1)[0]
    assert {c.strip() for c in listed.split(",")} == parser_commands()


def test_plot_data_is_an_invalid_choice(tmp_path, capsys):
    # deleted: train --snapshots writes each snapshot table as run.snapshot_t{t}.csv
    assert main(["plot-data", "--snapshots", "run.snapshots.json",
                 "--out-dir", str(tmp_path)]) == 1
    assert "invalid choice: 'plot-data'" in capsys.readouterr().err
    assert parser_commands() == {"gen", "train", "eval", "gradcheck"}


class TestConfigFile:
    def test_config_equivalent_to_flags(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("# whole-line comments are skipped\nrows = 300\nseed = 4\n"
                       "   # an indented one too\ntreatment-frac = 0.6\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--config", str(cfg), "-o", str(a)]) == 0
        assert main(["gen", "--rows", "300", "--seed", "4", "--treatment-frac", "0.6",
                     "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_flags_take_precedence(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("rows = 300\nseed = 4\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--config", str(cfg), "--seed", "5", "-o", str(a)]) == 0
        assert main(["gen", "--rows", "300", "--seed", "5", "-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_underscore_keys_accepted(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("rows = 50\ntreatment_frac = 0.5\n")
        assert main(["gen", "--config", str(cfg), "-o", str(tmp_path / "c.csv")]) == 0

    @pytest.mark.parametrize("flag", ["--conf", "--co", "--conf="])
    def test_abbreviated_config_flag_is_read(self, tmp_path, data_csv, flag):
        # argparse accepts any unique prefix of --config, so the file must be read for it too
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 3\n")
        path = [flag + str(cfg)] if flag.endswith("=") else [flag, str(cfg)]
        prefix = tmp_path / "run"
        assert main(["train", "--data", str(data_csv), *path, "-o", str(prefix)]) == 0
        assert len(Path(f"{prefix}.trace.csv").read_text().splitlines()) == 5  # header + steps 0..3

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        cfg, marked = tmp_path / "gen.cfg", tmp_path / "marked.cfg"
        cfg.write_text("rows = 300\nseed = 4\n")
        marked.write_bytes(codecs.BOM_UTF8 + cfg.read_bytes())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--config", str(marked), "-o", str(a)]) == 0
        assert main(["gen", "--config", str(cfg), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("rows 50\n")
        assert main(["gen", "--config", str(cfg), "-o", str(tmp_path / "c.csv")]) == 1

    @pytest.mark.parametrize("key", ["config", "conf", "co"])
    def test_nested_config_rejected(self, tmp_path, data_csv, capsys, key):
        # argparse would resolve the key to --config, which the file was already read for
        cfg = tmp_path / "n.cfg"
        cfg.write_text(f"{key} = nope.cfg\nsteps = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_csv), "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: a config file cannot name another config file: '{key} = nope.cfg'\n")
        assert not (tmp_path / "run.params.json").exists()

    def test_boolean_words_passed_as_written(self, tmp_path, capsys):
        # no option is a bare switch, so `false` is a value like any other
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("rows = 300\nseed = false\n")
        out = tmp_path / "c.csv"
        assert main(["gen", "--config", str(cfg), "-o", str(out)]) == 1
        assert "invalid int value: 'false'" in capsys.readouterr().err
        assert not out.exists()

    def test_hash_inside_value_kept(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"rows = 50\noutput = {tmp_path / 'run#1.csv'}\n")
        assert main(["gen", "--config", str(cfg)]) == 0
        assert (tmp_path / "run#1.csv").exists() and not (tmp_path / "run").exists()

    def test_inline_comment_is_part_of_the_value(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("rows = 300  # enough rows\n")
        assert main(["gen", "--config", str(cfg), "-o", str(tmp_path / "c.csv")]) == 1
        assert "invalid int value: '300  # enough rows'" in capsys.readouterr().err

    def test_negative_value_read_as_a_value(self, tmp_path, data_csv):
        # as two tokens, argparse would take '-1,0.1,1' for a flag and exit 1
        cfg = tmp_path / "train.cfg"
        cfg.write_text("init = -1,0.1,1\nsteps = 3\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--data", str(data_csv), "--config", str(cfg), "-o", str(a)]) == 0
        assert main(["train", "--data", str(data_csv), "--init=-1,0.1,1", "--steps", "3",
                     "-o", str(b)]) == 0
        params = [load_params(f"{prefix}.params.json")[1].tolist() for prefix in (a, b)]
        assert params[0] == params[1]
        manifest = json.loads(Path(f"{a}.manifest.json").read_text())
        assert manifest["options"]["init"] == "-1,0.1,1"
