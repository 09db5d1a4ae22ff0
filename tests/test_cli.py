import dataclasses
import json
import warnings

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
from liftloss.cli import build_parser, main


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
        (GradConfig, "migration_step_scale", 0.625),
        (GradConfig, "rebin_every", 3),
        (GradConfig, "max_sort", 777),
        (DataGenConfig, "treatment_fraction", 0.4),
        (DataGenConfig, "noise_distribution", NoiseDistribution.STD_NORMAL),
        (DataGenConfig, "lift_coefficient", 0.9),
    ):
        monkeypatch.setattr(cls, name, value)
    parser = build_parser()
    gen = parser.parse_args(["gen", "--rows", "10", "-o", "x"])
    assert (gen.treatment_frac, gen.noise, gen.lift) == (0.4, "normal", 0.9)
    train = parser.parse_args(["train", "--data", "d", "-o", "x"])
    assert (train.migration_scale, train.rebin_every, train.max_sort) == (0.625, 3, 777)
    gradcheck = parser.parse_args(["gradcheck"])
    assert (gradcheck.migration_scale, gradcheck.max_sort) == (0.625, 777)
    assert parser.parse_args(["eval", "--data", "d", "--params", "p", "-o", "x"]).max_sort == 777


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


    def test_seed_reaches_subsampled_cuts(self, tmp_path):
        # 3000 rows above --max-sort 500: cuts come from a seeded subsample
        from liftloss import ModelKind, ModelSpec, save_params

        data = tmp_path / "big.csv"
        assert main(["gen", "--rows", "3000", "--seed", "4", "-o", str(data)]) == 0
        pfile = tmp_path / "m.json"
        save_params(pfile, ModelSpec(ModelKind.LINEAR, 2), np.array([0.2, 0.5, 0.1]))
        reports = {}
        for name, seed_args in {"omitted": [], "0": ["--seed", "0"], "7": ["--seed", "7"]}.items():
            out = tmp_path / f"seed_{name}.csv"
            assert main(["eval", "--data", str(data), "--params", str(pfile), "--bins", "5",
                         "--max-sort", "500", *seed_args, "-o", str(out)]) == 0
            reports[name] = out.read_bytes()
        assert reports["0"] == reports["omitted"]
        assert reports["7"] != reports["0"]
        manifest = json.loads((tmp_path / "seed_7.csv.manifest.json").read_text())
        assert manifest["seed"] == 7

    @pytest.mark.parametrize("args, message", [
        (["--bins", "0"], "error: --bins must be >= 1, got 0\n"),
        (["--bins", "5", "--max-sort", "3"], "error: --max-sort (3) must be at least --bins (5)\n"),
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

    @pytest.mark.parametrize("flag,value", [
        ("--migration-scale", "0"),
        ("--migration-scale", "-1"),
        ("--bins", "1"),
        ("--max-sort", "3"),
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

    def test_sample_rows_below_one_rejected(self, capsys):
        assert main(["gradcheck", "--rows", "200", "--sample-rows", "0"]) == 1
        assert "sample_rows" in capsys.readouterr().err


class TestPlotData:
    def test_emits_one_csv_per_snapshot(self, tmp_path, data_csv):
        code, prefix = run_train(tmp_path, data_csv)
        assert code == 0
        out_dir = tmp_path / "figs"
        assert main(["plot-data", "--snapshots", f"{prefix}.snapshots.json",
                     "--out-dir", str(out_dir)]) == 0
        files = sorted(p.name for p in out_dir.glob("bins_t*.csv"))
        assert files == ["bins_t0.csv", "bins_t1.csv", "bins_t10.csv"]
        header, *rows = (out_dir / "bins_t0.csv").read_text().splitlines()
        assert header == "bin,mean_pred,lift,size" and len(rows) == 5

    def test_initial_snapshot_predictions_dominate_lifts(self, tmp_path, data_csv):
        # started far too high, every bin predicts far above its lift
        code, prefix = run_train(tmp_path, data_csv)
        out_dir = tmp_path / "figs"
        assert main(["plot-data", "--snapshots", f"{prefix}.snapshots.json",
                     "--steps", "0", "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "bins_t0.csv").read_text().splitlines()[1:]
        preds = np.array([float(r.split(",")[1]) for r in rows])
        lifts = np.array([float(r.split(",")[2]) for r in rows])
        assert preds.min() > lifts.max()

    def test_missing_snapshot_names_available(self, tmp_path, data_csv, capsys):
        code, prefix = run_train(tmp_path, data_csv)
        code = main(["plot-data", "--snapshots", f"{prefix}.snapshots.json",
                     "--steps", "7", "--out-dir", str(tmp_path / "figs")])
        assert code == 1
        err = capsys.readouterr().err
        assert "[7]" in err and "[0, 1, 10]" in err

    @pytest.mark.parametrize("doc,missing", [
        ({"snapshots": [{"step": 0, "bins": [{"bin": 1, "mean_pred": 0.1, "size": 5}]}]},
         "'lift'"),
        ({"snapshots": [{"step": 0}]}, "'bins'"),
        ({"snapshots": [{"bins": []}]}, "'step'"),
        ([{"step": 0, "bins": []}], "'snapshots'"),
        ("{", "not a train snapshots file"),
    ], ids=["bin-without-lift", "snapshot-without-bins", "snapshot-without-step",
            "top-level-list", "invalid-json"])
    def test_malformed_snapshots_name_file_and_gap(self, tmp_path, capsys, doc, missing):
        path = tmp_path / "snaps.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["plot-data", "--snapshots", str(path),
                     "--out-dir", str(tmp_path / "figs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and missing in err


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

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("rows 50\n")
        assert main(["gen", "--config", str(cfg), "-o", str(tmp_path / "c.csv")]) == 1

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
