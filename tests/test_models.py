import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftloss import (
    ABDataset,
    Activation,
    DegeneratePredictionsError,
    EmptyArmInBinError,
    GradConfig,
    ModelKind,
    ModelSpec,
    TrainConfig,
    TrainingDivergedError,
    assign_bins,
    backprop,
    compute_cuts,
    effective_gradient,
    generate,
    global_lift,
    load_csv,
    load_params,
    n_params,
    predict,
    random_params,
    save_csv,
    save_params,
    subset_stats,
    train,
    true_lift_loss,
)
from liftloss import models
from liftloss.dataset import DataGenConfig

from reference_models import (
    public_loop_train,
    reference_backprop,
    reference_predict,
    unpack_mlp,
)


LINEAR2 = ModelSpec(ModelKind.LINEAR, 2)
B = models.BACKWARD_BLOCK_ROWS


def small_mlp():
    return ModelSpec(ModelKind.MLP, 2, hidden=3, activation=Activation.TANH)


class TestSpecValidation:
    def test_mlp_needs_shape(self):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.MLP, 2)
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.LINEAR, 2, hidden=4)

    def test_param_counts(self):
        assert n_params(LINEAR2) == 3
        assert n_params(small_mlp()) == 3 * 2 + 3 + 3 + 1


class TestPredict:
    def test_linear_hand_arithmetic(self):
        # coefficients (1, 0.1) with offset 1 on features (2, 10)
        preds = predict(LINEAR2, np.array([1.0, 0.1, 1.0]), np.array([[2.0, 10.0]]))
        assert preds[0] == pytest.approx(4.0)

    def test_zero_params(self):
        preds = predict(LINEAR2, np.zeros(3), np.random.default_rng(0).random((5, 2)))
        np.testing.assert_array_equal(preds, 0.0)

    def test_recovers_true_lift_on_synthetic_data(self):
        ds = generate(DataGenConfig(n_rows=200, seed=1))
        preds = predict(LINEAR2, np.array([0.0, 0.5, 0.0]), ds)
        np.testing.assert_allclose(preds, ds.true_lift)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(LINEAR2, np.zeros(3), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            predict(LINEAR2, np.zeros(5), np.zeros((4, 2)))

    def test_mlp_relu_kink(self):
        spec = ModelSpec(ModelKind.MLP, 1, hidden=1, activation=Activation.RELU)
        # W1=[1], b1=0, w2=[1], b2=0 gives relu(x)
        params = np.array([1.0, 0.0, 1.0, 0.0])
        preds = predict(spec, params, np.array([[-2.0], [3.0]]))
        np.testing.assert_allclose(preds, [0.0, 3.0])


class TestBackprop:
    def test_zero_upstream(self):
        grad = backprop(LINEAR2, np.ones(3), np.random.default_rng(1).random((7, 2)), np.zeros(7))
        np.testing.assert_array_equal(grad, 0.0)

    def test_linear_hand_arithmetic(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        a, b = 0.3, -0.7
        grad = backprop(LINEAR2, np.zeros(3), x, np.array([a, b]))
        np.testing.assert_allclose(grad, [a, b, a + b])

    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    def test_mlp_matches_finite_differences(self, activation):
        spec = ModelSpec(ModelKind.MLP, 2, hidden=4, activation=activation)
        rng = np.random.default_rng(9)
        params = rng.normal(0, 0.7, n_params(spec))
        x = rng.random((30, 2))
        g = rng.normal(size=30)
        grad = backprop(spec, params, x, g)
        eps = 1e-6
        for j in range(params.size):
            hi = params.copy()
            hi[j] += eps
            lo = params.copy()
            lo[j] -= eps
            fd = (g @ predict(spec, hi, x) - g @ predict(spec, lo, x)) / (2 * eps)
            assert fd == pytest.approx(grad[j], rel=1e-4, abs=1e-8)

    def test_linear_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        params = rng.normal(size=3)
        x = rng.random((20, 2))
        g = rng.normal(size=20)
        grad = backprop(LINEAR2, params, x, g)
        eps = 1e-6
        for j in range(3):
            hi = params.copy()
            hi[j] += eps
            lo = params.copy()
            lo[j] -= eps
            fd = (g @ predict(LINEAR2, hi, x) - g @ predict(LINEAR2, lo, x)) / (2 * eps)
            assert fd == pytest.approx(grad[j], rel=1e-4)

    @pytest.mark.parametrize("spec", [LINEAR2, small_mlp()], ids=["linear", "mlp"])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_feature_dimension_checked(self, spec, cols):
        params = np.zeros(n_params(spec))
        x = np.ones((4, cols))
        message = f"model expects 2 features, data has {cols}"
        with pytest.raises(ValueError, match=message):
            predict(spec, params, x)
        with pytest.raises(ValueError, match=message):
            backprop(spec, params, x, np.ones(4))

    @pytest.mark.parametrize(
        "spec",
        [LINEAR2, small_mlp(), ModelSpec(ModelKind.MLP, 2, hidden=5, activation=Activation.RELU)],
        ids=["linear", "tanh", "relu"],
    )
    def test_inputs_untouched_and_results_fresh(self, spec):
        rng = np.random.default_rng(12)
        params = rng.normal(size=n_params(spec))
        x = rng.normal(size=(50, 2))
        g = rng.normal(size=50)
        inputs = (params, x, g)
        before = [a.copy() for a in inputs]
        preds = predict(spec, params, x)
        grad = backprop(spec, params, x, g)
        for arr, copy in zip(inputs, before):
            np.testing.assert_array_equal(arr, copy)
            assert not np.shares_memory(preds, arr)
            assert not np.shares_memory(grad, arr)
        np.testing.assert_array_equal(predict(spec, params, x), preds)
        np.testing.assert_array_equal(backprop(spec, params, x, g), grad)


class TestMatchesUnfactoredReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mlp_matches_reference(self, data):
        activation = data.draw(st.sampled_from(list(Activation)), label="activation")
        d = data.draw(st.integers(1, 4), label="d")
        hidden = data.draw(st.integers(1, 40), label="hidden")
        n = data.draw(st.integers(1, 2000), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spec = ModelSpec(ModelKind.MLP, d, hidden=hidden, activation=activation)
        grid = activation is Activation.RELU and data.draw(st.booleans(), label="integer grid")
        if grid:
            # small integers make many pre-activations exactly 0, where the
            # ReLU derivative must be 0; row 0 of unit 0 is pinned to 0
            params = rng.integers(-2, 3, n_params(spec)).astype(np.float64)
            params[hidden * d] = 0.0
            x = rng.integers(-2, 3, (n, d)).astype(np.float64)
            x[0] = 0.0
            w1, b1, _, _ = unpack_mlp(spec, params)
            assert ((x @ w1.T + b1) == 0).any()
        else:
            params = rng.normal(0.0, 0.7, n_params(spec))
            x = rng.normal(size=(n, d))
        g = rng.normal(size=n)
        np.testing.assert_array_equal(predict(spec, params, x), reference_predict(spec, params, x))
        ref = reference_backprop(spec, params, x, g)
        assert np.abs(backprop(spec, params, x, g) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_backward_row_blocks_match_reference_across_block_edges(self, n, activation):
        # the draws above stay below one block; these cross its edges, in both layouts
        rng = np.random.default_rng(n)
        for d in (1, 2, 4):
            for hidden in (1, 32, 40):
                spec = ModelSpec(ModelKind.MLP, d, hidden=hidden, activation=activation)
                params = rng.normal(0.0, 0.7, n_params(spec))
                g = rng.normal(size=n)
                for x in (rng.normal(size=(n, d)), np.asfortranarray(rng.normal(size=(n, d)))):
                    np.testing.assert_array_equal(
                        predict(spec, params, x), reference_predict(spec, params, x))
                    ref = reference_backprop(spec, params, x, g)
                    got = backprop(spec, params, x, g)
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (d, hidden)


class TestTrain:
    def demo_setup(self, seed=0, steps=100, **grad_kw):
        ds = generate(DataGenConfig(n_rows=10_000, treatment_fraction=0.7, seed=seed))
        config = TrainConfig(
            step_size=0.1,
            steps=steps,
            grad=GradConfig(n_bins=5, **grad_kw),
            snapshot_steps=(0, min(1, steps), steps),
        )
        init = np.array([1.0, 0.1, 1.0])  # slope, slope, offset
        return ds, config, init

    def test_zero_steps_returns_init(self):
        ds, _, init = self.demo_setup(steps=0)
        config = TrainConfig(step_size=0.1, steps=0, grad=GradConfig(n_bins=5))
        params, trace = train(ds, LINEAR2, init, config)
        np.testing.assert_array_equal(params, init)
        assert len(trace.entries) == 1 and trace.entries[0].step == 0

    def test_zero_step_size_keeps_params(self):
        ds, _, init = self.demo_setup()
        config = TrainConfig(step_size=0.0, steps=5, grad=GradConfig(n_bins=5))
        params, trace = train(ds, LINEAR2, init, config)
        np.testing.assert_array_equal(params, init)
        for e in trace.entries:
            np.testing.assert_array_equal(e.params, init)

    def test_converges_near_generating_coefficients(self):
        ds, config, init = self.demo_setup(seed=0)
        params, trace = train(ds, LINEAR2, init, config)
        slope_r1, slope_r3, offset = params
        assert abs(slope_r1) <= 0.12
        assert abs(offset) <= 0.10
        assert 0.40 <= slope_r3 <= 0.55
        assert trace.entries[-1].loss < trace.entries[1].loss < trace.entries[0].loss

    def test_loss_mostly_decreases(self):
        # the loss is discontinuous, so occasional upticks are expected, but
        # fewer than a fifth of the steps should move uphill
        ds, config, init = self.demo_setup(seed=0)
        _, trace = train(ds, LINEAR2, init, config)
        upticks = int((np.diff(trace.losses()) > 0).sum())
        assert upticks < 0.2 * config.steps

    def test_deterministic_with_batching(self):
        ds = generate(DataGenConfig(n_rows=3000, seed=3))
        config = TrainConfig(
            step_size=0.1, steps=10, grad=GradConfig(n_bins=4), batch=512, seed=11
        )
        init = np.array([1.0, 0.1, 1.0])
        p1, t1 = train(ds, LINEAR2, init, config)
        p2, t2 = train(ds, LINEAR2, init, config)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(t1.losses(), t2.losses())

    def test_rebin_cadence_runs(self):
        ds, _, init = self.demo_setup()
        config = TrainConfig(step_size=0.1, steps=20, grad=GradConfig(n_bins=5, rebin_every=5))
        params, trace = train(ds, LINEAR2, init, config)
        assert np.isfinite(params).all() and len(trace.entries) == 21

    def test_infeasible_bins_raise_at_start(self):
        ds = generate(DataGenConfig(n_rows=60, seed=5))
        config = TrainConfig(step_size=0.1, steps=3, grad=GradConfig(n_bins=30))
        with pytest.raises(ValueError, match="fewer bins"):
            train(ds, LINEAR2, np.array([1.0, 0.1, 1.0]), config)

    def test_minibatch_without_an_arm_names_step_and_batch(self):
        # 90% treated, so a batch of 8 often draws no control row; seed 0 does at step 1
        ds = generate(DataGenConfig(n_rows=2000, treatment_fraction=0.9, seed=0))
        config = TrainConfig(step_size=0.1, steps=30, grad=GradConfig(n_bins=2), batch=8, seed=0)
        with pytest.raises(ValueError, match="^step 1: minibatch of 8 rows has no control rows; "
                                             "use a larger batch$"):
            train(ds, LINEAR2, np.array([1.0, 0.1, 1.0]), config)

    @pytest.mark.parametrize("data_seed, batch_seed, message", [
        (1, 1, "bin 1 of 2 has no control rows; at step 0, "),
        (0, 10, "bin 2 of 2 has no control rows; at step 1, "),
    ])
    def test_lost_arm_at_two_bins_names_step_and_remedies(self, data_seed, batch_seed, message):
        # GradConfig allows no fewer than 2 bins, so "retry with fewer bins" is no remedy
        ds = generate(DataGenConfig(n_rows=2000, treatment_fraction=0.9, seed=data_seed))
        config = TrainConfig(step_size=0.1, steps=30, grad=GradConfig(n_bins=2), batch=8,
                             seed=batch_seed)
        with pytest.raises(EmptyArmInBinError) as err:
            train(ds, LINEAR2, np.array([1.0, 0.1, 1.0]), config)
        assert str(err.value) == (
            message + "with the fewest bins allowed, use more rows or a larger batch")

    def test_divergence_aborts_with_trace(self):
        ds = generate(DataGenConfig(n_rows=500, seed=6))
        config = TrainConfig(step_size=1e12, steps=60, grad=GradConfig(n_bins=3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(ds, LINEAR2, np.array([1.0, 0.1, 1.0]), config)
        assert len(err.value.trace.entries) >= 1

    @pytest.mark.parametrize("step", [0, 2])
    def test_predictions_that_collapse_mid_run_diverge(self, monkeypatch, step):
        # a collapse at step 0 comes from the caller's inputs and is raised unchanged
        calls = []

        def collapse_at_step(*args, **kwargs):
            calls.append(None)
            if len(calls) > step:
                raise DegeneratePredictionsError("need at least 5 distinct values", 4)
            return effective_gradient(*args, **kwargs)

        monkeypatch.setattr(models, "effective_gradient", collapse_at_step)
        ds, config, init = self.demo_setup(steps=5)
        expected = DegeneratePredictionsError if step == 0 else TrainingDivergedError
        with pytest.raises(expected) as err:
            train(ds, LINEAR2, init, config)
        if step:
            assert str(err.value) == f"need at least 5 distinct values at step {step}"
            assert len(err.value.trace.entries) == step
        else:
            assert str(err.value) == "need at least 5 distinct values"

    @pytest.mark.parametrize("rows,bins,seed,step,bins_then", [
        (2000, 20, 2, 10, 5),  # halves its bins first, then a boundary rounds onto a cut
        (10_000, 10, 1, 15, 10),
    ])
    def test_cuts_too_close_for_float64_diverge_at_a_named_step(self, rows, bins, seed, step,
                                                                bins_then):
        # the MLP's predictions grow until neighbouring cuts sit an ulp or two apart
        spec = ModelSpec(ModelKind.MLP, 2, hidden=8, activation=Activation.TANH)
        config = TrainConfig(step_size=0.1, steps=100, grad=GradConfig(n_bins=bins), seed=seed)
        with pytest.raises(TrainingDivergedError) as err:
            train(generate(DataGenConfig(rows, seed=seed)), spec, random_params(spec, seed),
                  config)
        assert str(err.value) == (
            f"cuts too close for float64 to place segments between {bins_then} bins "
            f"at step {step}")
        assert len(err.value.trace.entries) == step

    def test_snapshot_steps_recorded(self):
        ds, config, init = self.demo_setup(steps=10)
        _, trace = train(ds, LINEAR2, init, config)
        assert set(trace.snapshots) == {0, 1, 10}
        assert trace.snapshots[0].n_bins == 5

    def test_snapshot_outside_range_rejected(self):
        with pytest.raises(ValueError, match="snapshot"):
            TrainConfig(step_size=0.1, steps=5, grad=GradConfig(n_bins=5), snapshot_steps=(9,))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_unsigned_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=f"^seed must fit in 64 unsigned bits, got {seed}$"):
            TrainConfig(step_size=0.1, steps=5, grad=GradConfig(n_bins=5), seed=seed)

    def test_mlp_trains_and_improves(self):
        ds = generate(DataGenConfig(n_rows=4000, seed=7))
        spec = small_mlp()
        init = random_params(spec, seed=7)
        config = TrainConfig(step_size=0.05, steps=40, grad=GradConfig(n_bins=5))
        params, trace = train(ds, spec, init, config)
        assert trace.entries[-1].loss < trace.entries[0].loss
        assert np.isfinite(params).all()

    def test_minibatches_train_alike_with_or_without_true_lift(self):
        ds = generate(DataGenConfig(n_rows=6000, seed=8))
        bare = ABDataset(ds.features, ds.outcome, ds.arm)
        spec = small_mlp()
        config = TrainConfig(step_size=0.05, steps=15, grad=GradConfig(n_bins=5, rebin_every=3),
                             batch=900, seed=4)
        params, trace = train(ds, spec, random_params(spec, seed=8), config)
        bare_params, bare_trace = train(bare, spec, random_params(spec, seed=8), config)
        assert bare_params.tobytes() == params.tobytes()
        assert bare_trace.losses().tobytes() == trace.losses().tobytes()
        assert bare_trace.events == trace.events

    @pytest.mark.parametrize("spec", [LINEAR2, small_mlp()], ids=["linear", "mlp"])
    def test_last_loss_recomputes_from_the_returned_params(self, spec):
        # the last step evaluates the loss without building a gradient
        ds = generate(DataGenConfig(n_rows=20_000, seed=9))
        init = np.array([1.0, 0.1, 1.0]) if spec is LINEAR2 else random_params(spec, seed=9)
        config = TrainConfig(step_size=0.1, steps=6, grad=GradConfig(n_bins=10))
        params, trace = train(ds, spec, init, config)
        preds = predict(spec, params, ds)
        bins = assign_bins(preds, compute_cuts(preds, 10))
        report = true_lift_loss(subset_stats(ds, preds, bins, 10, global_lift(ds)))
        last = trace.entries[-1]
        assert (last.loss, last.bias_term, last.separation_term) == (
            report.loss, report.bias_term, report.separation_term)


class TestDegenerateTraining:
    """Tied or constant predictions, minibatches that lose an arm and cuts
    reused after the predictions moved: `train` either returns finite
    results equal to the public-call loop's or raises a documented error."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_finite_and_exact_or_documented_error(self, data):
        n = data.draw(st.integers(4, 300), label="rows")
        frac = data.draw(st.floats(0.05, 0.95), label="treated share")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
        x = rng.random((n, 2))
        # rounded features tie the predictions; zero weights make them constant
        decimals = data.draw(st.one_of(st.none(), st.integers(0, 2)), label="round features")
        if decimals is not None:
            x = np.round(x, decimals)
        arm = (rng.random(n) < frac).astype(np.int8)
        arm[:2] = (0, 1)
        ds = ABDataset(x, x[:, 0] + rng.random(n) + 0.5 * arm * x[:, 1], arm)
        spec = data.draw(st.sampled_from([
            LINEAR2, ModelSpec(ModelKind.MLP, 2, hidden=3, activation=Activation.RELU)
        ]), label="model")
        init = random_params(spec, data.draw(st.integers(0, 99), label="init seed"))
        init *= data.draw(st.sampled_from([0.0, 1.0, 10.0]), label="init scale")
        config = TrainConfig(
            step_size=data.draw(st.sampled_from([0.1, 5.0, 50.0]), label="lr"),
            steps=data.draw(st.integers(0, 6), label="steps"),
            grad=GradConfig(
                n_bins=data.draw(st.integers(2, 6), label="n_bins"),
                rebin_every=data.draw(st.integers(1, 3), label="rebin_every"),
            ),
            batch=data.draw(st.one_of(st.none(), st.integers(2, n)), label="batch"),
            seed=data.draw(st.integers(0, 99), label="batch seed"),
        )
        try:
            params, trace = train(ds, spec, init, config)
        except (DegeneratePredictionsError, EmptyArmInBinError, TrainingDivergedError):
            return
        except ValueError as err:
            assert re.fullmatch(
                r"step \d+: minibatch of \d+ rows has no (control|treatment) rows; "
                r"use a larger batch", str(err)), err
            return
        assert np.isfinite(params).all()
        assert all(np.isfinite([e.loss, e.bias_term, e.separation_term]).all()
                   for e in trace.entries)
        ref_params, ref_trace = public_loop_train(ds, spec, init, config)
        assert params.tobytes() == ref_params.tobytes()
        assert trace.events == ref_trace.events
        assert [e.loss for e in trace.entries] == [e.loss for e in ref_trace.entries]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fails_only_as_its_docstring_says(self, data):
        # each error that escapes must meet the condition the docstring gives for it
        n = data.draw(st.integers(50, 3000), label="rows")
        ds = generate(DataGenConfig(n, data.draw(st.floats(0.1, 0.9), label="treated share"),
                                    seed=data.draw(st.integers(0, 2**32 - 1), label="data seed")))
        spec = data.draw(st.sampled_from([LINEAR2] + [
            ModelSpec(ModelKind.MLP, 2, hidden=h, activation=Activation.TANH) for h in (8, 32)
        ]), label="model")
        config = TrainConfig(
            step_size=data.draw(st.floats(0.01, 1.0), label="lr"),
            steps=data.draw(st.integers(0, 20), label="steps"),
            grad=GradConfig(
                n_bins=data.draw(st.integers(2, 20), label="n_bins"),
                rebin_every=data.draw(st.integers(1, 4), label="rebin_every"),
            ),
            batch=data.draw(st.one_of(st.none(), st.integers(20, n)), label="batch"),
            seed=data.draw(st.integers(0, 99), label="batch seed"),
        )
        init = random_params(spec, data.draw(st.integers(0, 99), label="init seed"))

        def raised_at_step_0(err):
            with pytest.raises(type(err)) as first:
                train(ds, spec, init, dataclasses.replace(config, steps=0))
            return str(first.value) == str(err)

        try:
            params, trace = train(ds, spec, init, config)
        except EmptyArmInBinError as err:
            at_two_bins = re.fullmatch(
                r"bin [12] of 2 has no (control |treatment )?rows; at step (\d+), with the fewest "
                r"bins allowed, use more rows or a larger batch", str(err))
            assert raised_at_step_0(err) if at_two_bins is None else (
                int(at_two_bins[2]) <= config.steps), err
        except DegeneratePredictionsError as err:
            assert raised_at_step_0(err), err
        except TrainingDivergedError as err:
            step = re.fullmatch(r".+ at step (\d+)", str(err))
            assert step and len(err.trace.entries) == int(step[1]) <= config.steps, err
        except ValueError as err:
            step = re.fullmatch(r"step (\d+): minibatch of \d+ rows has no (control|treatment) "
                                r"rows; use a larger batch", str(err))
            assert step and int(step[1]) <= config.steps, err
        else:
            assert np.isfinite(params).all() and len(trace.entries) == config.steps + 1


class TestTrainMatchesPublicLoop:
    """`train` hands each step's hidden layer from the forward to the backward
    pass; the result must equal `predict` and `backprop` called alone."""

    @pytest.mark.parametrize("batch", [None, 800])
    @pytest.mark.parametrize("spec", [
        LINEAR2,
        ModelSpec(ModelKind.MLP, 2, hidden=6, activation=Activation.TANH),
        ModelSpec(ModelKind.MLP, 2, hidden=6, activation=Activation.RELU),
    ], ids=["linear", "mlp-tanh", "mlp-relu"])
    def test_bit_identical(self, spec, batch):
        ds = generate(DataGenConfig(n_rows=4000, seed=7))
        init = np.array([1.0, 0.1, 1.0]) if spec is LINEAR2 else random_params(spec, seed=7)
        config = TrainConfig(step_size=0.02, steps=12, grad=GradConfig(n_bins=5, rebin_every=2),
                             batch=batch, seed=21)
        params, trace = train(ds, spec, init, config)
        ref_params, ref_trace = public_loop_train(ds, spec, init, config)
        assert params.tobytes() == ref_params.tobytes()
        # every case refreshes stale cuts at least once, so that path is compared too
        assert trace.events and trace.events == ref_trace.events
        assert len(trace.entries) == len(ref_trace.entries) == config.steps + 1
        for got, want in zip(trace.entries, ref_trace.entries):
            assert (got.step, got.loss, got.bias_term, got.separation_term) == (
                want.step, want.loss, want.bias_term, want.separation_term)
            assert got.params.tobytes() == want.params.tobytes()


def test_saved_csv_trains_bit_for_bit_like_its_data(tmp_path):
    # the loaded features have the generated ones' bytes and layout, so even
    # `x.T @ g` in the backward pass rounds the same; each case compares
    # params, trace losses and events
    ds = generate(DataGenConfig(n_rows=200_000, seed=0))
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    mlp = ModelSpec(ModelKind.MLP, 2, hidden=8, activation=Activation.TANH)
    cases = [
        (LINEAR2, np.array([1.0, 0.1, 1.0]),
         TrainConfig(step_size=0.1, steps=20, grad=GradConfig(n_bins=10))),
        (mlp, random_params(mlp, seed=0),
         TrainConfig(step_size=0.01, steps=20, grad=GradConfig(n_bins=5, rebin_every=2),
                     batch=5000, seed=3)),
    ]
    for spec, init, config in cases:
        params, trace = train(ds, spec, init, config)
        got_params, got_trace = train(loaded, spec, init, config)
        assert got_params.tobytes() == params.tobytes(), spec.kind
        assert got_trace.events == trace.events, spec.kind
        for got, want in zip(got_trace.entries, trace.entries, strict=True):
            assert (got.loss, got.bias_term, got.separation_term) == (
                want.loss, want.bias_term, want.separation_term), (spec.kind, want.step)
            assert got.params.tobytes() == want.params.tobytes(), (spec.kind, want.step)


class TestParamsIo:
    def test_round_trip_linear(self, tmp_path):
        path = tmp_path / "params.json"
        values = np.array([0.5, -0.25, 0.125])
        save_params(path, LINEAR2, values)
        spec, back = load_params(path)
        assert spec == LINEAR2
        np.testing.assert_array_equal(back, values)

    def test_round_trip_mlp(self, tmp_path):
        path = tmp_path / "params.json"
        spec = small_mlp()
        values = random_params(spec, seed=3)
        save_params(path, spec, values)
        spec2, back = load_params(path)
        assert spec2 == spec
        np.testing.assert_array_equal(back, values)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"kind": "linear", "d": 2, "values": [1.0]}')
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("shape", [
        '"d": 2.7', '"d": 2.0', '"d": "2"', '"d": true',
        '"d": 2, "hidden": 1.5', '"d": 2, "hidden": "1"', '"d": 2, "hidden": true',
    ])
    def test_shape_must_be_a_json_integer(self, tmp_path, shape):
        # int() would load 2.7 as 2 and "2" or true as well
        path = tmp_path / "params.json"
        kind = "mlp" if "hidden" in shape else "linear"
        path.write_text(f'{{"kind": "{kind}", {shape}, "activation": "tanh", "values": [0, 0, 0]}}')
        key = "hidden" if "hidden" in shape else "d"
        with pytest.raises(ValueError, match=f"^malformed parameter file {re.escape(str(path))}: "
                                             f"{key} must be a JSON integer, got "):
            load_params(path)

    @pytest.mark.parametrize("values,message", [
        *[(v, "values must be a JSON array of 3 numbers") for v in (
            '[true, "0.5", 1]', '[1, null, 2]', '[1, 2, [3]]', '[1, 2]', '[1, 2, 3, 4]', '5', '"123"')],
        pytest.param(f"[1, 2, 1{'0' * 400}]", "int too large to convert to float",
                     id="int-beyond-float"),
    ])
    def test_values_must_be_a_json_array_of_n_params_numbers(self, tmp_path, values, message):
        # np.asarray would load true and "0.5" as numbers and null as NaN
        path = tmp_path / "params.json"
        path.write_text(f'{{"kind": "linear", "d": 2, "values": {values}}}')
        with pytest.raises(ValueError, match=f"^malformed parameter file {re.escape(str(path))}: "
                                             f"{message}$"):
            load_params(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path, bom = tmp_path / "params.json", tmp_path / "bom.json"
        save_params(path, LINEAR2, np.array([0.5, -0.25, 0.125]))
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        (spec, values), (bom_spec, bom_values) = load_params(path), load_params(bom)
        assert bom_spec == spec and bom_values.tobytes() == values.tobytes()

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_params(tmp_path / "absent.json")
