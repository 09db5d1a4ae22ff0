import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftloss import (
    EmptyArmInBinError,
    SubsetStats,
    assign_bins,
    compute_cuts,
    generate,
    global_lift,
    pointwise_mse,
    subset_stats,
    true_lift_loss,
    variance_decomposition,
)
from liftloss.dataset import DataGenConfig
from liftloss.loss import write_loss_report

from dataset_helpers import make_dataset
from reference_gradient import reference_subset_stats


def two_bin_stats(mean_pred, lift, gl, size=(10, 10)):
    """Hand-assembled stats; arm means are placeholders consistent in shape."""
    size = np.asarray(size, dtype=np.int64)
    lift = np.asarray(lift, dtype=np.float64)
    return SubsetStats(
        size=size,
        size_t=size // 2,
        size_c=size - size // 2,
        mean_pred=np.asarray(mean_pred, dtype=np.float64),
        mean_y_t=lift.copy(),
        mean_y_c=np.zeros_like(lift),
        lift=lift,
        total_size=int(size.sum()),
        global_lift=gl,
        max_arm_imbalance=0.0,
    )


class TestGlobalLift:
    def test_constant_arms(self):
        ds = make_dataset([1.0, 2, 3, 4], [1.0, 1.0, 0.0, 0.0], [1, 1, 0, 0])
        assert global_lift(ds) == 1.0

    def test_identical_arms(self):
        ds = make_dataset([1.0, 2.0], [5.0, 5.0], [1, 0])
        assert global_lift(ds) == 0.0

    def test_hand_arithmetic(self):
        ds = make_dataset([0.0] * 5, [1.0, 2, 3, 0, 1], [1, 1, 1, 0, 0])
        assert global_lift(ds) == pytest.approx(2.0 - 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 300),
        one_row_arm=st.sampled_from([None, 0, 1]),
        zero_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_boolean_index_reference(self, n, one_row_arm, zero_share, seed):
        # bit for bit, signed zeros and one-row arms included
        rng = np.random.default_rng(seed)
        if one_row_arm is None:
            arm = rng.integers(0, 2, n)
            arm[rng.choice(n, 2, replace=False)] = (0, 1)
        else:
            arm = np.full(n, 1 - one_row_arm)
            arm[rng.integers(n)] = one_row_arm
        y = rng.normal(0.0, 1e3, n)
        zeros = rng.random(n) < zero_share
        y[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        treated = arm == 1
        expected = float(y[treated].mean() - y[~treated].mean())
        got = global_lift(make_dataset(np.zeros(n), y, arm))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("y,arm", [
        ([-0.0, 0.0], [1, 0]),
        ([-0.0, -0.0], [1, 0]),
        ([0.0, -0.0], [1, 0]),
        ([-0.0, -0.0, 0.0], [1, 0, 0]),
        ([2.5, 1.0, 1.0, 1.0], [1, 0, 0, 0]),
    ])
    def test_signed_zero_and_one_row_arm_cases(self, y, arm):
        y = np.array(y)
        treated = np.array(arm) == 1
        expected = float(y[treated].mean() - y[~treated].mean())
        got = global_lift(make_dataset(np.zeros(len(y)), y, arm))
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestSubsetStats:
    def test_hand_arithmetic_single_bin(self):
        ds = make_dataset([0.0, 0.0, 0.0], [1.0, 3.0, 1.0], [1, 1, 0])
        preds = np.array([0.2, 0.4, 0.3])
        stats = subset_stats(ds, preds, np.array([1, 1, 1]), 1)
        assert stats.mean_pred[0] == pytest.approx(0.3)
        assert stats.mean_y_t[0] == pytest.approx(2.0)
        assert stats.mean_y_c[0] == pytest.approx(1.0)
        assert stats.lift[0] == pytest.approx(1.0)

    def test_single_bin_collapses_to_globals(self):
        ds = generate(DataGenConfig(n_rows=500, seed=3))
        preds = ds.features[:, 0]
        stats = subset_stats(ds, preds, np.ones(len(ds), dtype=int), 1)
        assert stats.lift[0] == pytest.approx(global_lift(ds))
        assert stats.mean_pred[0] == pytest.approx(preds.mean())

    def test_empty_arm_raises_with_bin(self):
        ds = make_dataset([0.0] * 4, [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 0])
        with pytest.raises(EmptyArmInBinError, match="bin 1 of 2 has no control"):
            subset_stats(ds, np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 2, 2]), 2)

    def test_empty_bin_is_reported_as_empty(self):
        # 221 of 400 predictions take the larger of two values, so the midpoint
        # median is that value and every row lands in bin 1
        p = np.where(np.arange(400) < 221, 1.0, 0.0)
        ds = make_dataset(np.zeros(400), np.arange(400.0), np.arange(400) % 2)
        cuts = compute_cuts(p, 2)
        assert cuts.cuts[0] == 1.0
        bins = assign_bins(p, cuts)
        assert (bins == 1).all()
        with pytest.raises(EmptyArmInBinError,
                           match=r"^bin 2 of 2 has no rows; retry with fewer bins$"):
            subset_stats(ds, p, bins, 2)

    def test_cached_global_lift_is_used(self):
        ds = generate(DataGenConfig(n_rows=400, seed=4))
        preds = ds.features[:, 1]
        bins = assign_bins(preds, compute_cuts(preds, 2))
        stats = subset_stats(ds, preds, bins, 2, cached_global_lift=0.123)
        assert stats.global_lift == 0.123

    def test_weighted_mean_pred_matches_overall(self):
        ds = generate(DataGenConfig(n_rows=2000, seed=6))
        preds = ds.features[:, 1]
        bins = assign_bins(preds, compute_cuts(preds, 4))
        stats = subset_stats(ds, preds, bins, 4)
        assert float(stats.size @ stats.mean_pred) / stats.total_size == pytest.approx(
            preds.mean()
        )

    def test_arm_imbalance_diagnostic(self):
        # bin 1 is 1/2 treated, bin 2 is 3/4 treated, overall 5/8
        ds = make_dataset([0.0] * 8, np.arange(8.0), [1, 0, 1, 0, 1, 1, 1, 0])
        bins = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        stats = subset_stats(ds, np.linspace(0, 1, 8), bins, 2)
        assert stats.max_arm_imbalance == pytest.approx(1 / 8)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fused_bincounts_match_masked_reference(self, data):
        # outcomes spread over six decades, so any change in the order the
        # rows are summed would show in the last bits
        n_bins = data.draw(st.integers(1, 12), label="n_bins")
        n = data.draw(st.integers(2, 3000), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        arm = (rng.random(n) < data.draw(st.floats(0.2, 0.8), label="treated share")).astype(np.int8)
        arm[:2] = (0, 1)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        preds = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        bins = rng.integers(1, n_bins + 1, n)
        gl = data.draw(st.one_of(st.none(), st.floats(-1, 1)), label="cached lift")
        ds = make_dataset(np.zeros(n), y, arm)
        try:
            expected = reference_subset_stats(bins, preds, y, arm, n_bins, gl)
        except EmptyArmInBinError as err:
            with pytest.raises(EmptyArmInBinError) as got:
                subset_stats(ds, preds, bins, n_bins, gl)
            assert str(got.value) == str(err)
            return
        stats = subset_stats(ds, preds, bins, n_bins, gl)
        for field in dataclasses.fields(SubsetStats):
            np.testing.assert_array_equal(
                getattr(stats, field.name), getattr(expected, field.name), err_msg=field.name
            )


class TestTrueLiftLoss:
    def test_single_bin_is_squared_gap(self):
        ds = generate(DataGenConfig(n_rows=300, seed=8))
        preds = ds.features[:, 0]
        stats = subset_stats(ds, preds, np.ones(len(ds), dtype=int), 1)
        report = true_lift_loss(stats)
        assert report.loss == pytest.approx((preds.mean() - global_lift(ds)) ** 2)
        assert report.separation_term == pytest.approx(0.0)

    def test_zero_bias_is_non_positive(self):
        stats = two_bin_stats(mean_pred=[0.1, 0.9], lift=[0.1, 0.9], gl=0.5)
        report = true_lift_loss(stats)
        assert report.bias_term == 0.0
        assert report.loss == -report.separation_term <= 0.0

    def test_hand_arithmetic(self):
        stats = two_bin_stats(mean_pred=[0.2, 0.8], lift=[0.1, 0.9], gl=0.5)
        report = true_lift_loss(stats)
        assert report.loss == pytest.approx(-0.15)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_loss_is_bias_minus_separation_exactly(self, data):
        n = data.draw(st.integers(1, 6))
        finite = st.floats(-10, 10, allow_nan=False)
        stats = two_bin_stats(
            mean_pred=data.draw(st.lists(finite, min_size=n, max_size=n)),
            lift=data.draw(st.lists(finite, min_size=n, max_size=n)),
            gl=data.draw(finite),
            size=[data.draw(st.integers(2, 50)) for _ in range(n)],
        )
        report = true_lift_loss(stats)
        assert report.loss == report.bias_term - report.separation_term

    def test_report_csv_round_trip_fields(self, tmp_path):
        stats = two_bin_stats(mean_pred=[0.2, 0.8], lift=[0.1, 0.9], gl=0.5)
        report = true_lift_loss(stats)
        path = tmp_path / "report.csv"
        write_loss_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,size,size_t,size_c,mean_pred,mean_y_t,mean_y_c,lift"
        assert len(lines) == 4 and lines[-1].startswith("# loss=")
        assert repr(report.loss) in lines[-1]


class TestPointwiseMse:
    def test_perfect_model(self):
        assert pointwise_mse([0.1, 0.2], [0.1, 0.2]) == 0.0

    def test_symmetric_residuals(self):
        assert pointwise_mse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        assert pointwise_mse([0.3, 0.3, 0.8], [0.1, 0.5, 0.6]) == pytest.approx(0.04)

    def test_missing_lifts(self):
        with pytest.raises(ValueError, match="true lifts"):
            pointwise_mse([0.1], None)


class TestVarianceDecomposition:
    def test_single_group(self):
        total, within, between = variance_decomposition([1.0, 2.0, 3.0], [0, 0, 0])
        assert between == 0.0 and within == pytest.approx(total)

    def test_constant_groups(self):
        total, within, between = variance_decomposition([1.0, 1.0, 3.0, 3.0], [0, 0, 1, 1])
        assert within == 0.0 and between == pytest.approx(1.0) and total == pytest.approx(1.0)

    def test_all_equal(self):
        assert variance_decomposition([2.0, 2.0, 2.0], [0, 1, 0]) == (0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            variance_decomposition([], [])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_identity(self, data):
        n = data.draw(st.integers(1, 60))
        values = data.draw(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n)
        )
        groups = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        total, within, between = variance_decomposition(values, groups)
        assert within + between == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestDecompositionIdentity:
    """Binned MSE splits into the loss plus a model-independent variance."""

    @pytest.mark.parametrize("n_bins", [2, 5, 10])
    def test_identity_with_known_lifts(self, n_bins):
        ds = generate(DataGenConfig(n_rows=4000, seed=21))
        rng = np.random.default_rng(21)
        preds = ds.features @ rng.normal(0, 0.5, 2) + rng.normal()
        bins = assign_bins(preds, compute_cuts(preds, n_bins))
        stats = subset_stats(ds, preds, bins, n_bins)
        lifts = ds.true_lift
        oracle_lift = np.bincount(bins - 1, weights=lifts, minlength=n_bins) / stats.size
        oracle = dataclasses.replace(stats, lift=oracle_lift, global_lift=float(lifts.mean()))
        loss = true_lift_loss(oracle).loss
        mse = pointwise_mse(oracle.mean_pred[bins - 1], lifts)
        const = float(np.mean((lifts - lifts.mean()) ** 2))
        assert abs(mse - (loss + const)) <= 1e-10 * abs(mse)

    def test_model_ranking_sanity(self):
        ds = generate(DataGenConfig(n_rows=10_000, seed=22))
        gl = global_lift(ds)
        r3 = ds.features[:, 1]

        def loss_of(preds, n_bins):
            bins = assign_bins(preds, compute_cuts(preds, n_bins))
            return true_lift_loss(subset_stats(ds, preds, bins, n_bins)).loss

        true_model = loss_of(0.5 * r3, 5)
        null_model = (np.full(len(ds), gl).mean() - gl) ** 2  # single-bin loss
        reversed_model = loss_of(-0.5 * r3, 5)
        assert true_model < null_model < reversed_model
