import dataclasses
import warnings

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
)
from liftloss import _threads
from liftloss.dataset import DataGenConfig
from liftloss.loss import bin_table, write_loss_report

from dataset_helpers import make_dataset
from reference_gradient import reference_keyed_subset_stats, reference_subset_stats
from thread_helpers import SPLIT_ROWS, THREAD_COUNTS, row_ranges


def lift_means(lift):
    """A (bin, arm) table of mean outcomes whose lifts are `lift`: control 0, treatment `lift`."""
    lift = np.asarray(lift, dtype=np.float64)
    return np.column_stack([np.zeros_like(lift), lift])


def two_bin_stats(mean_pred, lift, gl, size=(10, 10)):
    """Hand-assembled stats with the given lifts, as `lift_means` lays them out."""
    size = np.asarray(size, dtype=np.int64)
    return SubsetStats(
        count=np.column_stack([size - size // 2, size // 2]),
        mean_y=lift_means(lift),
        mean_pred=np.asarray(mean_pred, dtype=np.float64),
        global_lift=gl,
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
        assert stats.mean_y[0].tolist() == pytest.approx([1.0, 2.0])  # control, treatment
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
        # fresh cuts never empty a bin, so every row is put in bin 1 by hand
        p = np.where(np.arange(400) < 221, 1.0, 0.0)
        ds = make_dataset(np.zeros(400), np.arange(400.0), np.arange(400) % 2)
        bins = np.ones(400, dtype=int)
        with pytest.raises(EmptyArmInBinError,
                           match=r"^bin 2 of 2 has no rows; retry with fewer bins$"):
            subset_stats(ds, p, bins, 2)

    @pytest.mark.parametrize("count,message", [
        ([[1, 1], [0, 2]], "bin 2 of 2 has no control rows"),
        ([[1, 0], [2, 2]], "bin 1 of 2 has no treatment rows"),
        ([[0, 1], [1, 0]], "bin 2 of 2 has no treatment rows"),  # treatment is checked first
        ([[1, 1], [0, 0]], "bin 2 of 2 has no rows"),
    ])
    def test_every_cell_needs_a_row(self, count, message):
        # the one emptiness check, on the table itself, however it was built
        with pytest.raises(EmptyArmInBinError, match=f"^{message}; retry with fewer bins$"):
            SubsetStats(np.array(count), np.ones((2, 2)), np.zeros(2), 0.0)

    def test_derived_values_cannot_be_set(self):
        stats = two_bin_stats(mean_pred=[0.2, 0.8], lift=[0.1, 0.9], gl=0.5)
        for name in ("size", "lift", "total_size"):
            with pytest.raises(TypeError, match=name):
                SubsetStats(stats.count, stats.mean_y, stats.mean_pred, 0.5, **{name: 1})
            with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
                dataclasses.replace(stats, **{name: getattr(stats, name)})
        moved = dataclasses.replace(stats, mean_y=stats.mean_y + [[0.0, 1.0], [0.5, 0.0]])
        assert moved.lift.tolist() == pytest.approx([1.1, 0.4])
        assert moved.size.tolist() == [10, 10] and moved.total_size == 20

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


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_keyed_reference_byte_for_byte(self, data):
        # every field, dtype and strides included, and every error, against the
        # min/max-checked `bins0 * 2 + arm` key; list bins give the same
        n_bins = data.draw(st.integers(1, 40), label="n_bins")
        n = data.draw(st.integers(2, 600), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        arm = rng.integers(0, 2, n).astype(np.int8)
        arm[:2] = (0, 1)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        preds = rng.normal(size=n)
        bins = rng.integers(1, n_bins + 1, n)
        if data.draw(st.booleans(), label="bad bin"):
            bins[rng.integers(n)] = data.draw(st.sampled_from([0, -1, -7, n_bins + 1]))
        gl = data.draw(st.one_of(st.none(), st.floats(-1, 1)), label="cached lift")
        ds = make_dataset(np.zeros(n), y, arm)
        for given_bins in (bins, bins.tolist()):
            try:
                want = reference_keyed_subset_stats(ds, preds, given_bins, n_bins, gl)
            except ValueError as err:
                with pytest.raises(type(err)) as got:
                    subset_stats(ds, preds, given_bins, n_bins, gl)
                assert str(got.value) == str(err)
                continue
            stats = subset_stats(ds, preds, given_bins, n_bins, gl)
            for field in dataclasses.fields(SubsetStats):
                a, b = getattr(stats, field.name), getattr(want, field.name)
                assert type(a) is type(b), field.name
                if isinstance(a, np.ndarray):
                    assert (a.dtype, a.strides) == (b.dtype, b.strides), field.name
                    a, b = a.tobytes(), b.tobytes()
                assert a == b, field.name

    @pytest.mark.parametrize("bad", [0, 3, -1, -128])
    @pytest.mark.parametrize("form", ["int8", "intp", "list"])
    def test_bin_out_of_range_raises(self, bad, form):
        ds = make_dataset(np.zeros(6), np.arange(6.0), [0, 1] * 3)
        bins = np.array([1, 1, 2, 2, 1, bad])
        bins = bins.tolist() if form == "list" else bins.astype(form)
        with pytest.raises(ValueError, match="^bin index out of range$"):
            subset_stats(ds, np.linspace(0.0, 1.0, 6), bins, 2)

    def test_float_bins_raise_type_error(self):
        ds = make_dataset(np.zeros(4), np.arange(4.0), [0, 1] * 2)
        with pytest.raises(TypeError):
            subset_stats(ds, np.zeros(4), np.array([1.0, 1.0, 2.0, 2.0]), 2)

    def test_int8_bins_past_64_do_not_wrap(self):
        # bins * 2 overflows int8 from bin 64 on; the key is built in intp
        n_bins = 100
        bins = np.repeat(np.arange(1, n_bins + 1), 2)
        ds = make_dataset(np.zeros(bins.size), np.arange(bins.size, dtype=float),
                          np.tile([0, 1], n_bins))
        preds = np.linspace(0.0, 1.0, bins.size)
        want = subset_stats(ds, preds, bins, n_bins)
        got = subset_stats(ds, preds, bins.astype(np.int8), n_bins)
        for field in dataclasses.fields(SubsetStats):
            np.testing.assert_array_equal(
                getattr(got, field.name), getattr(want, field.name), err_msg=field.name
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

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_any_outcome_scale_gives_a_finite_report_or_one_error(self, data):
        # sums of outcomes up to 1e308 may pass float64's range: subset_stats or
        # true_lift_loss then raises FloatingPointError, and numpy never warns
        n = data.draw(st.integers(6, 40), label="rows")
        n_bins = data.draw(st.integers(1, 3), label="n_bins")
        scale = 10.0 ** data.draw(st.integers(0, 308), label="outcome exponent")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        arm = np.resize(np.array([0, 1], dtype=np.int8), n)
        preds = np.arange(n, dtype=np.float64)
        ds = make_dataset(preds, rng.uniform(-1, 1, n) * scale, arm)
        bins = np.resize(np.repeat(np.arange(1, n_bins + 1), 2), n)
        cached = data.draw(st.one_of(st.none(), st.just(global_lift(ds))), label="cached lift")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = true_lift_loss(subset_stats(ds, preds, bins, n_bins, cached))
            except FloatingPointError as err:
                assert str(err) in ("bin statistics are not finite", "loss is not finite")
                return
        values = [report.bias_term, report.separation_term, report.stats.global_lift]
        assert np.isfinite(values).all() and np.isfinite(report.stats.lift).all()

    def test_report_csv_round_trip_fields(self, tmp_path):
        ds = generate(DataGenConfig(n_rows=300, seed=8))
        preds = ds.features[:, 0]
        stats = subset_stats(ds, preds, assign_bins(preds, compute_cuts(preds, 2)), 2)
        report = true_lift_loss(stats)
        path = tmp_path / "report.csv"
        write_loss_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,size,size_t,size_c,mean_pred,mean_y_t,mean_y_c,lift"
        assert [c.dtype for c in bin_table(stats).values()] == [np.int64] * 4 + [np.float64] * 4
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
        oracle = dataclasses.replace(stats, mean_y=lift_means(oracle_lift),
                                     global_lift=float(lifts.mean()))
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


class TestThreadCount:
    """The `bincount` key is built on one range of rows per thread; the table is
    bit-identical whatever the count, and a bad bin in any range raises."""

    @pytest.mark.parametrize("n", SPLIT_ROWS)
    def test_table(self, per_thread_count, n):
        ds = generate(DataGenConfig(n_rows=n, seed=n % 1000))
        preds = ds.true_lift + np.random.default_rng(n).normal(0.0, 0.1, n)
        bins = assign_bins(preds, compute_cuts(preds, 10))

        def table(b):
            stats = subset_stats(ds, preds, b, 10)
            return stats.count.tobytes(), stats.mean_y.tobytes(), stats.mean_pred.tobytes()

        for b in (bins, bins.astype(np.int8)):
            results = per_thread_count(lambda: table(b))
            assert results[1:] == results[:1] * 2

    @pytest.mark.parametrize("bad_bin", [0, 11])
    def test_a_bin_out_of_range_in_the_second_range(self, monkeypatch, bad_bin):
        n = SPLIT_ROWS[-1]
        ds = generate(DataGenConfig(n_rows=n, seed=5))
        preds = ds.true_lift
        bins = assign_bins(preds, compute_cuts(preds, 10))
        for count in THREAD_COUNTS[1:]:
            monkeypatch.setattr(_threads, "usable_cpus", lambda: count)
            bad_bins = bins.copy()
            bad_bins[row_ranges(n)[1].start] = bad_bin
            with pytest.raises(ValueError, match="^bin index out of range$"):
                subset_stats(ds, preds, bad_bins, 10)
