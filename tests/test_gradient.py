import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftloss import (
    DegeneratePredictionsError,
    EmptyArmInBinError,
    GradConfig,
    Segment,
    assign_bins,
    assign_segments,
    bias_gradient,
    compute_cuts,
    effective_gradient,
    generate,
    global_lift,
    inner_cuts,
    predict,
    subset_stats,
    true_lift_loss,
)
from liftloss import _threads
from liftloss.binning import BIN_BLOCK_ROWS, MAX_SORT
from liftloss.checks import (
    BIAS_TOLERANCE,
    MIGRATION_TOLERANCE,
    bias_fd_check,
    migration_recompute_check,
    run_gradcheck,
)
from liftloss.dataset import DataGenConfig
from liftloss.gradient import (
    FEWEST_BINS_ADVICE,
    MIGRATION_STEP_SCALE,
    _migration_tables,
    loss_partials,
)
from liftloss.models import ModelKind, ModelSpec

from dataset_helpers import make_dataset
from reference_gradient import (
    reference_cut_sample,
    reference_effective_gradient,
    reference_whole_gather_gradient,
)
from thread_helpers import SPLIT_ROWS, THREAD_COUNTS, row_ranges


def recompute_loss_slope(stats, dp, y, treated, from0, to0):
    """Independent oracle: apply the prescribed one-row move to a stats copy,
    re-evaluate the full loss, and divide the change by the prediction shift.
    The row's arm mean moves by (mean - y) / n in the bin it leaves and by
    (y - mean) / n in the bin it joins, n the pre-move arm count; mean
    predictions and the global lift stay fixed."""
    arm = int(treated)
    count, mean_y = stats.count.copy(), stats.mean_y.copy()
    mean_y[from0, arm] += (stats.mean_y[from0, arm] - y) / stats.count[from0, arm]
    mean_y[to0, arm] += (y - stats.mean_y[to0, arm]) / stats.count[to0, arm]
    count[from0, arm] -= 1
    count[to0, arm] += 1
    assert count.sum() == stats.total_size  # one row moved, none created
    moved = dataclasses.replace(stats, count=count, mean_y=mean_y)
    return (true_lift_loss(moved).loss - true_lift_loss(stats).loss) / dp


def migration_parts(ds, preds, n_bins):
    """One effective_gradient call and each boundary row's migration part:
    its point gradient minus its bias channel."""
    result = effective_gradient(ds, preds, GradConfig(n_bins=n_bins))
    rows = np.flatnonzero(result.segments != Segment.MIDDLE)
    return result, rows, result.point_grad[rows] - bias_gradient(result.stats, result.bins[rows])


def full_structure(ds, preds, n_bins):
    cuts = compute_cuts(preds, n_bins)
    bins = assign_bins(preds, cuts)
    stats = subset_stats(ds, preds, bins, n_bins)
    inner = inner_cuts(cuts)
    segments = assign_segments(preds, inner, bins)
    return cuts, bins, stats, inner, segments


class TestBiasGradient:
    def test_zero_when_prediction_matches_lift(self):
        from test_loss import two_bin_stats

        stats = two_bin_stats(mean_pred=[0.3, 0.7], lift=[0.3, 0.7], gl=0.5)
        assert (bias_gradient(stats, np.array([1, 2])) == 0.0).all()

    def test_hand_arithmetic(self):
        from test_loss import two_bin_stats

        stats = two_bin_stats(mean_pred=[0.6, 0.0], lift=[0.1, 0.0], gl=0.0, size=[50, 50])
        assert bias_gradient(stats, np.array([1]))[0] == pytest.approx(0.01)

    def test_descent_lowers_overshooting_predictions(self):
        from test_loss import two_bin_stats

        stats = two_bin_stats(mean_pred=[0.9, 0.1], lift=[0.2, 0.1], gl=0.15)
        # descent moves predictions toward the lift
        assert bias_gradient(stats, np.array([1]))[0] > 0

    def test_vectorized_matches_scalar(self):
        ds = generate(DataGenConfig(n_rows=300, seed=1))
        preds = ds.features[:, 1]
        _, bins, stats, _, _ = full_structure(ds, preds, 3)
        vec = bias_gradient(stats, bins)
        assert vec.shape == preds.shape
        per_bin = bias_gradient(stats, np.arange(1, stats.n_bins + 1))
        for i in (0, 5, 299):
            assert vec[i] == per_bin[bins[i] - 1]


class TestLossPartials:
    def test_stationary_bin(self):
        from test_loss import two_bin_stats

        stats = two_bin_stats(mean_pred=[0.5, 0.8], lift=[0.5, 0.2], gl=0.5)
        d_lift, d_size = loss_partials(stats)
        assert d_lift[0] == 0.0 and d_size[0] == 0.0

    def test_size_partial_reads_off_bin_contribution(self):
        from test_loss import two_bin_stats

        stats = two_bin_stats(mean_pred=[0.2, 0.8], lift=[0.1, 0.9], gl=0.5)
        _, d_size = loss_partials(stats)
        bracket = (0.2 - 0.1) ** 2 - (0.1 - 0.5) ** 2
        assert d_size[0] == pytest.approx(bracket / stats.total_size)

    def test_lift_partial_matches_finite_differences(self):
        ds = generate(DataGenConfig(n_rows=2000, seed=2))
        preds = ds.features @ np.array([0.3, 0.6]) + 0.1
        _, _, stats, _, _ = full_structure(ds, preds, 4)
        d_lift, _ = loss_partials(stats)
        eps = 1e-6
        for n in range(4):
            # a bin's lift moves with its treated mean
            hi = stats.mean_y.copy()
            hi[n, 1] += eps
            lo = stats.mean_y.copy()
            lo[n, 1] -= eps
            hi, lo = dataclasses.replace(stats, mean_y=hi), dataclasses.replace(stats, mean_y=lo)
            fd = (true_lift_loss(hi).loss - true_lift_loss(lo).loss) / (hi.lift[n] - lo.lift[n])
            assert fd == pytest.approx(d_lift[n], rel=1e-4)


class TestMigrationTerms:
    def test_symmetric_instance_cancels(self):
        # matched outcomes and matched bin brackets: moving changes nothing
        from test_loss import two_bin_stats

        stats = two_bin_stats(mean_pred=[0.7, 0.9], lift=[0.4, 0.6], gl=0.5, size=[10, 10])
        # the same lifts, with the treated means matched
        stats = dataclasses.replace(stats, mean_y=np.array([[0.6, 1.0], [0.4, 1.0]]))
        # brackets: (0.3)^2 - (0.1)^2 in both bins; treated row at the arm mean
        cuts = compute_cuts(np.linspace(0, 1, 20), 2)
        inner = inner_cuts(cuts)
        a, b = _migration_tables(stats, cuts, inner)
        cell = (0, Segment.TOP, 1)  # bin 1, top segment, treated
        assert a[cell] + b[cell] * 1.0 == pytest.approx(0.0, abs=1e-12)

    def test_down_move_flips_sign_via_negative_shift(self, six_row_instance):
        ds, preds = six_row_instance
        cuts, bins, stats, inner, segments = full_structure(ds, preds, 2)
        # same loss change divided by a negative shift flips the sign
        dp_up = MIGRATION_STEP_SCALE * (cuts.cuts[0] - inner.minus[0])
        dp_down = MIGRATION_STEP_SCALE * (cuts.cuts[0] - inner.plus[0])
        assert dp_up > 0 > dp_down

    def test_six_row_hand_instance_frozen(self, six_row_instance):
        # frozen from the recompute oracle on this instance
        ds, preds = six_row_instance
        result, rows, (g_top, g_bot) = migration_parts(ds, preds, 2)
        assert result.cuts.cuts[0] == pytest.approx(0.515)
        assert result.stats.lift == pytest.approx([1.0, 1.75])
        assert result.stats.global_lift == pytest.approx(1.0)
        np.testing.assert_array_equal(rows, [2, 3])
        assert g_top == pytest.approx(-18.93126984126983, rel=1e-12)
        assert g_bot == pytest.approx(19.699682539682552, rel=1e-12)

    def test_six_row_matches_recompute_oracle(self, six_row_instance):
        ds, preds = six_row_instance
        result, rows, computed = migration_parts(ds, preds, 2)
        assert rows[0] == 2  # top segment of bin 1: treated, y = 2
        dp_up = 0.5 * (result.cuts.cuts[0] - result.inner.minus[0])
        oracle = recompute_loss_slope(result.stats, dp_up, 2.0, True, 0, 1)
        assert computed[0] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n_bins", [2, 4, 7])
    def test_every_boundary_row_matches_oracle(self, n_bins):
        ds = generate(DataGenConfig(n_rows=200, seed=33))
        rng = np.random.default_rng(33)
        preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 1, 3), ds)
        result, rows, computed = migration_parts(ds, preds, n_bins)
        cuts, bins, stats, inner, segments = (
            result.cuts, result.bins, result.stats, result.inner, result.segments
        )
        checked = 0
        for i, g in zip(rows, computed):
            up = segments[i] == Segment.TOP
            b = int(bins[i])
            boundary = b - 1 if up else b - 2
            edge = cuts.cuts[boundary]
            dp = 0.5 * (edge - (inner.minus[boundary] if up else inner.plus[boundary]))
            oracle = recompute_loss_slope(
                stats, dp, float(ds.outcome[i]), bool(ds.arm[i]), b - 1, b - 1 + (1 if up else -1)
            )
            rel = abs(g - oracle) / max(abs(g), abs(oracle), 1e-12)
            assert rel <= 1e-10
            checked += 1
        assert checked > 0


class TestEffectiveGradient:
    def test_middle_rows_get_pure_bias(self):
        ds = generate(DataGenConfig(n_rows=1000, seed=44))
        preds = ds.features[:, 1] * 0.4 + 0.05
        result = effective_gradient(ds, preds, GradConfig(n_bins=4))
        middle = result.segments == Segment.MIDDLE
        expected = bias_gradient(result.stats, result.bins[middle])
        np.testing.assert_array_equal(result.point_grad[middle], expected)

    def test_unbiased_grouped_optimum_is_stationary_for_middle(self):
        # two perfectly separated groups whose predictions equal their lifts
        n = 200
        feats = np.concatenate([np.zeros(n), np.ones(n)])
        arm = np.tile([1, 0], n)
        y = np.where(feats == 1.0, np.where(arm == 1, 1.0, 0.0), 0.0)
        ds = make_dataset(feats, y, arm)
        preds = feats  # bin lifts are exactly 0 and 1, matching predictions
        result = effective_gradient(ds, preds, GradConfig(n_bins=2))
        middle = result.segments == Segment.MIDDLE
        assert middle.any()
        np.testing.assert_allclose(result.point_grad[middle], 0.0, atol=1e-15)

    def test_edge_regions_have_no_migration(self):
        ds = generate(DataGenConfig(n_rows=2000, seed=46))
        preds = ds.features[:, 0]
        result = effective_gradient(ds, preds, GradConfig(n_bins=5))
        bias = bias_gradient(result.stats, result.bins)
        # outermost regions of the edge bins are labeled middle, so the
        # gradient there is the bias channel alone
        lowest = preds < result.inner.minus[0]
        highest = preds > result.inner.plus[-1]
        assert lowest.any() and highest.any()
        np.testing.assert_array_equal(result.point_grad[lowest], bias[lowest])
        np.testing.assert_array_equal(result.point_grad[highest], bias[highest])

    def test_reusing_cuts_skips_requantiling(self):
        ds = generate(DataGenConfig(n_rows=500, seed=47))
        preds = ds.features[:, 1]
        first = effective_gradient(ds, preds, GradConfig(n_bins=3))
        shifted = preds + 0.01
        second = effective_gradient(ds, shifted, GradConfig(n_bins=3), cuts=first.cuts)
        assert second.cuts is first.cuts

    def test_reused_cuts_keep_their_segment_width(self):
        # at 2 bins the width comes from the spread of the predictions the
        # cut was read from, not from the predictions it is reused on
        ds = generate(DataGenConfig(n_rows=2000, seed=50))
        preds = ds.features[:, 1]
        config = GradConfig(n_bins=2)
        cuts = effective_gradient(ds, preds, config).cuts
        q1, q3 = np.quantile(preds, [0.25, 0.75])
        assert cuts.spread == q3 - q1
        moved = 3.0 * preds + 0.05
        assert compute_cuts(moved, 2).spread != cuts.spread
        result = effective_gradient(ds, moved, config, cuts=cuts)
        want = inner_cuts(cuts)
        assert result.inner.minus.tobytes() == want.minus.tobytes()
        assert result.inner.plus.tobytes() == want.plus.tobytes()

    def test_bias_fd_invariant(self):
        # frozen-structure finite differences reproduce the bias channel
        ds = generate(DataGenConfig(n_rows=800, seed=48))
        rng = np.random.default_rng(48)
        preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 1, 3), ds)
        cuts, bins, stats, inner, segments = full_structure(ds, preds, 4)
        for i in rng.choice(len(ds), 40, replace=False):
            b0 = bins[i] - 1
            eps = 1e-4
            hi = stats.mean_pred.copy()
            hi[b0] += eps / stats.size[b0]
            lo = stats.mean_pred.copy()
            lo[b0] -= eps / stats.size[b0]
            fd = (
                true_lift_loss(dataclasses.replace(stats, mean_pred=hi)).loss
                - true_lift_loss(dataclasses.replace(stats, mean_pred=lo)).loss
            ) / (2 * eps)
            assert fd == pytest.approx(bias_gradient(stats, bins[[i]])[0], rel=1e-6)

    def test_descent_direction_quick(self):
        # single prediction-space step lowers the loss on most instances
        wins = 0
        for seed in range(10):
            ds = generate(DataGenConfig(n_rows=2000, seed=seed))
            rng = np.random.default_rng(1000 + seed)
            preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.uniform(-1, 1, 3), ds)
            gl = global_lift(ds)

            def loss_of(p):
                cuts = compute_cuts(p, 5)
                bins = assign_bins(p, cuts)
                return true_lift_loss(subset_stats(ds, p, bins, 5, gl)).loss

            result = effective_gradient(ds, preds, GradConfig(n_bins=5), cached_global_lift=gl)
            try:
                wins += loss_of(preds - 0.01 * len(ds) * result.point_grad) < loss_of(preds)
            except ValueError:
                pass
        assert wins >= 8

    @pytest.mark.parametrize("seed", range(20))
    def test_unpinned_lift_is_the_one_train_pins(self, seed):
        # gradcheck's recipe: without a pin it checks the gradient train takes
        ds = generate(DataGenConfig(n_rows=200, seed=seed))
        rng = np.random.default_rng(seed)
        preds = predict(ModelSpec(ModelKind.LINEAR, ds.d), rng.standard_normal(ds.d + 1), ds)
        config = GradConfig(n_bins=5)
        unpinned = effective_gradient(ds, preds, config)
        pinned = effective_gradient(ds, preds, config, global_lift(ds))
        assert unpinned.point_grad.tobytes() == pinned.point_grad.tobytes()
        assert unpinned.stats.global_lift == pinned.stats.global_lift

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradConfig(n_bins=1)
        with pytest.raises(ValueError):
            GradConfig(n_bins=5, rebin_every=0)
        # the cut sample is fixed, so its size bounds the bins and is no setting
        assert GradConfig(n_bins=MAX_SORT).n_bins == MAX_SORT
        with pytest.raises(ValueError, match=r"^n_bins must be <= MAX_SORT \(100000\), got 100001$"):
            GradConfig(n_bins=MAX_SORT + 1)
        with pytest.raises(TypeError):
            GradConfig(n_bins=5, max_sort=10)


class TestGradcheckOracles:
    def test_bias_check_sees_middle_rows(self):
        # middle rows carry only the bias channel, so their point gradients
        # are under the FD oracle; scaling them must fail the check, which
        # the boundary-only migration oracle cannot see
        ds = generate(DataGenConfig(n_rows=400, seed=49))
        rng = np.random.default_rng(49)
        preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 1, 3), ds)
        config = GradConfig(n_bins=5)
        eg = effective_gradient(ds, preds, config)
        assert bias_fd_check(eg) <= BIAS_TOLERANCE
        middle = eg.segments == Segment.MIDDLE
        broken = dataclasses.replace(
            eg, point_grad=np.where(middle, 1.5 * eg.point_grad, eg.point_grad)
        )
        assert bias_fd_check(broken) > 0.3
        assert migration_recompute_check(ds, broken)[0] <= MIGRATION_TOLERANCE

    def test_bias_check_sees_one_middle_row(self):
        # every row is checked, so one middle row off by 1e-5 of itself fails
        ds = generate(DataGenConfig(n_rows=400, seed=49))
        rng = np.random.default_rng(49)
        preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 1, 3), ds)
        eg = effective_gradient(ds, preds, GradConfig(n_bins=5))
        assert eg.segments[399] == Segment.MIDDLE
        assert bias_fd_check(eg) <= BIAS_TOLERANCE
        assert bias_fd_check(sabotaged_bias(eg, 399)) > BIAS_TOLERANCE

    def test_one_sabotaged_row_fails_at_a_million_rows(self, million_rows):
        ds, eg = million_rows
        assert bias_fd_check(eg) <= BIAS_TOLERANCE
        assert migration_recompute_check(ds, eg)[0] <= MIGRATION_TOLERANCE
        middle = np.flatnonzero(eg.segments == Segment.MIDDLE)
        for row in middle[[0, -1]]:
            assert bias_fd_check(sabotaged_bias(eg, row)) > BIAS_TOLERANCE
        for segment, arm in ((Segment.BOTTOM, 0), (Segment.TOP, 1)):
            row = np.flatnonzero((eg.segments == segment) & (ds.arm == arm))[-1]
            assert sabotaged_migration_err(ds, eg, row) > MIGRATION_TOLERANCE

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bias_check_passes_and_sees_any_middle_row(self, data):
        n = data.draw(st.integers(20, 3000), label="rows")
        n_bins = data.draw(st.integers(2, 12), label="n_bins")
        frac = data.draw(st.floats(0.05, 0.95), label="treated share")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        preds = rng.normal(size=n)
        arm = (rng.random(n) < frac).astype(np.int8)
        arm[:2] = (0, 1)
        ds = make_dataset(preds, rng.normal(0.5 * arm + 0.3 * preds, 1.0), arm)
        try:
            eg = effective_gradient(ds, preds, GradConfig(n_bins=n_bins))
        except (EmptyArmInBinError, DegeneratePredictionsError):
            return
        assert bias_fd_check(eg) <= BIAS_TOLERANCE
        middle = np.flatnonzero(eg.segments == Segment.MIDDLE)
        if middle.size:
            row = middle[data.draw(st.integers(0, middle.size - 1), label="middle row")]
            assert bias_fd_check(sabotaged_bias(eg, row)) > BIAS_TOLERANCE

    def test_row_last_of_its_arm_in_its_bin_checked(self, six_row_instance):
        # row 1 made control: row 2, the top segment of bin 1, is then the
        # only treated row of its bin
        ds, preds = six_row_instance
        ds = make_dataset(preds, ds.outcome, [0, 0, 1, 0, 1, 0])
        config = GradConfig(n_bins=2)
        eg = effective_gradient(ds, preds, config)
        assert eg.segments[2] == Segment.TOP and ds.arm[2] == 1 and eg.stats.count[0, 1] == 1
        result = run_gradcheck(ds, preds, config)
        assert result.passed and result.migration_rows_checked == 2
        assert sabotaged_migration_err(ds, eg, 2) > MIGRATION_TOLERANCE

    @pytest.mark.parametrize("segment,arm", [(Segment.BOTTOM, 0), (Segment.TOP, 1)])
    def test_one_sabotaged_row_fails(self, segment, arm):
        ds = generate(DataGenConfig(n_rows=400, seed=49))
        rng = np.random.default_rng(49)
        preds = predict(ModelSpec(ModelKind.LINEAR, 2), rng.normal(0, 1, 3), ds)
        config = GradConfig(n_bins=5)
        eg = effective_gradient(ds, preds, config)
        row = np.flatnonzero((eg.segments == segment) & (ds.arm == arm))[0]
        assert migration_recompute_check(ds, eg)[0] <= MIGRATION_TOLERANCE
        assert sabotaged_migration_err(ds, eg, row) > MIGRATION_TOLERANCE

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_migration_passes_wherever_the_gradient_exists(self, data):
        n = data.draw(st.integers(20, 300), label="rows")
        n_bins = data.draw(st.integers(2, 8), label="n_bins")
        frac = data.draw(st.floats(0.05, 0.95), label="treated share")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        preds = rng.normal(size=n)
        arm = (rng.random(n) < frac).astype(np.int8)
        arm[:2] = (0, 1)
        ds = make_dataset(preds, rng.normal(0.5 * arm + 0.3 * preds, 1.0), arm)
        config = GradConfig(n_bins=n_bins)
        try:
            effective_gradient(ds, preds, config)
        except (EmptyArmInBinError, DegeneratePredictionsError):
            return
        assert run_gradcheck(ds, preds, config).migration_passed


@pytest.fixture(scope="module")
def million_rows():
    """The data and predictions of `gradcheck --rows 1000000 --bins 3 --seed 2`."""
    ds = generate(DataGenConfig(n_rows=1_000_000, seed=2))
    preds = predict(ModelSpec(ModelKind.LINEAR, 2), np.random.default_rng(2).standard_normal(3), ds)
    return ds, effective_gradient(ds, preds, GradConfig(n_bins=3))


def sabotaged_bias(eg, row):
    """The gradient with one row's point gradient scaled by 1 + 1e-5."""
    grad = eg.point_grad.copy()
    grad[row] *= 1 + 1e-5
    return dataclasses.replace(eg, point_grad=grad)


def sabotaged_migration_err(ds, eg, row):
    """Migration check error after shifting one boundary row's point gradient
    by 1e-6 of the instance's largest migration part."""
    rows = np.flatnonzero(eg.segments != Segment.MIDDLE)
    largest = np.abs(eg.point_grad[rows] - bias_gradient(eg.stats, eg.bins[rows])).max()
    grad = eg.point_grad.copy()
    grad[row] += 1e-6 * largest
    return migration_recompute_check(ds, dataclasses.replace(eg, point_grad=grad))[0]


def place_ties(preds, cuts, rng):
    """Put a few rows exactly on each cut, minus and plus of `cuts`."""
    inner = inner_cuts(cuts)
    targets = np.concatenate([cuts.cuts, inner.minus, inner.plus])
    rows = rng.permutation(preds.size)[: 3 * targets.size]
    out = preds.copy()
    out[rows] = np.resize(targets, rows.size)
    return out


class TestTableMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_point_grad_matches_per_row_reference(self, data):
        n_bins = data.draw(st.integers(2, 12), label="n_bins")
        n = data.draw(st.integers(max(50, 25 * n_bins), 3000), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        frac = data.draw(st.floats(0.2, 0.8), label="treated share")
        shift = data.draw(st.one_of(st.none(), st.floats(-0.3, 0.3)), label="cut shift")
        preds = rng.normal(size=n)
        arm = (rng.random(n) < frac).astype(np.int8)
        arm[:2] = (0, 1)
        y = rng.normal(0.5 * arm + 0.3 * preds, 1.0)
        sample = preds if shift is None else preds + shift
        cuts = compute_cuts(sample, n_bins)
        preds = place_ties(preds, cuts, rng)
        ds = make_dataset(preds, y, arm)
        gl = global_lift(ds) if data.draw(st.booleans(), label="cached lift") else None
        config = GradConfig(n_bins=n_bins)
        try:
            ref, ref_segments = reference_effective_gradient(
                ds, preds, cuts, sample, gl, MIGRATION_STEP_SCALE
            )
        except EmptyArmInBinError as err:
            with pytest.raises(EmptyArmInBinError) as got:
                effective_gradient(ds, preds, config, gl, cuts)
            assert str(got.value) == str(err)
            return
        result = effective_gradient(ds, preds, config, gl, cuts)
        np.testing.assert_array_equal(result.segments, ref_segments)
        assert np.abs(result.point_grad - ref).max() <= 1e-12 * np.abs(ref).max()
        middle = result.segments == Segment.MIDDLE
        np.testing.assert_array_equal(
            result.point_grad[middle], bias_gradient(result.stats, result.bins[middle])
        )


class TestBlockedGather:
    """The coefficient tables are gathered `BIN_BLOCK_ROWS` rows at a time."""

    @pytest.mark.parametrize("n_bins", [2, 10, 65])
    @pytest.mark.parametrize(
        "n", [BIN_BLOCK_ROWS - 1, BIN_BLOCK_ROWS, BIN_BLOCK_ROWS + 1, 2 * BIN_BLOCK_ROWS + 1]
    )
    def test_matches_whole_vector_gather_across_block_edges(self, n, n_bins):
        rng = np.random.default_rng(n + n_bins)
        preds = rng.normal(size=n)
        arm = (rng.random(n) < 0.6).astype(np.int8)
        y = rng.normal(0.5 * arm + 0.3 * preds, 1.0)
        cuts = compute_cuts(preds, n_bins)
        preds = place_ties(preds, cuts, rng)  # rows on every cut, minus and plus
        ds = make_dataset(preds, y, arm)
        config = GradConfig(n_bins=n_bins)
        got = effective_gradient(ds, preds, config, cuts=cuts)
        want = reference_whole_gather_gradient(ds, preds, config, cuts=cuts)
        for name in ("point_grad", "bins", "segments"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert (got.segments != Segment.MIDDLE).any()


class TestThreadCount:
    """Bins, segments, the key and the gather run on one range of rows per
    thread; every output is bit-identical whatever the count."""

    @pytest.mark.parametrize("n_bins", [10, 65])
    @pytest.mark.parametrize("n", SPLIT_ROWS)
    def test_outputs(self, per_thread_count, n, n_bins):
        rng = np.random.default_rng(n + n_bins)
        preds = rng.normal(size=n)
        arm = (rng.random(n) < 0.6).astype(np.int8)
        ds = make_dataset(preds, rng.normal(0.5 * arm + 0.3 * preds, 1.0), arm)
        cuts = compute_cuts(preds, n_bins)
        preds = place_ties(preds, cuts, rng)

        def run():
            eg = effective_gradient(ds, preds, GradConfig(n_bins=n_bins), cuts=cuts)
            return [a.tobytes() for a in (eg.point_grad, eg.bins, eg.segments, eg.stats.count,
                                          eg.stats.mean_y, eg.stats.mean_pred)]

        results = per_thread_count(run)
        assert results[1:] == results[:1] * 2

    def test_more_threads_than_cpus_switching_often(self, monkeypatch):
        # four threads on any machine, handing the interpreter over every microsecond:
        # a row written twice or left unwritten would change the bytes
        n = 4 * _threads.MIN_SPLIT_ROWS + 3
        rng = np.random.default_rng(1)
        preds = rng.normal(size=n)
        arm = (rng.random(n) < 0.6).astype(np.int8)
        ds = make_dataset(preds, rng.normal(size=n), arm)
        config = GradConfig(n_bins=10)

        def run():
            eg = effective_gradient(ds, preds, config)
            return eg.point_grad.tobytes(), eg.segments.tobytes()

        monkeypatch.setattr(_threads, "usable_cpus", lambda: 1)
        expected = run()
        monkeypatch.setattr(_threads, "usable_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert all(run() == expected for _ in range(5))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_non_finite_gradient_in_a_workers_range(self, monkeypatch):
        # predictions rise with the row, so bins 9 and 10 lie in the last range;
        # one huge outcome in bin 10 leaves its lift finite but its squared
        # gaps, and so the migration rows of bins 9 and 10, beyond float64
        n = SPLIT_ROWS[-1]
        preds = np.linspace(0.0, 1.0, n)
        arm = np.arange(n) % 2
        y = np.random.default_rng(0).normal(size=n)
        y[-1] = 1e300
        ds = make_dataset(preds, y, arm)
        for count in THREAD_COUNTS:
            monkeypatch.setattr(_threads, "usable_cpus", lambda: count)
            assert row_ranges(n)[-1].start <= 0.8 * n * (count > 1)
            with pytest.raises(FloatingPointError,
                               match="^effective gradient produced non-finite values$"):
                effective_gradient(ds, preds, GradConfig(n_bins=10), cached_global_lift=0.0)


class TestDegeneratePredictions:
    """Tied or constant predictions, on fresh cuts or on cuts reused after the
    predictions moved: the gradient is finite and equals the per-row
    reference, or the call raises the error its docstring names."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_finite_and_matches_reference_or_documented_error(self, data):
        n = data.draw(st.integers(2, 400), label="rows")
        n_bins = data.draw(st.integers(2, 8), label="n_bins")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="above MAX_SORT"):
            n = int(rng.integers(MAX_SORT + 1, 150_001))
        distinct = data.draw(st.integers(1, 8), label="distinct predictions")
        preds = rng.integers(0, distinct, n) * 0.25 + data.draw(st.floats(-1, 1), label="offset")
        arm = (rng.random(n) < data.draw(st.floats(0.05, 0.95), label="treated share"))
        arm = arm.astype(np.int8)
        arm[:2] = (0, 1)
        ds = make_dataset(preds, rng.normal(0.5 * arm, 1.0), arm)
        config = GradConfig(n_bins=n_bins)
        gl = global_lift(ds) if data.draw(st.booleans(), label="cached lift") else None
        cuts = None
        sample = reference_cut_sample(preds)
        if data.draw(st.booleans(), label="reuse cuts of moved predictions"):
            sample = rng.normal(preds.mean(), 0.5, 50)
            cuts = compute_cuts(sample, n_bins)
        try:
            want_cuts = compute_cuts(preds, n_bins) if cuts is None else cuts
            ref, ref_segments = reference_effective_gradient(ds, preds, want_cuts, sample, gl, 0.5)
        except (DegeneratePredictionsError, EmptyArmInBinError) as err:
            if isinstance(err, EmptyArmInBinError) and n_bins == 2:
                # at 2 bins, fewer bins is no remedy
                err = EmptyArmInBinError(err.bin_index, 2, err.arm_name, FEWEST_BINS_ADVICE)
            with pytest.raises(type(err)) as got:
                effective_gradient(ds, preds, config, gl, cuts)
            assert str(got.value) == str(err)
            return
        result = effective_gradient(ds, preds, config, gl, cuts)
        report = true_lift_loss(result.stats)
        assert np.isfinite(result.point_grad).all() and np.isfinite(report.loss)
        np.testing.assert_array_equal(result.segments, ref_segments)
        assert np.abs(result.point_grad - ref).max() <= 1e-12 * np.abs(ref).max()


class TestRowPermutation:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_shuffled_rows_permute_bins_and_gradient(self, data):
        n_bins = data.draw(st.integers(2, 8), label="n_bins")
        n = data.draw(st.integers(200, 5000), label="rows")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        ties = data.draw(st.booleans(), label="rounded predictions")
        rng = np.random.default_rng(seed)
        ds = generate(DataGenConfig(n_rows=n, seed=seed))
        preds = ds.features @ rng.normal(size=2) + 0.1 * rng.normal(size=n)
        if ties:
            preds = np.round(preds, 2)
        perm = rng.permutation(n)
        config = GradConfig(n_bins=n_bins)
        try:
            eg = effective_gradient(ds, preds, config)
        except (EmptyArmInBinError, DegeneratePredictionsError) as err:
            with pytest.raises(type(err)) as got:
                effective_gradient(ds.take(perm), preds[perm], config)
            assert str(got.value) == str(err)
            return
        shuffled = effective_gradient(ds.take(perm), preds[perm], config)
        np.testing.assert_array_equal(shuffled.cuts.cuts, eg.cuts.cuts)
        np.testing.assert_array_equal(shuffled.inner.minus, eg.inner.minus)
        np.testing.assert_array_equal(shuffled.inner.plus, eg.inner.plus)
        np.testing.assert_array_equal(shuffled.bins, eg.bins[perm])
        np.testing.assert_array_equal(shuffled.segments, eg.segments[perm])
        scale = np.abs(eg.point_grad).max()
        assert np.abs(shuffled.point_grad - eg.point_grad[perm]).max() <= 1e-12 * scale
        report, shuffled_report = true_lift_loss(eg.stats), true_lift_loss(shuffled.stats)
        # the loss is a difference of two non-negative terms; bound it on their scale
        terms = max(report.bias_term, report.separation_term)
        assert abs(shuffled_report.loss - report.loss) <= 1e-12 * terms
