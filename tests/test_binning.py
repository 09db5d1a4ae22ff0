import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftloss import (
    BinningError,
    CutPoints,
    DataGenConfig,
    DegeneratePredictionsError,
    GradConfig,
    Segment,
    assign_bins,
    assign_segments,
    compute_cuts,
    effective_gradient,
    generate,
    inner_cuts,
)
from liftloss.binning import BIN_BLOCK_ROWS, COUNT_MAX_BINS, MAX_SORT, InnerCuts, _subsample_rows

from reference_gradient import (
    reference_assign_bins,
    reference_assign_segments,
    reference_compute_cuts,
    reference_cut_sample,
    reference_fancy_assign_segments,
    reference_single_cut_inner_cuts,
)


class TestComputeCuts:
    def test_even_quantiles(self):
        # brute-force oracle: with 8 sorted points and 4 bins, each cut is the
        # midpoint of the order statistics flanking the quarter boundaries
        cuts = compute_cuts(np.array([1.0, 2, 3, 4, 5, 6, 7, 8]), 4)
        np.testing.assert_allclose(cuts.cuts, [2.5, 4.5, 6.5])

    def test_single_bin(self):
        cuts = compute_cuts(np.array([3.0, 3.0, 3.0]), 1)
        assert cuts.n_bins == 1 and cuts.cuts.size == 0

    def test_degenerate_constant(self):
        with pytest.raises(DegeneratePredictionsError):
            compute_cuts(np.array([2.0, 2.0, 2.0]), 2)

    def test_degenerate_too_many_bins(self):
        with pytest.raises(DegeneratePredictionsError):
            compute_cuts(np.array([1.0, 2.0, 3.0]), 4)

    def test_rejects_non_finite(self):
        with pytest.raises(BinningError):
            compute_cuts(np.array([1.0, np.nan]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rows", [40, MAX_SORT + 17])
    @pytest.mark.parametrize("n_bins", [1, 2, 5])
    def test_rejects_non_finite_value_it_sorts(self, bad, rows, n_bins):
        # a sorted value anywhere: NaN sorts last and the infinities to the ends
        preds = np.random.default_rng(rows).normal(size=rows)
        at = 3 if rows <= MAX_SORT else _subsample_rows(rows)[3]
        preds[at] = bad
        with pytest.raises(BinningError, match="^predictions contain non-finite values$"):
            compute_cuts(preds, n_bins)

    def test_non_finite_row_outside_the_sample_is_left_to_assign_bins(self):
        rng = np.random.default_rng(23)
        n = int(rng.integers(MAX_SORT + 1, 150_001))
        ds = generate(DataGenConfig(n_rows=n, seed=23))
        preds = ds.features @ np.array([0.4, -0.3]) + 0.1
        want = compute_cuts(preds, 5)
        unread = np.ones(n, dtype=bool)
        unread[_subsample_rows(n)] = False
        preds[np.flatnonzero(unread)[rng.integers(n - MAX_SORT)]] = np.nan
        got = compute_cuts(preds, 5)
        assert got.cuts.tobytes() == want.cuts.tobytes() and got.spread == want.spread
        with pytest.raises(BinningError, match="^predictions contain non-finite values$"):
            effective_gradient(ds, preds, GradConfig(n_bins=5))

    @pytest.mark.parametrize("n_bins", [2, 5, 20])
    def test_balanced_bins(self, n_bins):
        rng = np.random.default_rng(31)
        preds = rng.random(100 * n_bins)
        bins = assign_bins(preds, compute_cuts(preds, n_bins))
        sizes = np.bincount(bins - 1, minlength=n_bins)
        assert sizes.max() / sizes.min() <= 4

    def test_subsample_matches_full_sort(self):
        rng = np.random.default_rng(77)
        preds = rng.random(rng.integers(MAX_SORT + 1, 150_001))
        for n_bins in (5, 10):
            full = reference_compute_cuts(preds, n_bins, max_sort=preds.size)
            sub = compute_cuts(preds, n_bins)
            share_full = np.bincount(assign_bins(preds, full) - 1, minlength=n_bins) / preds.size
            share_sub = np.bincount(assign_bins(preds, sub) - 1, minlength=n_bins) / preds.size
            assert np.abs(share_full - share_sub).max() < 0.05 / n_bins

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 400),
        n_bins=st.integers(1, 40),
        distinct=st.one_of(st.none(), st.integers(1, 12)),
        subsampled=st.booleans(),
        signed_zeros=st.booleans(),
        whole_index=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unique_and_unsorted_quantile_reference(
        self, n, n_bins, distinct, subsampled, signed_zeros, whole_index, seed
    ):
        # cuts are bit-identical to the np.unique-count edge reference, with
        # and without subsampling, and so is the spread of the quartiles read
        # with them; every error matches the reference too; with whole_index
        # the sample size m has (m - 1) * k / n_bins integral, so every cut's
        # quantile position is a row and two edges are equally near
        rng = np.random.default_rng(seed)
        if subsampled:
            n = int(rng.integers(MAX_SORT + 1, 150_001))
            if whole_index:  # MAX_SORT - 1 = 3 * 3 * 41 * 271
                n_bins = (1, 3, 9)[n_bins % 3]
        elif whole_index:
            n = n_bins * (n // n_bins + 1) + 1
        preds = rng.normal(size=n) if distinct is None else rng.integers(0, distinct, n) * 0.5
        if signed_zeros:
            preds[rng.random(n) < 0.2] = 0.0
            preds[rng.random(n) < 0.2] = -0.0
        before = preds.copy()
        try:
            expected = reference_compute_cuts(preds.copy(), n_bins)
        except BinningError as err:
            with pytest.raises(type(err)) as got:
                compute_cuts(preds, n_bins)
            assert str(got.value) == str(err)
        else:
            got = compute_cuts(preds, n_bins)
            assert got.n_bins == expected.n_bins
            # the spread is never 0, so its sign cannot hide from ==
            assert got.spread == expected.spread
            if not signed_zeros:
                assert got.cuts.tobytes() == expected.cuts.tobytes()
            else:
                # a cut between 0.0 and -0.0 takes its sign from the order in
                # which the sort or the partition leaves tied zeros; either
                # sign compares equal, so bins and segment bounds are the same
                np.testing.assert_array_equal(got.cuts, expected.cuts)
                np.testing.assert_array_equal(
                    assign_bins(preds, got), assign_bins(preds, expected)
                )
                if n_bins > 1:
                    a, b = inner_cuts(got), inner_cuts(expected)
                    assert a.minus.tobytes() == b.minus.tobytes()
                    assert a.plus.tobytes() == b.plus.tobytes()
        assert preds.tobytes() == before.tobytes()

    @pytest.mark.parametrize("preds,n_bins", [
        ([2.0] * 7, 2),
        ([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 3),  # untied quantiles 0 and 1, only 2 values
        ([-0.0, 0.0, 1.0], 3),  # -0.0 and 0.0 are one value
    ])
    def test_too_few_distinct_values_raises_like_reference(self, preds, n_bins):
        preds = np.array(preds)
        with pytest.raises(DegeneratePredictionsError) as expected:
            reference_compute_cuts(preds, n_bins)
        with pytest.raises(DegeneratePredictionsError) as got:
            compute_cuts(preds, n_bins)
        assert "distinct values" in str(got.value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("values,n_bins,subsampled", [
        (2, 5, False), (4, 5, True), (9, 10, True),
    ])
    def test_error_counts_the_cut_sample_distinct_values(self, values, n_bins, subsampled):
        # one extra value, placed in a row outside the cut sample when there is one
        n = MAX_SORT + 500 if subsampled else 400
        preds = np.arange(n) % values * 0.5
        outside = np.setdiff1d(np.arange(n), reference_cut_sample(np.arange(n)))
        preds[outside[0] if subsampled else 0] = values * 0.5
        with pytest.raises(DegeneratePredictionsError) as expected:
            reference_compute_cuts(preds, n_bins)
        with pytest.raises(DegeneratePredictionsError) as got:
            compute_cuts(preds, n_bins)
        assert got.value.distinct == expected.value.distinct == values + (not subsampled)

    @pytest.mark.parametrize("values,counts,n_bins,want_cuts,want_sizes", [
        # the midpoint median was 1.0, so every row fell in bin 1
        pytest.param([0.0, 1.0], [179, 221], 2, [0.5], [179, 221], id="179-221"),
        # the midpoint quantiles were [1, 3], leaving bin 3 empty
        pytest.param([0.0, 1.0, 2.0, 3.0], [3, 5, 5, 8], 3, [1.5, 2.5], [8, 5, 8], id="3-5-5-8"),
        # both quantiles fell in the run of zeros, which raised "tied quantiles"
        pytest.param([0.0, 1.0, 2.0], [90, 5, 5], 3, [0.5, 1.5], [90, 5, 5], id="90-5-5"),
    ])
    def test_tied_data_fills_every_bin(self, values, counts, n_bins, want_cuts, want_sizes):
        preds = np.random.default_rng(4).permutation(np.repeat(values, counts))
        cuts = compute_cuts(preds, n_bins)
        assert cuts.cuts.tolist() == want_cuts
        assert np.bincount(assign_bins(preds, cuts) - 1).tolist() == want_sizes

    def test_values_one_ulp_apart_keep_their_bins(self):
        # the midpoint of 1 + 2u and 1 + 4u rounds to 1 + 4u (u = 2**-53), which would put
        # that value in the middle bin and leave the top bin empty
        preds = np.array([1.0, 1.0 + 2**-52, 1.0 + 2**-51])
        cuts = compute_cuts(preds, 3)
        assert cuts.cuts.tolist() == [1.0, 1.0 + 2**-52]
        assert assign_bins(preds, cuts).tolist() == [1, 2, 3]

    @pytest.mark.parametrize("rows,n_bins", [(1000, 10), (5000, 7), (20_001, 7), (150_000, 10)])
    def test_untied_cuts_equal_midpoint_quantiles(self, rows, n_bins):
        # with distinct predictions and no whole rank, every midpoint quantile
        # falls between two distinct values, so it is the cut, bit for bit
        preds = np.random.default_rng(rows).normal(size=rows)
        sample = reference_cut_sample(preds)
        assert np.unique(sample).size == sample.size
        assert all((sample.size - 1) * k % n_bins for k in range(1, n_bins))
        want = np.quantile(sample, np.arange(1, n_bins) / n_bins, method="midpoint")
        assert compute_cuts(preds, n_bins).cuts.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        distinct=st.integers(1, 8),
        n_bins=st.integers(2, 10),
        rows=st.one_of(st.integers(1, 60), st.integers(MAX_SORT + 1, 120_000)),
        skew=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_bin_filled_unless_too_few_distinct_values(
        self, distinct, n_bins, rows, skew, seed
    ):
        # integer-valued predictions with skewed shares, so ties and whole
        # ranks are common; the contract needs no reference cut rule
        rng = np.random.default_rng(seed)
        shares = np.exp(skew * rng.standard_normal(distinct))
        preds = rng.choice(distinct, size=rows, p=shares / shares.sum()).astype(np.float64)
        sample = reference_cut_sample(preds)
        values = np.unique(sample)
        if values.size < n_bins:
            with pytest.raises(DegeneratePredictionsError) as got:
                compute_cuts(preds, n_bins)
            assert got.value.distinct == values.size
            return
        cuts = compute_cuts(preds, n_bins).cuts
        assert (np.diff(cuts) > 0).all()
        above = np.searchsorted(values, cuts)
        a, b = values[above - 1], values[above]
        assert (a < cuts).all() and (cuts == b - (b - a) * 0.5).all()
        sizes = np.bincount(assign_bins(sample, CutPoints(cuts, n_bins)) - 1, minlength=n_bins)
        assert sizes.min() > 0

    def test_subsample_deterministic(self):
        # the cuts depend only on the predictions and the bin count, not on
        # the draw that happens to be cached
        rng = np.random.default_rng(8)
        preds = rng.random(rng.integers(MAX_SORT + 1, 150_001))
        a = compute_cuts(preds, 7)
        _subsample_rows.cache_clear()
        b = compute_cuts(preds.copy(), 7)
        assert a.cuts.tobytes() == b.cuts.tobytes() and a.spread == b.spread

    def test_memoized_draw_is_read_only(self):
        rows = _subsample_rows(int(np.random.default_rng(11).integers(MAX_SORT + 1, 150_001)))
        assert rows.shape == (MAX_SORT,) and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0] = 0

    def test_cached_draw_gives_the_fresh_draws_cuts(self):
        rng = np.random.default_rng(9)
        preds = rng.normal(size=rng.integers(MAX_SORT + 1, 150_001))
        compute_cuts(preds, 6)
        hits = _subsample_rows.cache_info().hits
        got = compute_cuts(preds, 6)
        assert _subsample_rows.cache_info().hits == hits + 1
        # 6 bins is a whole rank above MAX_SORT: (MAX_SORT - 1) * 2 / 6 is integral
        fresh = np.random.default_rng(0).choice(preds.size, size=MAX_SORT, replace=False)
        want = reference_compute_cuts(preds[fresh], 6)
        assert got.cuts.tobytes() == want.cuts.tobytes()

    def test_another_row_count_is_not_served_from_cache(self):
        n = int(np.random.default_rng(12).integers(MAX_SORT + 1, 150_000))
        _subsample_rows(n)
        misses = _subsample_rows.cache_info().misses
        rows = _subsample_rows(n + 1)
        assert _subsample_rows.cache_info().misses == misses + 1
        want = np.random.default_rng(0).choice(n + 1, size=MAX_SORT, replace=False)
        assert rows.tobytes() == want.tobytes()


class TestAssignBins:
    def test_below_first_cut(self):
        assert assign_bins(np.array([0.1]), CutPoints(np.array([0.5]), 2))[0] == 1

    def test_above_last_cut(self):
        assert assign_bins(np.array([0.9]), CutPoints(np.array([0.5]), 2))[0] == 2

    def test_tie_goes_to_lower_bin(self):
        assert assign_bins(np.array([0.5]), CutPoints(np.array([0.5]), 2))[0] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        preds=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40),
        cut_values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=6,
                            unique=True),
    )
    def test_matches_brute_force_count(self, preds, cut_values):
        cuts = CutPoints(np.sort(np.asarray(cut_values)), len(cut_values) + 1)
        bins = assign_bins(np.asarray(preds), cuts)
        for p, b in zip(preds, bins):
            assert b == 1 + sum(1 for c in cuts.cuts if c < p)

    @settings(max_examples=150, deadline=None)
    @given(
        n_bins=st.integers(2, 130),
        data=st.data(),
    )
    def test_count_and_search_paths_match_brute_force(self, n_bins, data):
        # both paths (counting up to 64 bins, searchsorted above) give
        # 1 + #(cuts < p), with rows exactly on cuts, their float neighbours
        # and signed zeros
        cut_values = data.draw(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n_bins - 1,
                     max_size=n_bins - 1, unique=True),
            label="cuts",
        )
        zero = data.draw(st.sampled_from([None, 0.0, -0.0]), label="zero cut")
        if zero is not None and 0.0 not in cut_values:
            cut_values[0] = zero
        c = np.sort(np.asarray(cut_values))
        cuts = CutPoints(c, n_bins)
        extra = data.draw(st.lists(st.floats(-2e6, 2e6, allow_nan=False), max_size=30),
                          label="preds")
        preds = np.concatenate([
            c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf),
            [0.0, -0.0, c[0] - 1.0, c[-1] + 1.0], extra,
        ])
        preds = data.draw(st.permutations(preds.tolist()), label="order")
        preds = np.asarray(preds)
        bins = assign_bins(preds, cuts)
        assert bins.dtype == np.intp
        np.testing.assert_array_equal(bins, 1 + (c[None, :] < preds[:, None]).sum(axis=1))
        np.testing.assert_array_equal(bins, np.searchsorted(c, preds, side="left") + 1)

    @pytest.mark.parametrize("n_bins", [63, 64, 65, 127, 128, 129, 200])
    def test_paths_agree_at_switch_and_int8_limit(self, n_bins):
        rng = np.random.default_rng(n_bins)
        c = np.sort(rng.choice(np.arange(-500, 500) * 0.25, n_bins - 1, replace=False))
        preds = np.concatenate([c, np.nextafter(c, np.inf), rng.normal(0, 60, 5000),
                                [c[-1] + 1.0, 1e300, -1e300]])
        bins = assign_bins(preds, CutPoints(c, n_bins))
        assert bins.dtype == np.intp
        assert bins.max() == n_bins and bins.min() == 1
        np.testing.assert_array_equal(bins, np.searchsorted(c, preds, side="left") + 1)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([1, 7, BIN_BLOCK_ROWS - 1, BIN_BLOCK_ROWS, BIN_BLOCK_ROWS + 1,
                              2 * BIN_BLOCK_ROWS + 1]),
        # both sides of the count path's limit, each drawn as often
        n_bins=st.one_of(st.integers(1, COUNT_MAX_BINS), st.integers(COUNT_MAX_BINS + 1, 200)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_blocks_match_whole_vector_count_reference(self, rows, n_bins, seed):
        # row counts around the block size, rows exactly on every cut, minus
        # and plus, and bin counts up to 200: bins and segments are
        # byte-identical to the comparison-table count and the fancy-index
        # gather, dtypes included
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=rows)
        cuts = CutPoints(np.sort(rng.choice(np.arange(-400, 400) * 0.01, n_bins - 1,
                                            replace=False)), n_bins)
        inner = InnerCuts(np.empty(0), np.empty(0))
        if n_bins > 1:
            # widths up to five cut gaps, so neighboring segments may overlap
            inner = InnerCuts(cuts.cuts - rng.uniform(1e-3, 0.05, n_bins - 1),
                              cuts.cuts + rng.uniform(1e-3, 0.05, n_bins - 1))
            ties = np.concatenate([cuts.cuts, inner.minus, inner.plus])
            preds[rng.choice(rows, min(rows, ties.size), replace=False)] = ties[:rows]
        bins = assign_bins(preds, cuts)
        want = reference_assign_bins(preds, cuts)
        assert bins.dtype == want.dtype == np.intp
        assert bins.tobytes() == want.tobytes()
        seg = assign_segments(preds, inner, bins)
        want = reference_fancy_assign_segments(preds, inner, bins)
        assert seg.dtype == want.dtype == np.int8
        assert seg.tobytes() == want.tobytes()

    def test_partition(self):
        rng = np.random.default_rng(1)
        preds = rng.random(3000)
        n_bins = 6
        bins = assign_bins(preds, compute_cuts(preds, n_bins))
        counts = np.bincount(bins - 1, minlength=n_bins)
        assert counts.sum() == preds.size and (counts > 0).all()
        assert bins.min() >= 1 and bins.max() <= n_bins


class TestInnerCuts:
    def test_interior_blend(self):
        inner = inner_cuts(CutPoints(np.array([0.0, 3.0]), 3))
        # boundary 1's upper inner cut blends toward its neighbor at 3
        assert inner.plus[0] == pytest.approx(1.0)

    def test_edge_extrapolation_low(self):
        inner = inner_cuts(CutPoints(np.array([1.0, 2.0]), 3))
        assert inner.minus[0] == pytest.approx(2.0 / 3.0)

    def test_edge_extrapolation_high(self):
        # the top boundary mirrors the bottom rule, extending one third of the
        # last gap beyond the final cut
        inner = inner_cuts(CutPoints(np.array([1.0, 2.0]), 3))
        assert inner.plus[1] == pytest.approx(7.0 / 3.0)

    @pytest.mark.parametrize("cuts", [
        CutPoints(np.array([1e12, np.nextafter(1e12, np.inf)]), 3),  # the blends round onto a cut
        CutPoints(np.array([1e12]), 2, spread=1e-6),  # a sixth of the spread is below an ulp
    ], ids=["adjacent-cuts", "narrow-spread"])
    def test_segments_collapsed_in_float64_are_degenerate(self, cuts):
        # distinct cuts, but no float64 value between a cut and its boundary
        with pytest.raises(DegeneratePredictionsError) as err:
            inner_cuts(cuts)
        assert str(err.value) == (
            f"cuts too close for float64 to place segments between {cuts.n_bins} bins")
        assert err.value.distinct == cuts.n_bins

    def test_single_boundary_uses_iqr(self):
        preds = np.arange(0.0, 1.01, 0.01)
        cuts = compute_cuts(preds, 2)
        inner = inner_cuts(cuts)
        iqr = np.quantile(preds, 0.75) - np.quantile(preds, 0.25)
        assert cuts.cuts[0] - inner.minus[0] == pytest.approx(iqr / 6)
        assert inner.plus[0] - cuts.cuts[0] == pytest.approx(iqr / 6)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 3000),
        kind=st.sampled_from(["normal", "few values", "tied quartiles", "jitter"]),
        distinct=st.integers(1, 6),
        scale=st.sampled_from([1.0, 1e300, -1e300, 1e-300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_boundary_matches_two_quantile_reference(
        self, n, kind, distinct, scale, seed
    ):
        # the quartiles compute_cuts reads from its sorted sample give the
        # two-call IQR bit for bit, and the range where the quartiles tie;
        # only constant input cannot be cut
        rng = np.random.default_rng(seed)
        if kind == "normal":
            preds = rng.normal(size=n)
        elif kind == "few values":
            preds = rng.integers(0, distinct, n) * 0.25
        elif kind == "jitter":
            preds = 1.0 + 1e-12 * rng.normal(size=n)
        else:
            # a fifth of the rows off one shared value, at most a quarter on
            # either side of it, so both quartiles read that value
            preds = np.zeros(n)
            off = rng.choice(n, (n - 1) // 5, replace=False)
            preds[off] = rng.normal(size=off.size)
        preds = preds * scale
        if np.unique(preds).size < 2:
            with pytest.raises(DegeneratePredictionsError, match="distinct values"):
                compute_cuts(preds, 2)
            return
        if kind == "tied quartiles":
            assert np.quantile(preds, 0.25) == np.quantile(preds, 0.75)
        cuts = compute_cuts(preds, 2)
        got = inner_cuts(cuts)
        want = reference_single_cut_inner_cuts(cuts, preds)
        assert got.minus.tobytes() == want.minus.tobytes()
        assert got.plus.tobytes() == want.plus.tobytes()

    @pytest.mark.parametrize("tied", [False, True], ids=["normal", "tied quartiles"])
    def test_single_boundary_above_max_sort_reads_the_subsample(self, tied):
        # above MAX_SORT the width is the subsample's, exactly as np.quantile
        # reads it from the rows a fresh seeded draw picks
        rng = np.random.default_rng(41)
        n = rng.integers(MAX_SORT + 1, 150_001)
        preds = rng.normal(size=n)
        if tied:
            preds[rng.random(n) < 0.8] = 0.5
        cuts = compute_cuts(preds, 2)
        sample = reference_cut_sample(preds)
        assert sample.size == MAX_SORT
        q1, q3 = np.quantile(sample, [0.25, 0.75])
        assert (q1 == q3) == tied
        assert cuts.spread == (np.ptp(sample) if tied else q3 - q1)
        got = inner_cuts(cuts)
        want = reference_single_cut_inner_cuts(cuts, sample)
        assert got.minus.tobytes() == want.minus.tobytes()
        assert got.plus.tobytes() == want.plus.tobytes()

    def test_hand_built_single_cut_needs_a_spread(self):
        with pytest.raises(BinningError, match="spread"):
            inner_cuts(CutPoints(np.array([0.5]), 2))
        inner = inner_cuts(CutPoints(np.array([0.5]), 2, spread=0.6))
        np.testing.assert_allclose([inner.minus[0], inner.plus[0]], [0.4, 0.6])

    @pytest.mark.parametrize("spread", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_spread_not_finite_and_positive(self, spread):
        with pytest.raises(BinningError, match="spread must be finite and positive"):
            CutPoints(np.array([0.5]), 2, spread=spread)

    def test_no_boundaries(self):
        with pytest.raises(BinningError, match="no boundaries"):
            inner_cuts(CutPoints(np.empty(0), 1))

    @pytest.mark.parametrize("n_bins", [3, 5, 9])
    def test_segments_ordered_and_disjoint(self, n_bins):
        rng = np.random.default_rng(n_bins)
        preds = np.sort(rng.random(2000)) ** 2  # uneven spacing
        cuts = compute_cuts(preds, n_bins)
        inner = inner_cuts(cuts)
        assert ((inner.minus < cuts.cuts) & (cuts.cuts < inner.plus)).all()
        assert (inner.minus[1:] > inner.plus[:-1]).all()


class TestAssignSegments:
    def test_bottom_segment(self):
        # bin 2's lower region sits between the cut at 0 and the inner cut at 1
        cuts = CutPoints(np.array([0.0, 3.0]), 3)
        p = np.array([0.5])
        inner = inner_cuts(cuts)
        seg = assign_segments(p, inner, assign_bins(p, cuts))
        assert seg[0] == Segment.BOTTOM

    def test_deep_interior_is_middle(self):
        cuts = CutPoints(np.array([0.0, 3.0]), 3)
        p = np.array([1.5])  # between plus[0]=1 and minus[1]=2
        inner = inner_cuts(cuts)
        seg = assign_segments(p, inner, assign_bins(p, cuts))
        assert seg[0] == Segment.MIDDLE

    def test_tie_at_cut_is_top_of_lower_bin(self):
        cuts = CutPoints(np.array([0.0, 3.0]), 3)
        p = np.array([0.0])
        bins = assign_bins(p, cuts)
        seg = assign_segments(p, inner_cuts(cuts), bins)
        assert bins[0] == 1
        assert seg[0] == Segment.TOP

    def test_edge_bins_lack_outward_segments(self):
        rng = np.random.default_rng(5)
        preds = rng.random(5000)
        n_bins = 5
        cuts = compute_cuts(preds, n_bins)
        inner = inner_cuts(cuts)
        bins = assign_bins(preds, cuts)
        seg = assign_segments(preds, inner, bins)
        assert not ((bins == 1) & (seg == Segment.BOTTOM)).any()
        assert not ((bins == n_bins) & (seg == Segment.TOP)).any()

    def test_monotone_in_prediction(self):
        # sorting by prediction sorts by (bin, segment rank)
        rng = np.random.default_rng(17)
        preds = rng.normal(size=4000)
        cuts = compute_cuts(preds, 7)
        inner = inner_cuts(cuts)
        bins = assign_bins(preds, cuts)
        seg = assign_segments(preds, inner, bins)
        order = np.argsort(preds, kind="stable")
        keys = bins[order] * 10 + seg[order]
        assert (np.diff(keys) >= 0).all()

    def test_top_rows_satisfy_bounds(self):
        rng = np.random.default_rng(23)
        preds = rng.random(3000)
        cuts = compute_cuts(preds, 4)
        inner = inner_cuts(cuts)
        bins = assign_bins(preds, cuts)
        seg = assign_segments(preds, inner, bins)
        top = seg == Segment.TOP
        assert (preds[top] > inner.minus[bins[top] - 1]).all()
        assert (preds[top] <= cuts.cuts[bins[top] - 1]).all()

    @pytest.mark.parametrize("bins", [np.array([3]), np.full(13, 2), np.full((12, 1), 2)],
                             ids=["one", "longer", "2-d"])
    def test_bins_of_another_shape_raise(self, bins):
        # a length-1 bins array would otherwise broadcast over all 12 rows
        p = np.linspace(0.0, 1.0, 12)
        cuts = compute_cuts(p, 4)
        with pytest.raises(ValueError, match="bins shape"):
            assign_segments(p, inner_cuts(cuts), bins)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_threshold_gathers_match_mask_reference(self, data):
        # cuts reused from shifted predictions, segment widths that may overlap
        # a neighbor's (top must win), rows placed exactly on every cut, minus
        # and plus, and rows far outside the first and last bins; one bin with
        # no inner cuts leaves every row middle
        n_bins = data.draw(st.integers(1, 12), label="n_bins")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        preds = rng.normal(size=data.draw(st.integers(50, 3000), label="rows"))
        cuts = compute_cuts(preds + data.draw(st.floats(-0.5, 0.5), label="cut shift"), n_bins)
        inner = InnerCuts(np.empty(0), np.empty(0))
        if n_bins > 1:
            if data.draw(st.booleans(), label="random widths"):
                spread = np.ptp(preds)
                inner = InnerCuts(
                    cuts.cuts - rng.uniform(0.01, 0.5, n_bins - 1) * spread,
                    cuts.cuts + rng.uniform(0.01, 0.5, n_bins - 1) * spread,
                )
            else:
                inner = inner_cuts(cuts)
            ties = np.concatenate([cuts.cuts, inner.minus, inner.plus, [-1e9, 1e9]])
            preds[rng.choice(preds.size, ties.size, replace=False)] = ties
        bins = assign_bins(preds, cuts)
        expected = reference_assign_segments(preds, cuts, inner, bins)
        seg = assign_segments(preds, inner, bins)
        np.testing.assert_array_equal(seg, expected)
        assert seg.dtype == expected.dtype

    @pytest.mark.parametrize("bad", [0, -1, 5])
    def test_bins_outside_the_range_raise(self, bad):
        p = np.linspace(0.0, 1.0, 12)
        cuts = compute_cuts(p, 4)
        bins = assign_bins(p, cuts)
        bins[7] = bad
        with pytest.raises(BinningError, match=r"bin index out of range 1\.\.4"):
            assign_segments(p, inner_cuts(cuts), bins)
