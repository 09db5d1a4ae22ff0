import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftloss import (
    BinningError,
    CutPoints,
    DegeneratePredictionsError,
    InnerCuts,
    Segment,
    assign_bins,
    assign_segments,
    compute_cuts,
    inner_cuts,
)

from reference_gradient import (
    reference_assign_segments,
    reference_compute_cuts,
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

    @pytest.mark.parametrize("n_bins", [2, 5, 20])
    def test_balanced_bins(self, n_bins):
        rng = np.random.default_rng(31)
        preds = rng.random(100 * n_bins)
        bins = assign_bins(preds, compute_cuts(preds, n_bins))
        sizes = np.bincount(bins - 1, minlength=n_bins)
        assert sizes.max() / sizes.min() <= 4

    def test_subsample_matches_full_sort(self):
        rng = np.random.default_rng(77)
        preds = rng.random(1_000_000)
        for n_bins in (5, 10):
            full = compute_cuts(preds, n_bins, max_sort=2_000_000)
            sub = compute_cuts(preds, n_bins, max_sort=10_000, seed=4)
            share_full = np.bincount(assign_bins(preds, full) - 1, minlength=n_bins) / preds.size
            share_sub = np.bincount(assign_bins(preds, sub) - 1, minlength=n_bins) / preds.size
            assert np.abs(share_full - share_sub).max() < 0.05 / n_bins

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 400),
        n_bins=st.integers(1, 40),
        distinct=st.one_of(st.none(), st.integers(1, 12)),
        max_sort=st.one_of(st.none(), st.integers(1, 400)),
        signed_zeros=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unique_and_unsorted_quantile_reference(
        self, n, n_bins, distinct, max_sort, signed_zeros, seed
    ):
        # cuts are bit-identical to the np.unique + unsorted np.quantile form,
        # with and without subsampling, and every error matches it too
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=n) if distinct is None else rng.integers(0, distinct, n) * 0.5
        if signed_zeros:
            preds[rng.random(n) < 0.2] = 0.0
            preds[rng.random(n) < 0.2] = -0.0
        kwargs = {"seed": seed} if max_sort is None else {"seed": seed, "max_sort": max_sort}
        before = preds.copy()
        try:
            expected = reference_compute_cuts(preds.copy(), n_bins, **kwargs)
        except BinningError as err:
            with pytest.raises(type(err)) as got:
                compute_cuts(preds, n_bins, **kwargs)
            assert str(got.value) == str(err)
        else:
            got = compute_cuts(preds, n_bins, **kwargs)
            assert got.n_bins == expected.n_bins
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
                    a, b = inner_cuts(got, preds), inner_cuts(expected, preds)
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

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(8)
        preds = rng.random(50_000)
        a = compute_cuts(preds, 7, max_sort=1000, seed=3)
        b = compute_cuts(preds, 7, max_sort=1000, seed=3)
        np.testing.assert_array_equal(a.cuts, b.cuts)


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
        inner = inner_cuts(CutPoints(np.array([0.0, 3.0]), 3), np.array([-1.0, 4.0]))
        # boundary 1's upper inner cut blends toward its neighbor at 3
        assert inner.plus[0] == pytest.approx(1.0)

    def test_edge_extrapolation_low(self):
        inner = inner_cuts(CutPoints(np.array([1.0, 2.0]), 3), np.array([0.0, 3.0]))
        assert inner.minus[0] == pytest.approx(2.0 / 3.0)

    def test_edge_extrapolation_high(self):
        # the top boundary mirrors the bottom rule, extending one third of the
        # last gap beyond the final cut
        inner = inner_cuts(CutPoints(np.array([1.0, 2.0]), 3), np.array([0.0, 3.0]))
        assert inner.plus[1] == pytest.approx(7.0 / 3.0)

    def test_single_boundary_uses_iqr(self):
        preds = np.arange(0.0, 1.01, 0.01)
        cuts = compute_cuts(preds, 2)
        inner = inner_cuts(cuts, preds)
        iqr = np.quantile(preds, 0.75) - np.quantile(preds, 0.25)
        assert cuts.cuts[0] - inner.minus[0] == pytest.approx(iqr / 6)
        assert inner.plus[0] - cuts.cuts[0] == pytest.approx(iqr / 6)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 3000),
        distinct=st.one_of(st.none(), st.integers(1, 6)),
        cut=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_boundary_matches_two_quantile_reference(self, n, distinct, cut, seed):
        # one np.quantile call for both quartiles gives the two-call IQR bit
        # for bit, ties and constant input included
        rng = np.random.default_rng(seed)
        preds = rng.normal(size=n) if distinct is None else rng.integers(0, distinct, n) * 0.25
        cuts = CutPoints(np.array([cut]), 2)
        try:
            want = reference_single_cut_inner_cuts(cuts, preds)
        except DegeneratePredictionsError as err:
            with pytest.raises(DegeneratePredictionsError, match=str(err)):
                inner_cuts(cuts, preds)
            return
        got = inner_cuts(cuts, preds)
        assert got.minus.tobytes() == want.minus.tobytes()
        assert got.plus.tobytes() == want.plus.tobytes()

    def test_no_boundaries(self):
        with pytest.raises(BinningError, match="no boundaries"):
            inner_cuts(CutPoints(np.empty(0), 1), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("n_bins", [3, 5, 9])
    def test_segments_ordered_and_disjoint(self, n_bins):
        rng = np.random.default_rng(n_bins)
        preds = np.sort(rng.random(2000)) ** 2  # uneven spacing
        cuts = compute_cuts(preds, n_bins)
        inner = inner_cuts(cuts, preds)
        assert ((inner.minus < cuts.cuts) & (cuts.cuts < inner.plus)).all()
        assert (inner.minus[1:] > inner.plus[:-1]).all()


class TestAssignSegments:
    def test_bottom_segment(self):
        # bin 2's lower region sits between the cut at 0 and the inner cut at 1
        cuts = CutPoints(np.array([0.0, 3.0]), 3)
        p = np.array([0.5])
        inner = inner_cuts(cuts, p)
        seg = assign_segments(p, cuts, inner, assign_bins(p, cuts))
        assert seg[0] == Segment.BOTTOM

    def test_deep_interior_is_middle(self):
        cuts = CutPoints(np.array([0.0, 3.0]), 3)
        p = np.array([1.5])  # between plus[0]=1 and minus[1]=2
        inner = inner_cuts(cuts, p)
        seg = assign_segments(p, cuts, inner, assign_bins(p, cuts))
        assert seg[0] == Segment.MIDDLE

    def test_tie_at_cut_is_top_of_lower_bin(self):
        cuts = CutPoints(np.array([0.0, 3.0]), 3)
        p = np.array([0.0])
        bins = assign_bins(p, cuts)
        seg = assign_segments(p, cuts, inner_cuts(cuts, p), bins)
        assert bins[0] == 1
        assert seg[0] == Segment.TOP

    def test_edge_bins_lack_outward_segments(self):
        rng = np.random.default_rng(5)
        preds = rng.random(5000)
        n_bins = 5
        cuts = compute_cuts(preds, n_bins)
        inner = inner_cuts(cuts, preds)
        bins = assign_bins(preds, cuts)
        seg = assign_segments(preds, cuts, inner, bins=bins)
        assert not ((bins == 1) & (seg == Segment.BOTTOM)).any()
        assert not ((bins == n_bins) & (seg == Segment.TOP)).any()

    def test_monotone_in_prediction(self):
        # sorting by prediction sorts by (bin, segment rank)
        rng = np.random.default_rng(17)
        preds = rng.normal(size=4000)
        cuts = compute_cuts(preds, 7)
        inner = inner_cuts(cuts, preds)
        bins = assign_bins(preds, cuts)
        seg = assign_segments(preds, cuts, inner, bins=bins)
        order = np.argsort(preds, kind="stable")
        keys = bins[order] * 10 + seg[order]
        assert (np.diff(keys) >= 0).all()

    def test_top_rows_satisfy_bounds(self):
        rng = np.random.default_rng(23)
        preds = rng.random(3000)
        cuts = compute_cuts(preds, 4)
        inner = inner_cuts(cuts, preds)
        bins = assign_bins(preds, cuts)
        seg = assign_segments(preds, cuts, inner, bins=bins)
        top = seg == Segment.TOP
        assert (preds[top] > inner.minus[bins[top] - 1]).all()
        assert (preds[top] <= cuts.cuts[bins[top] - 1]).all()

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
                inner = inner_cuts(cuts, preds)
            ties = np.concatenate([cuts.cuts, inner.minus, inner.plus, [-1e9, 1e9]])
            preds[rng.choice(preds.size, ties.size, replace=False)] = ties
        bins = assign_bins(preds, cuts)
        expected = reference_assign_segments(preds, cuts, inner, bins)
        seg = assign_segments(preds, cuts, inner, bins)
        np.testing.assert_array_equal(seg, expected)
        assert seg.dtype == expected.dtype
