import codecs

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from liftloss import (
    ABDataset,
    CsvFormatError,
    DataGenConfig,
    GradConfig,
    ModelKind,
    ModelSpec,
    NoiseDistribution,
    assign_bins,
    compute_cuts,
    effective_gradient,
    generate,
    load_csv,
    predict,
    save_csv,
    subset_stats,
)
from liftloss.binning import MAX_SORT, _subsample_rows

from dataset_helpers import make_dataset


class TestDatasetInvariants:
    def test_requires_both_arms(self):
        with pytest.raises(ValueError, match="no control rows"):
            make_dataset([1.0, 2.0], [0.1, 0.2], [1, 1])
        with pytest.raises(ValueError, match="no treatment rows"):
            make_dataset([1.0, 2.0], [0.1, 0.2], [0, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_dataset([1.0, np.inf], [0.1, 0.2], [1, 0])
        with pytest.raises(ValueError, match="non-finite"):
            make_dataset([1.0, 2.0], [np.nan, 0.2], [1, 0])

    def test_rejects_bad_arm(self):
        with pytest.raises(ValueError, match="arm values"):
            make_dataset([1.0, 2.0], [0.1, 0.2], [1, 2])

    @pytest.mark.parametrize("arm", [[0.5, 1.0, 0.0], [257, 1, 0], [-255, 1, 0]])
    def test_rejects_arms_an_int8_cast_would_rewrite(self, arm):
        # as int8 these read [0, 1, 0] and [1, 1, 0]
        with pytest.raises(ValueError, match="arm values"):
            make_dataset([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], arm)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepts_arm_iff_every_value_is_0_or_1(self, data):
        dtype = data.draw(st.sampled_from(
            [np.bool_, np.int8, np.int16, np.int64, np.uint8, np.uint64,
             np.float16, np.float32, np.float64]
        ))
        elements = st.one_of(st.sampled_from([0, 1]), hnp.from_dtype(np.dtype(dtype)))
        arm = data.draw(hnp.arrays(dtype, st.integers(2, 8), elements=elements))
        values = arm.tolist()
        n = len(values)
        if not all(v in (0, 1) for v in values):
            with pytest.raises(ValueError, match="arm values must be 0"):
                make_dataset(np.zeros(n), np.zeros(n), arm)
        elif 0 < sum(values) < n:
            ds = make_dataset(np.zeros(n), np.zeros(n), arm)
            assert ds.arm.dtype == np.int8 and ds.arm.tolist() == [int(v) for v in values]
        else:
            with pytest.raises(ValueError, match="no (treatment|control) rows"):
                make_dataset(np.zeros(n), np.zeros(n), arm)

    def test_counts(self):
        ds = make_dataset([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [1, 0, 1], [0.5, 0.0, 0.5])
        assert (len(ds), ds.n_treatment) == (3, 2)

    def test_every_route_gives_column_major_features(self, tmp_path):
        # one layout whatever the source, so a model sees the same bytes either way
        generated = generate(DataGenConfig(n_rows=200, seed=6))
        path = tmp_path / "d.csv"
        save_csv(generated, path)
        row_major = np.ascontiguousarray(generated.features)
        routes = {
            "generate": generated,
            "load_csv": load_csv(path),
            "constructor": ABDataset(row_major, generated.outcome, generated.arm),
            "take": generated.take(np.arange(150, 10, -3)),
        }
        for name, ds in routes.items():
            assert ds.features.flags.f_contiguous and not ds.features.flags.c_contiguous, name

    def test_immutable_after_construction(self):
        ds = make_dataset([1.0, 2.0], [0.1, 0.2], [1, 0])
        with pytest.raises(ValueError):
            ds.outcome[0] = 5.0


class TestTake:
    """`take` gathers every column in one call; the result must equal fancy indexing."""

    @staticmethod
    def assert_same_as_fancy_indexing(ds, idx):
        got = ds.take(idx)
        want = ds.features[idx]
        assert got.features.dtype == want.dtype and got.features.shape == want.shape
        assert got.features.flags.f_contiguous
        assert got.features.tobytes() == want.tobytes()
        for name in ("outcome", "arm", "true_lift"):
            col, sub = getattr(ds, name), getattr(got, name)
            if col is None:
                assert sub is None
            else:
                assert sub.dtype == col.dtype and sub.tobytes() == col[idx].tobytes()

    @staticmethod
    def indices(n, seed):
        # duplicates and negative indices, each arm present
        rng = np.random.default_rng(seed)
        idx = rng.integers(-n, n, size=2 * n)
        return np.concatenate([idx, [0, 0, -1, -1, n - 1, -n]])

    def test_generated_features_are_column_major(self):
        ds = generate(DataGenConfig(n_rows=500, seed=2))
        assert ds.features.flags.f_contiguous and not ds.features.flags.c_contiguous
        self.assert_same_as_fancy_indexing(ds, self.indices(len(ds), 0))

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("with_lift", [True, False])
    def test_loaded_row_major_and_column_major(self, tmp_path, d, with_lift):
        rng = np.random.default_rng(d)
        n = 60
        arm = np.arange(n) % 2
        lift = rng.normal(size=n) if with_lift else None
        path = tmp_path / "rows.csv"
        save_csv(ABDataset(rng.normal(size=(n, d)), rng.normal(size=n), arm, lift), path)
        loaded = load_csv(path)
        assert loaded.features.flags.f_contiguous and (loaded.true_lift is None) != with_lift
        by_row = ABDataset(np.ascontiguousarray(loaded.features), loaded.outcome, loaded.arm,
                           loaded.true_lift)
        assert by_row.features.flags.f_contiguous
        for ds in (loaded, by_row):
            self.assert_same_as_fancy_indexing(ds, self.indices(n, d))
            self.assert_same_as_fancy_indexing(ds, self.indices(n, d).astype(np.int32))

    @pytest.mark.parametrize("with_lift", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_constructor_on_gathered_rows(self, with_lift, order):
        # the subset skips the constructor's copy and checks, yet is the
        # dataset the constructor builds from the same rows
        rng = np.random.default_rng(4)
        n = 300
        ds = ABDataset(np.asarray(rng.normal(size=(n, 3)), order=order), rng.normal(size=n),
                       rng.integers(0, 2, n), rng.normal(size=n) if with_lift else None)
        idx = self.indices(n, 5)
        got = ds.take(idx)
        want = ABDataset(ds.features[idx], ds.outcome[idx], ds.arm[idx],
                         None if ds.true_lift is None else ds.true_lift[idx])
        for name in ("features", "outcome", "arm", "true_lift"):
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None
                continue
            assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides), name
            assert a.tobytes() == b.tobytes() and a.flags.f_contiguous, name
            assert not a.flags.writeable and not b.flags.writeable, name

    def test_batch_that_loses_treatment_raises(self):
        ds = make_dataset(np.arange(6.0), np.arange(6.0), [0, 1] * 3)
        with pytest.raises(ValueError, match="^no treatment rows$"):
            ds.take(np.array([0, 2, 4]))

    @pytest.mark.parametrize("bad", [[0, 1, 6], [-7, 0, 1]])
    def test_out_of_range_raises_index_error(self, bad):
        ds = make_dataset(np.arange(6.0), np.arange(6.0), [0, 1] * 3)
        with pytest.raises(IndexError):
            ds.take(np.array(bad))

    @pytest.mark.parametrize("bad", [
        np.array([True, False, True, True, False, False]),
        np.array([0.0, 1.0]),
        np.array([[0, 1], [2, 3]]),
    ], ids=["boolean-mask", "float", "2-d"])
    def test_non_integer_or_non_1d_indices_rejected(self, bad):
        # a boolean mask would otherwise be read as rows 0 and 1
        ds = make_dataset(np.arange(6.0), np.arange(6.0), [0, 1] * 3)
        with pytest.raises(TypeError, match="1-d integer array"):
            ds.take(bad)

    def test_batch_that_loses_an_arm_raises(self):
        ds = make_dataset(np.arange(6.0), np.arange(6.0), [0, 1] * 3)
        with pytest.raises(ValueError, match="no control rows"):
            ds.take(np.array([1, 3, 5]))


class TestGenerate:
    def test_shape_and_split(self):
        config = DataGenConfig(n_rows=10_000, treatment_fraction=0.7, seed=11, lift_coefficient=0.5)
        ds = generate(config)
        assert len(ds) == 10_000 and ds.d == 2
        assert abs(ds.n_treatment / len(ds) - 0.7) < 0.02
        # outcomes of treated rows carry the lift; features are (r1, r3)
        r3 = ds.features[:, 1]
        np.testing.assert_allclose(ds.true_lift, 0.5 * r3)

    def test_zero_lift(self):
        ds = generate(DataGenConfig(n_rows=5000, seed=2, lift_coefficient=0.0))
        assert np.all(ds.true_lift == 0.0)
        # with no lift the arms have the same outcome distribution
        t, c = ds.outcome[ds.is_treatment], ds.outcome[~ds.is_treatment]
        assert abs(t.mean() - c.mean()) < 3 * np.sqrt(t.var() / t.size + c.var() / c.size)

    def test_deterministic(self):
        a = generate(DataGenConfig(n_rows=1000, seed=42))
        b = generate(DataGenConfig(n_rows=1000, seed=42))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.outcome, b.outcome)
        np.testing.assert_array_equal(a.arm, b.arm)
        c = generate(DataGenConfig(n_rows=1000, seed=43))
        assert not np.array_equal(a.outcome, c.outcome)

    def test_normal_noise(self):
        ds = generate(
            DataGenConfig(n_rows=20_000, seed=5, noise_distribution=NoiseDistribution.STD_NORMAL)
        )
        assert abs(ds.features[:, 0].mean()) < 0.05
        assert abs(ds.features[:, 0].std() - 1.0) < 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataGenConfig(n_rows=1)
        with pytest.raises(ValueError):
            DataGenConfig(n_rows=10, treatment_fraction=1.0)
        with pytest.raises(ValueError):
            DataGenConfig(n_rows=10, seed=-1)

    def test_randomization_check(self):
        # arm labels carry no feature information: treated share conditioned
        # on r3 above/below its median stays near the global share
        ds = generate(DataGenConfig(n_rows=100_000, treatment_fraction=0.7, seed=9))
        r3 = ds.features[:, 1]
        split = np.median(r3)
        overall = ds.n_treatment / len(ds)
        for mask in (r3 > split, r3 <= split):
            assert abs(ds.arm[mask].mean() - overall) < 0.02

    def test_arm_means_match_expected_lift(self):
        ds = generate(DataGenConfig(n_rows=100_000, treatment_fraction=0.7, seed=13))
        t, c = ds.outcome[ds.is_treatment], ds.outcome[~ds.is_treatment]
        diff = t.mean() - c.mean()
        se = np.sqrt(t.var() / t.size + c.var() / c.size)
        assert abs(diff - 0.5 * 0.5) < 3 * se  # lift_coefficient * E[r3]


class TestCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,y,arm\n0.1,0.2,1.0,1\n0.3,0.4,0.5,0\n")
        ds = load_csv(path)
        assert len(ds) == 2 and ds.d == 2
        assert ds.true_lift is None
        np.testing.assert_allclose(ds.features[0], [0.1, 0.2])

    def test_round_trip_generated(self, tmp_path):
        ds = generate(DataGenConfig(n_rows=100, seed=1))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.outcome, back.outcome)
        np.testing.assert_array_equal(ds.arm, back.arm)
        np.testing.assert_array_equal(ds.true_lift, back.true_lift)

    def test_lift_column_presence(self, tmp_path):
        with_lift = generate(DataGenConfig(n_rows=10, seed=1))
        p1 = tmp_path / "with.csv"
        save_csv(with_lift, p1)
        assert p1.read_text().splitlines()[0].endswith(",true_lift")
        without = ABDataset(with_lift.features, with_lift.outcome, with_lift.arm, None)
        p2 = tmp_path / "without.csv"
        save_csv(without, p2)
        assert "true_lift" not in p2.read_text().splitlines()[0]
        assert load_csv(p2).true_lift is None

    def test_all_treatment_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y,arm\n0.1,1.0,1\n0.2,2.0,1\n")
        with pytest.raises(ValueError, match="no control rows"):
            load_csv(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y,arm\n0.1,1.0,1\n0.2,2.0,0\n0.3,3.0,1\n0.4,abc,0\n")
        with pytest.raises(CsvFormatError, match="line 5.*'abc'"):
            load_csv(path)

    def test_error_line_counts_lines_inside_quoted_fields(self, tmp_path):
        # the quoted y value of the first row spans physical lines 2 and 3
        path = tmp_path / "bad.csv"
        path.write_text('f0,y,arm\n1.0,"2.0\n",1\n0.2,2.0,0\n0.4,abc,0\n')
        with pytest.raises(CsvFormatError, match="line 5.*'abc'"):
            load_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y,arm\n0.1,1.0,1\n0.2,2.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(path)

    def test_bad_arm_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,y,arm\n0.1,1.0,1\n0.2,2.0,0.5\n")
        with pytest.raises(CsvFormatError, match="line 3.*arm"):
            load_csv(path)

    # a faster parser must keep these answers or declare each change
    @pytest.mark.parametrize("text,message", [
        ("f0,y,arm\n0.1,1.0,1\n\n0.2,2.0,0\n", "line 3: expected 3 fields, got 0"),
        ("f0,y,arm\n0.1,1.0,1\n0.2,2.0,0\n\n", "line 4: expected 3 fields, got 0"),
        ("f0,y,arm\n0.1,1.0,1\n# note\n0.2,2.0,0\n", "line 3: expected 3 fields, got 1"),
        ("f0,y,arm\n0.1,1.0,1.0\n0.2,2.0,0\n", "line 2: arm value must be 0 or 1, got '1.0'"),
        ("f0,y,arm\n0.1,1.0,+1\n0.2,2.0,0\n", "line 2: arm value must be 0 or 1, got '+1'"),
        ("f0,y,arm\n0.1,1.0,01\n0.2,2.0,0\n", "line 2: arm value must be 0 or 1, got '01'"),
    ], ids=["blank-line", "trailing-blank-line", "hash-line", "arm-1.0", "arm-+1", "arm-01"])
    def test_rejected_inputs(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,f0", [
        ("f0,y,arm\n0.1,1.0, 1 \n0.2,2.0,0\n", 0.1),
        ('f0,y,arm\n"0.1",1.0,1\n0.2,2.0,0\n', 0.1),
        ("f0,y,arm\n1_0,1.0,1\n0.2,2.0,0\n", 10.0),
    ], ids=["spaced-arm", "quoted-number", "underscore-digits"])
    def test_accepted_inputs(self, tmp_path, text, f0):
        path = tmp_path / "ok.csv"
        path.write_text(text)
        ds = load_csv(path)
        assert ds.features[:, 0].tolist() == [f0, 0.2] and ds.arm.tolist() == [1, 0]

    def test_nan_feature_rejected_by_the_dataset(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,y,arm\nnan,1.0,1\n0.2,2.0,0\n")
        with pytest.raises(ValueError, match="^features contain non-finite values$") as err:
            load_csv(path)
        assert type(err.value) is ValueError  # not a line-numbered CsvFormatError

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports begin with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_csv(generate(DataGenConfig(n_rows=100, seed=1)), plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        want, got = load_csv(plain), load_csv(marked)
        for name in ("features", "outcome", "arm", "true_lift"):
            a, b = getattr(want, name), getattr(got, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("text", [
        "",
        "a,b,c\n1,2,3\n",
        "f0,y,arm\n",
        "f0,y,arm\n0.1,1.0,1\n0.2,2.0\n",
        "f0,y,arm\n0.1,1.0,1\n0.2,2.0,0.5\n",
        "f0,y,arm\n0.1,1.0,1\n0.4,abc,0\n",
    ], ids=["empty", "header", "no rows", "field count", "arm", "number"])
    def test_byte_order_mark_leaves_error_messages_unchanged(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        with pytest.raises(CsvFormatError) as want:
            load_csv(plain)
        with pytest.raises(CsvFormatError) as got:
            load_csv(marked)
        assert str(got.value) == str(want.value)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_round_trip_lossless(self, tmp_path_factory, data):
        n = data.draw(st.integers(2, 12))
        finite = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
        feats = data.draw(st.lists(finite, min_size=n, max_size=n))
        ys = data.draw(st.lists(finite, min_size=n, max_size=n))
        arm = data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
                lambda a: 0 < sum(a) < len(a)
            )
        )
        ds = make_dataset(feats, ys, arm)
        path = tmp_path_factory.mktemp("csv") / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.outcome, back.outcome)
        np.testing.assert_array_equal(ds.arm, back.arm)


class TestReadOnlyContract:
    """Public columns stay read-only however a dataset is made, and the step's
    functions write neither to them nor to the caller's arrays."""

    COLUMNS = ("features", "outcome", "arm", "true_lift")

    @pytest.mark.parametrize("source", ["constructor", "generate", "load_csv", "take"])
    def test_every_public_column_is_read_only(self, tmp_path, source):
        ds = generate(DataGenConfig(n_rows=300, seed=4))
        if source == "constructor":
            ds = ABDataset(*(getattr(ds, k).copy() for k in self.COLUMNS))
        elif source == "load_csv":
            save_csv(ds, tmp_path / "d.csv")
            ds = load_csv(tmp_path / "d.csv")
        elif source == "take":
            ds = ds.take(np.arange(0, 300, 2))
        for name in self.COLUMNS:
            col = getattr(ds, name)
            assert not col.flags.writeable, name
            with pytest.raises(ValueError):
                col[0] = 0

    @pytest.mark.parametrize("source", ["generate", "take"])
    def test_is_treatment_is_a_read_only_view_of_the_arm(self, source):
        ds = generate(DataGenConfig(n_rows=300, seed=4))
        if source == "take":
            ds = ds.take(np.arange(0, 300, 2))
        treated = ds.is_treatment
        assert treated.dtype == bool and np.shares_memory(treated, ds.arm)
        assert not treated.flags.writeable
        assert treated.tobytes() == (ds.arm == 1).tobytes()

    def test_step_functions_leave_inputs_unchanged(self):
        # more rows than MAX_SORT: cuts come from the cached draw
        n = int(np.random.default_rng(6).integers(MAX_SORT + 1, 150_001))
        ds = generate(DataGenConfig(n_rows=n, seed=6))
        preds = predict(ModelSpec(ModelKind.LINEAR, 2), [0.4, -0.3, 0.1], ds)
        preds.setflags(write=False)
        cuts = compute_cuts(preds, 8)
        bins = assign_bins(preds, cuts)
        draw = _subsample_rows(n)
        before = [a.tobytes() for a in (preds, bins, draw, *(getattr(ds, k) for k in self.COLUMNS))]
        subset_stats(ds, preds, bins, 8)
        compute_cuts(preds, 8)
        effective_gradient(ds, preds, GradConfig(n_bins=8))
        after = [a.tobytes() for a in (preds, bins, draw, *(getattr(ds, k) for k in self.COLUMNS))]
        assert after == before
        assert _subsample_rows(n) is draw and not draw.flags.writeable
        fresh = np.random.default_rng(0).choice(n, size=MAX_SORT, replace=False)
        assert draw.tobytes() == fresh.tobytes()
        assert not any(getattr(ds, k).flags.writeable for k in self.COLUMNS)
