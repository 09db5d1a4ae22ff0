import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftloss import (
    ABDataset,
    CsvFormatError,
    DataGenConfig,
    NoiseDistribution,
    generate,
    load_csv,
    save_csv,
)

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

    def test_counts(self):
        ds = make_dataset([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [1, 0, 1], [0.5, 0.0, 0.5])
        assert (len(ds), ds.n_treatment) == (3, 2)

    def test_immutable_after_construction(self):
        ds = make_dataset([1.0, 2.0], [0.1, 0.2], [1, 0])
        with pytest.raises(ValueError):
            ds.outcome[0] = 5.0


class TestTake:
    """`take` gathers column by column; the result must equal fancy indexing."""

    @staticmethod
    def assert_same_as_fancy_indexing(ds, idx):
        got = ds.take(idx)
        want = ds.features[idx]
        assert got.features.dtype == want.dtype and got.features.shape == want.shape
        assert got.features.flags.c_contiguous and got.features.strides == want.strides
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
        assert loaded.features.flags.c_contiguous and (loaded.true_lift is None) != with_lift
        by_column = ABDataset(np.asfortranarray(loaded.features), loaded.outcome, loaded.arm,
                              loaded.true_lift)
        assert d == 1 or not by_column.features.flags.c_contiguous
        for ds in (loaded, by_column):
            self.assert_same_as_fancy_indexing(ds, self.indices(n, d))
            self.assert_same_as_fancy_indexing(ds, self.indices(n, d).astype(np.int32))

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
