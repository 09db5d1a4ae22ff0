"""Every CSV the package writes is byte-identical to the row-by-row reference writers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from liftloss import ABDataset, LossReport, SubsetStats, load_csv, save_csv, write_loss_report
from liftloss import dataset as dataset_module
from liftloss.cli import _write_trace
from liftloss.models import TraceEntry

# values whose text is easy to get wrong: signed zeros, subnormals, 17 digits, huge and tiny
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 1 / 3,
           -2 / 3, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 123456789.12345679]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
BLOCKS = st.sampled_from([2, 3, 5, 8])


def draw_floats(data, n):
    return np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=np.float64)


def draw_rows(data, block, minimum):
    """Row count at the block edges (block - 1, block, block + 1) or anywhere up to 3 blocks."""
    edge = data.draw(st.sampled_from([block - 1, block, block + 1, None]))
    n = data.draw(st.integers(minimum, 3 * block + 1)) if edge is None else edge
    return max(n, minimum)


def same_bytes(tmp, write_new, write_ref):
    new, ref = tmp / "new.csv", tmp / "ref.csv"
    write_new(new)
    write_ref(ref)
    assert new.read_bytes() == ref.read_bytes()
    return new


def draw_dataset(data, n):
    d = data.draw(st.integers(1, 3))
    arm = np.zeros(n, dtype=np.int8)
    arm[data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))] = 1
    lift = draw_floats(data, n) if data.draw(st.booleans()) else None
    feats = np.column_stack([draw_floats(data, n) for _ in range(d)])
    return ABDataset(feats, draw_floats(data, n), arm, lift)


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSaveCsv:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_and_round_trips(self, tmp_path_factory, data):
        block = data.draw(BLOCKS)
        ds = draw_dataset(data, draw_rows(data, block, minimum=2))
        tmp = tmp_path_factory.mktemp("save")
        with mock.patch.object(dataset_module, "CSV_BLOCK_ROWS", block):
            path = same_bytes(tmp, lambda p: save_csv(ds, p),
                              lambda p: reference_io.save_csv(ds, p))
        back = load_csv(path)
        for name in ("features", "outcome", "arm"):
            assert_bit_identical(getattr(back, name), getattr(ds, name))
        if ds.true_lift is None:
            assert back.true_lift is None
        else:
            assert_bit_identical(back.true_lift, ds.true_lift)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_real_block_edges(self, tmp_path, offset):
        n = dataset_module.CSV_BLOCK_ROWS + offset
        rng = np.random.default_rng(offset + 5)
        values = rng.standard_normal((n, 3))
        values[rng.integers(0, n, 50), rng.integers(0, 3, 50)] = rng.choice(SPECIAL, 50)
        ds = ABDataset(values[:, :1], values[:, 1], np.arange(n) % 2, values[:, 2])
        same_bytes(tmp_path, lambda p: save_csv(ds, p), lambda p: reference_io.save_csv(ds, p))

    def test_dataset_rows_end_in_crlf(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(ABDataset([[0.5], [-0.0]], [1.0, 2.0], [1, 0]), path)
        assert path.read_bytes() == b"f0,y,arm\r\n0.5,1.0,1\r\n-0.0,2.0,0\r\n"


class TestLossReport:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference(self, tmp_path_factory, data):
        block = data.draw(BLOCKS)
        n = data.draw(st.integers(1, 12))
        count = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=2 * n,
                                            max_size=2 * n))).reshape(n, 2)
        mean_y = np.column_stack([draw_floats(data, n), draw_floats(data, n)])
        with np.errstate(over="ignore"):  # a lift of two huge means may be infinite
            stats = SubsetStats(count, mean_y, draw_floats(data, n), data.draw(FLOATS))
        report = LossReport(data.draw(FLOATS), data.draw(FLOATS), stats)
        with mock.patch.object(dataset_module, "CSV_BLOCK_ROWS", block):
            path = same_bytes(tmp_path_factory.mktemp("report"),
                              lambda p: write_loss_report(report, p),
                              lambda p: reference_io.write_loss_report(report, p))
        text = path.read_bytes()
        assert text.count(b"\r\n") == n + 1 and text.endswith(b"\n") and b"\r\n#" in text


class TestTraceCsv:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference(self, tmp_path_factory, data):
        block = data.draw(BLOCKS)
        n_params = data.draw(st.integers(1, 5))
        entries = [
            TraceEntry(t, data.draw(FLOATS), data.draw(FLOATS), data.draw(FLOATS),
                       draw_floats(data, n_params))
            for t in range(draw_rows(data, block, minimum=0))  # none: a run diverged at step 0
        ]
        with mock.patch.object(dataset_module, "CSV_BLOCK_ROWS", block):
            path = same_bytes(tmp_path_factory.mktemp("trace"),
                              lambda p: _write_trace(p, entries, n_params),
                              lambda p: reference_io.write_trace(p, np.zeros(n_params), entries))
        assert b"\r" not in path.read_bytes()


class TestWriteCsv:
    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            dataset_module.write_csv(tmp_path / "x.csv", ["a", "b"],
                                     [np.array([1, 2]), np.array([3])], "\n")
