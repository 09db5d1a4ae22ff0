import numpy as np
import pytest

from liftloss import _threads

from dataset_helpers import make_dataset
from thread_helpers import THREAD_COUNTS


@pytest.fixture
def six_row_instance():
    """Two-bin hand instance used by the migration oracle tests.

    Predictions [0.10, 0.45, 0.48, 0.55, 0.80, 0.90] split at 0.515; row 2 is
    the top segment of bin 1 and row 3 the bottom segment of bin 2.
    """
    preds = np.array([0.10, 0.45, 0.48, 0.55, 0.80, 0.90])
    arm = np.array([0, 1, 1, 0, 1, 0], dtype=np.int8)
    y = np.array([0.5, 1.0, 2.0, 1.0, 3.0, 1.5])
    return make_dataset(preds, y, arm), preds


@pytest.fixture
def per_thread_count(monkeypatch):
    """`run(call)`: `call()`'s results with each of `THREAD_COUNTS` usable CPUs, in order."""

    def run(call):
        results = []
        for count in THREAD_COUNTS:
            monkeypatch.setattr(_threads, "usable_cpus", lambda: count)
            results.append(call())
        return results

    return run
