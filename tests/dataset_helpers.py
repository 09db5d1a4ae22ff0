"""Small hand-built datasets for the tests."""

import numpy as np

from liftloss import ABDataset


def make_dataset(preds_or_feats, outcome, arm, true_lift=None) -> ABDataset:
    """Build a small dataset; 1-d feature input becomes a single column."""
    feats = np.asarray(preds_or_feats, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    return ABDataset(feats, np.asarray(outcome, dtype=np.float64), np.asarray(arm), true_lift)
