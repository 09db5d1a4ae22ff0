"""Binned lift loss for A/B-test data: loss, effective gradient, models, CLI.

Trains parametric models directly on randomized experiment data by grouping
rows into prediction bins, scoring the model with a loss built from per-bin
lift estimates, and descending an effective gradient that accounts for rows
migrating between bins.
"""

from .binning import (
    BinningError,
    CutPoints,
    DegeneratePredictionsError,
    Segment,
    assign_bins,
    assign_segments,
    compute_cuts,
    inner_cuts,
)
from .dataset import (
    ABDataset,
    CsvFormatError,
    DataGenConfig,
    NoiseDistribution,
    generate,
    load_csv,
    save_csv,
)
from .gradient import (
    EffectiveGradient,
    GradConfig,
    bias_gradient,
    effective_gradient,
)
from .loss import (
    EmptyArmInBinError,
    LossReport,
    SubsetStats,
    global_lift,
    pointwise_mse,
    subset_stats,
    true_lift_loss,
    write_loss_report,
)
from .models import (
    Activation,
    ModelKind,
    ModelSpec,
    TrainConfig,
    TrainTrace,
    TrainingDivergedError,
    backprop,
    load_params,
    n_params,
    predict,
    random_params,
    save_params,
    train,
)

__version__ = "0.1.0"
