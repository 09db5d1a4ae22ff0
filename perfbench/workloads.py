"""The three workloads: sizes, training settings, and the calls that drive liftloss."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from liftloss import (
    Activation,
    DataGenConfig,
    GradConfig,
    ModelKind,
    ModelSpec,
    TrainConfig,
    assign_bins,
    compute_cuts,
    pointwise_mse,
    predict,
    random_params,
    subset_stats,
)

LINEAR_INIT = (1.0, 0.1, 1.0)  # slope f0, slope f1, offset
TREATMENT_FRACTION = 0.7
LR = 0.1  # step size of every workload
# Training steps of one timed op of the in-memory workloads. Quality comes
# from separate, untimed runs of the workload's full `steps`.
OP_STEPS = 4
PREDICT_CHUNK = 100_000  # rows per predict call when scoring a whole dataset


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    model: ModelKind
    bins: int
    steps: int
    batch: int | None = None
    rebin_every: int = 1
    # Distinct (init, minibatch) seeds per run; quality is the median over them.
    variants: int = 1
    snapshots: tuple[int, ...] = ()

    @property
    def rows_per_eval(self) -> int:
        return self.batch or self.rows

    @property
    def spec(self) -> ModelSpec:
        if self.model is ModelKind.MLP:
            return ModelSpec(ModelKind.MLP, 2, 32, Activation.TANH)
        return ModelSpec(ModelKind.LINEAR, 2)

    def gen_config(self, seed: int) -> DataGenConfig:
        return DataGenConfig(n_rows=self.rows, treatment_fraction=TREATMENT_FRACTION, seed=seed)

    def variant_seeds(self, seed: int) -> list[int]:
        if self.variants == 1:
            return [seed]
        return [int(s) for s in np.random.SeedSequence(seed).generate_state(self.variants)]

    def init_params(self, variant_seed: int) -> np.ndarray:
        if self.model is ModelKind.MLP:
            return random_params(self.spec, variant_seed)
        return np.array(LINEAR_INIT)

    def train_config(self, variant_seed: int) -> TrainConfig:
        return TrainConfig(
            step_size=LR,
            steps=self.steps,
            grad=GradConfig(n_bins=self.bins, rebin_every=self.rebin_every),
            batch=self.batch,
            snapshot_steps=self.snapshots,
            seed=variant_seed,
        )

    def cli_commands(self, seed: int, out: Path) -> list[tuple[str, list[str]]]:
        """The gen, train and eval invocations of the CSV pipeline, writing under `out`."""
        data, run = str(out / "data.csv"), str(out / "run")
        return [
            ("gen", ["gen", "--rows", str(self.rows), "--treatment-frac", str(TREATMENT_FRACTION),
                     "--seed", str(seed), "-o", data]),
            ("train", ["train", "--data", data, "--model", self.model.value,
                       "--init", ",".join(map(str, LINEAR_INIT)), "--lr", str(LR),
                       "--steps", str(self.steps), "--bins", str(self.bins),
                       "--snapshots", ",".join(map(str, self.snapshots)), "-o", run]),
            ("eval", ["eval", "--data", data, "--params", f"{run}.params.json",
                      "--bins", str(self.bins), "-o", str(out / "report.csv")]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fullbatch_linear_1m", rows=1_000_000, model=ModelKind.LINEAR, bins=10, steps=20),
        Workload("minibatch_mlp_1m", rows=1_000_000, model=ModelKind.MLP, bins=10, steps=40,
                 batch=100_000, rebin_every=4, variants=3),
    )
}
# The `liftloss gen|train|eval` pipeline the traced runs time for the dataset
# CSV and cli layers. It is not a timed workload: its wall time swung by more
# than the largest allowed bound between runs on a shared 2-vCPU VM.
CSV_PIPELINE = Workload("csv_pipeline_200k", rows=200_000, model=ModelKind.LINEAR, bins=5,
                        steps=20, snapshots=(0, 10, 20))


def smoke(w: Workload) -> Workload:
    """The same workload at a size that runs in about a second."""
    rows = 20_000
    return replace(
        w,
        rows=rows,
        steps=6,
        batch=None if w.batch is None else rows // 5,
        snapshots=(0, 3, 6) if w.snapshots else (),
    )


def chunked_predict(spec, params, dataset) -> np.ndarray:
    """Predictions for every row, `PREDICT_CHUNK` rows at a time to bound memory."""
    x = dataset.features
    return np.concatenate(
        [predict(spec, params, x[i : i + PREDICT_CHUNK]) for i in range(0, len(x), PREDICT_CHUNK)]
    )


def lift_r2(w: Workload, dataset, params) -> float:
    """1 - pointwise_mse / Var(true lift) of the model's binned predictions on all rows.

    Rows are binned by the final model's predictions into the workload's bin
    count, and each row is scored with its bin's mean prediction, the
    discrete prediction `pointwise_mse` expects.
    """
    preds = chunked_predict(w.spec, params, dataset)
    bins = assign_bins(preds, compute_cuts(preds, w.bins))
    stats = subset_stats(dataset, preds, bins, w.bins)
    mse = pointwise_mse(stats.mean_pred[bins - 1], dataset.true_lift)
    return 1.0 - mse / float(np.var(dataset.true_lift))
