"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The training-sweep criteria share one session fixture so the five CLI
runs happen once.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from liftloss import (
    DataGenConfig,
    GradConfig,
    ModelKind,
    ModelSpec,
    assign_bins,
    compute_cuts,
    effective_gradient,
    generate,
    global_lift,
    load_params,
    pointwise_mse,
    predict,
    subset_stats,
    true_lift_loss,
)
from liftloss.binning import DegeneratePredictionsError, Segment
from liftloss.cli import main
from liftloss.gradient import bias_gradient

from test_gradient import recompute_loss_slope
from test_loss import lift_means

SWEEP_SEEDS = (0, 1, 2, 3, 4)
LINEAR2 = ModelSpec(ModelKind.LINEAR, 2)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """Five CLI runs: 10k rows, 70-30 split, linear model from (1, 1, 0.1) in
    slope/offset/slope order, step size 0.1, 100 steps, 5 bins, rebin every
    step. Returns per-seed params and snapshot documents plus the wall time.
    """
    root = tmp_path_factory.mktemp("sweep")
    runs = []
    start = time.perf_counter()
    for seed in SWEEP_SEEDS:
        data = root / f"data_{seed}.csv"
        prefix = root / f"run_{seed}"
        assert main([
            "gen", "--rows", "10000", "--treatment-frac", "0.7", "--noise", "uniform",
            "--lift", "0.5", "--seed", str(seed), "-o", str(data),
        ]) == 0
        assert main([
            "train", "--data", str(data), "--model", "linear", "--init", "1,0.1,1",
            "--lr", "0.1", "--steps", "100", "--bins", "5", "--rebin-every", "1",
            "--snapshots", "0,1,100", "-o", str(prefix),
        ]) == 0
        _, params = load_params(f"{prefix}.params.json")
        snaps = json.loads((prefix.parent / f"run_{seed}.snapshots.json").read_text())
        runs.append((seed, params, {s["step"]: s for s in snaps["snapshots"]}))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_training_reproduces_generating_model(sweep):
    """Seed sweep lands near the data-generating coefficients for >= 4/5 seeds."""
    runs, elapsed = sweep
    hits = []
    for seed, params, _ in runs:
        c1, c3, c2 = params[0], params[1], params[2]  # slopes for f0/f1, offset
        hits.append(abs(c1) <= 0.12 and abs(c2) <= 0.10 and 0.40 <= c3 <= 0.55)
    detail = (
        f"{sum(hits)}/5 seeds inside |c1|<=0.12, |c2|<=0.10, c3 in [0.40, 0.55]; "
        f"sweep took {elapsed:.1f}s (limit 60s)"
    )
    ok = sum(hits) >= 4 and elapsed <= 60.0
    report(1, ok, detail)
    assert sum(hits) >= 4, detail
    assert elapsed <= 60.0, detail


def test_criterion_2_decomposition_identity():
    """Binned MSE equals the loss plus a model-independent variance term."""
    # exact identity when bin lifts come from the known per-row lifts
    ds = generate(DataGenConfig(n_rows=10_000, seed=123))
    rng = np.random.default_rng(5)
    preds = predict(LINEAR2, rng.normal(0, 0.5, 3), ds)
    lifts = ds.true_lift
    const = float(np.mean((lifts - lifts.mean()) ** 2))
    worst = 0.0
    for n_bins in (2, 5, 10):
        bins = assign_bins(preds, compute_cuts(preds, n_bins))
        stats = subset_stats(ds, preds, bins, n_bins)
        oracle_lift = np.bincount(bins - 1, weights=lifts, minlength=n_bins) / stats.size
        oracle = dataclasses.replace(stats, mean_y=lift_means(oracle_lift),
                                     global_lift=float(lifts.mean()))
        loss = true_lift_loss(oracle).loss
        mse = pointwise_mse(oracle.mean_pred[bins - 1], lifts)
        worst = max(worst, abs(mse - (loss + const)) / abs(mse))

    # with outcome-estimated lifts the gap shrinks as samples grow
    medians = []
    for n_rows in (1_000, 10_000, 100_000):
        gaps = []
        for seed in range(20):
            d = generate(DataGenConfig(n_rows=n_rows, seed=seed))
            r = np.random.default_rng(700 + seed)
            p = predict(LINEAR2, r.normal(0, 0.5, 3), d)
            bins = assign_bins(p, compute_cuts(p, 5))
            stats = subset_stats(d, p, bins, 5)
            loss = true_lift_loss(stats).loss
            mse = pointwise_mse(stats.mean_pred[bins - 1], d.true_lift)
            c = float(np.mean((d.true_lift - d.true_lift.mean()) ** 2))
            gaps.append(abs(mse - (loss + c)))
        medians.append(float(np.median(gaps)))
    monotone = medians[0] > medians[1] > medians[2]
    detail = (
        f"true-lift identity rel err {worst:.2e} (tol 1e-10); estimated-lift median gaps "
        f"{medians[0]:.1e} > {medians[1]:.1e} > {medians[2]:.1e}: {monotone}"
    )
    ok = worst <= 1e-10 and monotone
    report(2, ok, detail)
    assert ok, detail


def test_criterion_3_variance_decomposition_exact():
    """total = within + between at 1e-12 relative on 100 random instances.

    The rows' predictions are grouped by their bins, and the between-bin part
    is read from `subset_stats`' bin sizes and mean predictions, so a wrong
    bin mean would break the identity.
    """
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(500, 2000))
        data_seed = int(rng.integers(2**32))
        ds = generate(DataGenConfig(n_rows=n, treatment_fraction=0.5, seed=data_seed))
        values = rng.normal(0, rng.uniform(0.1, 10), n)
        n_bins = int(rng.integers(1, 12))
        bins = assign_bins(values, compute_cuts(values, n_bins))
        stats = subset_stats(ds, values, bins, n_bins)
        mean = values.mean()
        total = float(np.sum((values - mean) ** 2) / n)
        within = float(np.sum((values - stats.mean_pred[bins - 1]) ** 2) / n)
        between = float(np.sum(stats.size * (stats.mean_pred - mean) ** 2) / n)
        worst = max(worst, abs(total - (within + between)) / total)
    detail = f"max relative identity error {worst:.2e} over 100 instances (tol 1e-12)"
    ok = worst <= 1e-12
    report(3, ok, detail)
    assert ok, detail


def test_criterion_4_gradient_oracles():
    """Bias matches frozen finite differences; migration matches recompute."""
    # bias channel vs central finite differences on 100 random rows
    ds = generate(DataGenConfig(n_rows=5_000, seed=17))
    rng = np.random.default_rng(17)
    preds = predict(LINEAR2, rng.normal(0, 1, 3), ds)
    cuts = compute_cuts(preds, 5)
    bins = assign_bins(preds, cuts)
    stats = subset_stats(ds, preds, bins, 5)
    worst_bias = 0.0
    for i in rng.choice(len(ds), 100, replace=False):
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
        analytic = bias_gradient(stats, bins[[i]])[0]
        worst_bias = max(worst_bias, abs(fd - analytic) / max(abs(fd), abs(analytic)))

    # migration channel vs the recompute oracle, every boundary row of
    # 20 random 200-row instances; the 1e-10 relative bound carries a per-row
    # absolute floor at the oracle's own double-precision resolution (the
    # oracle differences loss contributions of order w*(P-l)^2, so slopes that
    # cancel to ~1e-5 inherit ~1e-15 of float noise through /dp)
    eps = np.finfo(np.float64).eps
    violations = 0
    worst_mig = 0.0
    rows_checked = 0
    for seed in range(20):
        d = generate(DataGenConfig(n_rows=200, seed=300 + seed))
        r = np.random.default_rng(300 + seed)
        p = predict(LINEAR2, r.normal(0, 1, 3), d)
        n_bins = int(r.integers(2, 6))
        eg = effective_gradient(d, p, GradConfig(n_bins=n_bins))
        cuts, bins, stats, inner, segments = eg.cuts, eg.bins, eg.stats, eg.inner, eg.segments
        # each boundary row's migration part: its gradient minus the bias channel
        migration = eg.point_grad - bias_gradient(stats, bins)
        weight = stats.size / stats.total_size
        contribution_scale = weight * (
            (stats.mean_pred - stats.lift) ** 2 + (stats.lift - stats.global_lift) ** 2
        )
        for i in np.flatnonzero(segments != Segment.MIDDLE):
            up = segments[i] == Segment.TOP
            b = int(bins[i])
            boundary = b - 1 if up else b - 2
            edge = cuts.cuts[boundary]
            dp = 0.5 * (edge - (inner.minus[boundary] if up else inner.plus[boundary]))
            oracle = recompute_loss_slope(
                stats, dp, float(d.outcome[i]), bool(d.arm[i]), b - 1, b - 1 + (1 if up else -1)
            )
            computed = migration[i]
            to0 = b - 1 + (1 if up else -1)
            noise_floor = 64 * eps * (contribution_scale[b - 1] + contribution_scale[to0]) / abs(dp)
            diff = abs(computed - oracle)
            if diff > noise_floor:
                worst_mig = max(worst_mig, diff / max(abs(computed), abs(oracle)))
                violations += diff > 1e-10 * max(abs(computed), abs(oracle))
            rows_checked += 1
    detail = (
        f"bias FD rel err {worst_bias:.2e} (tol 1e-6); migration rel err {worst_mig:.2e} "
        f"(tol 1e-10, {violations} rows beyond float noise) over {rows_checked} boundary rows"
    )
    ok = worst_bias <= 1e-6 and worst_mig <= 1e-10 and violations == 0
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_descent_property():
    """A prediction-space step along the gradient lowers the loss >= 45/50."""

    def pipeline_loss(ds, preds, gl):
        cuts = compute_cuts(preds, 5)
        bins = assign_bins(preds, cuts)
        return true_lift_loss(subset_stats(ds, preds, bins, 5, gl)).loss

    wins = 0
    for seed in range(50):
        ds = generate(DataGenConfig(n_rows=2_000, seed=seed))
        rng = np.random.default_rng(1000 + seed)
        preds = predict(LINEAR2, rng.uniform(-1, 1, 3), ds)
        gl = global_lift(ds)
        before = pipeline_loss(ds, preds, gl)
        result = effective_gradient(ds, preds, GradConfig(n_bins=5), cached_global_lift=gl)
        stepped = preds - 1e-2 * len(ds) * result.point_grad
        try:
            wins += pipeline_loss(ds, stepped, gl) < before
        except ValueError:
            pass  # step regrouped rows so hard a bin lost an arm: not a win
    detail = f"loss decreased in {wins}/50 instances (need >= 45)"
    ok = wins >= 45
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_descent_trajectory_milestones(sweep):
    """Early alignment of the prediction average, late per-bin ordering.

    Checked on the criterion-1 sweep with the same 4-of-5 allowance. The
    step-100 structure (rank correlation 1.0, lift spread >= 0.25) holds
    robustly. The step-1 gap bound (< 25% of the initial gap) is stricter
    than the pinned gradient semantics allow: with the segment-width probe
    shifts fixed by the inner-cut layout and scale 0.5, the first full-batch
    step contracts the gap to 26-31% across seeds (see the decisions ledger).
    """
    runs, _ = sweep
    step1_hits = []
    step100_hits = []
    ratios = []
    for seed, _, snaps in runs:
        gaps = {}
        for t in (0, 1):
            s = snaps[t]
            sizes = np.array([b["size"] for b in s["bins"]])
            preds = np.array([b["mean_pred"] for b in s["bins"]])
            gaps[t] = abs(float(sizes @ preds) / s["total_size"] - s["global_lift"])
        ratios.append(gaps[1] / gaps[0])
        step1_hits.append(gaps[1] < 0.25 * gaps[0])
        final = snaps[100]
        lifts = np.array([b["lift"] for b in final["bins"]])
        preds = np.array([b["mean_pred"] for b in final["bins"]])
        rank_corr = np.array_equal(np.argsort(preds), np.argsort(lifts))
        step100_hits.append(rank_corr and lifts[-1] - lifts[0] >= 0.25)
    detail = (
        f"step-1 gap ratios {[f'{r:.2f}' for r in ratios]} vs < 0.25 bound "
        f"({sum(step1_hits)}/5 pass); step-100 rank+spread {sum(step100_hits)}/5 pass"
    )
    ok = sum(step1_hits) >= 4 and sum(step100_hits) >= 4
    report(6, ok, detail)
    assert sum(step100_hits) >= 4, detail
    assert sum(step1_hits) >= 4, detail


def test_criterion_7_gradient_cost_scales_linearly():
    """10x the rows costs at most 13x the time and stays under 5 seconds.

    Each size takes the best of 15 timings: the 1e5-row call is a few ms, so
    the best of 3 could still be one slowed by other load.
    """

    def best_time(n_rows):
        ds = generate(DataGenConfig(n_rows=n_rows, seed=3))
        rng = np.random.default_rng(3)
        preds = predict(LINEAR2, rng.normal(0, 0.5, 3), ds)
        config = GradConfig(n_bins=10)
        gl = global_lift(ds)
        effective_gradient(ds, preds, config, cached_global_lift=gl)  # warm up
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            effective_gradient(ds, preds, config, cached_global_lift=gl)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_small = best_time(100_000)
    t_big = best_time(1_000_000)
    detail = (
        f"1e5 rows: {t_small * 1e3:.0f} ms, 1e6 rows: {t_big * 1e3:.0f} ms "
        f"(ratio {t_big / t_small:.1f}x, limits 13x and 5 s)"
    )
    ok = t_big <= 13 * t_small and t_big <= 5.0
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_model_ranking():
    """True model < constant model < sign-flipped model on fresh data."""

    def eval_loss(ds, preds):
        n_bins = 5
        try:
            cuts = compute_cuts(preds, n_bins)
        except DegeneratePredictionsError:
            n_bins = int(np.unique(preds).size)
            cuts = compute_cuts(preds, n_bins)
        bins = assign_bins(preds, cuts)
        return true_lift_loss(subset_stats(ds, preds, bins, n_bins)).loss

    ordered = 0
    for seed in range(10):
        ds = generate(DataGenConfig(n_rows=10_000, seed=200 + seed))
        r3 = ds.features[:, 1]
        gl = global_lift(ds)
        losses = (
            eval_loss(ds, 0.5 * r3),
            eval_loss(ds, np.full(len(ds), gl)),
            eval_loss(ds, -0.5 * r3),
        )
        ordered += losses[0] < losses[1] < losses[2]
    detail = f"true < null < reversed held for {ordered}/10 seeds (need 10)"
    ok = ordered == 10
    report(8, ok, detail)
    assert ok, detail
