"""Evaluation harness: imputation metrics (perr / rmse), entropic-regularized
optimal transport between samples, and the k-fold generate-and-score loop."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sp_stats

from .data import CATEGORICAL, INTEGER, Dataset
from .sampler import generate
from .trainer import TrainConfig, train


def perr(imputed: Dataset, truth: Dataset, mask: np.ndarray) -> float | None:
    """Error probability over masked categorical cells; None when there are
    no masked categorical cells."""
    errs, total = 0, 0
    for j, dom in enumerate(truth.schema.domains):
        if dom.kind != CATEGORICAL:
            continue
        holes = np.flatnonzero(mask[:, j])
        total += len(holes)
        errs += int((imputed.columns[j][holes] != truth.columns[j][holes]).sum())
    return errs / total if total else None


def rmse(imputed: Dataset, truth: Dataset, mask: np.ndarray) -> float | None:
    """Root mean squared error over masked numeric cells; None when there are
    no masked numeric cells."""
    sq, total = 0.0, 0
    for j, dom in enumerate(truth.schema.domains):
        if dom.kind == CATEGORICAL:
            continue
        holes = np.flatnonzero(mask[:, j])
        total += len(holes)
        diff = imputed.columns[j][holes] - truth.columns[j][holes]
        sq += float(np.sum(diff * diff))
    return float(np.sqrt(sq / total)) if total else None


# ---------------------------------------------------------------------------
# optimal transport


@dataclass(frozen=True)
class TrainStats:
    """Per-feature standardization statistics taken from the full domain data."""

    means: tuple[float, ...]
    stds: tuple[float, ...]

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "TrainStats":
        means, stds = [], []
        for j, dom in enumerate(ds.schema.domains):
            if dom.kind == CATEGORICAL:
                means.append(0.0)
                stds.append(0.0)
            else:
                vals = ds.columns[j][~np.isnan(ds.columns[j])]
                means.append(float(vals.mean()))
                stds.append(float(vals.std()))
        return cls(tuple(means), tuple(stds))


@dataclass
class OTResult:
    cost: float
    converged: bool
    iterations: int


def _ground_cost(a: Dataset, b: Dataset, stats: TrainStats, metric: str) -> np.ndarray:
    """Pairwise cost: standardized numeric distance plus 0/1 categorical
    mismatches. Zero-variance numeric features contribute nothing."""
    cost = np.zeros((a.m, b.m))
    for j, dom in enumerate(a.schema.domains):
        xa, xb = a.columns[j], b.columns[j]
        if dom.kind == CATEGORICAL:
            cost += (xa[:, None] != xb[None, :]).astype(float)
        else:
            if stats.stds[j] == 0.0:
                continue
            za = (xa - stats.means[j]) / stats.stds[j]
            zb = (xb - stats.means[j]) / stats.stds[j]
            diff = za[:, None] - zb[None, :]
            cost += diff * diff if metric == "sql2" else np.abs(diff)
    return cost


def sinkhorn_ot(
    a: Dataset,
    b: Dataset,
    eps: float = 0.5,
    stats: TrainStats | None = None,
    metric: str = "l1",
    tol: float = 1e-6,
    max_iter: int = 10_000,
) -> OTResult:
    """Entropic-regularized transport cost between the empirical distributions
    of two same-schema datasets; iterates until both marginal violations fall
    below ``tol`` or the iteration cap is hit (flagged as non-converged)."""
    if a.schema.names != b.schema.names:
        raise ValueError("schema mismatch")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if metric not in ("l1", "sql2"):
        raise ValueError(f"unknown metric {metric!r}")
    if stats is None:
        stats = TrainStats.from_dataset(a)
    cost = _ground_cost(a, b, stats, metric)
    n, p = cost.shape
    mu = np.full(n, 1.0 / n)
    nu = np.full(p, 1.0 / p)
    k_mat = np.exp(-cost / eps)
    u = np.ones(n) / n
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        v = nu / np.maximum(k_mat.T @ u, 1e-300)
        u = mu / np.maximum(k_mat @ v, 1e-300)
        if it % 10 == 0 or it == max_iter:
            plan_col = u[:, None] * k_mat * v[None, :]
            err = max(
                float(np.abs(plan_col.sum(axis=1) - mu).max()),
                float(np.abs(plan_col.sum(axis=0) - nu).max()),
            )
            if err < tol:
                converged = True
                break
    plan = u[:, None] * k_mat * v[None, :]
    return OTResult(cost=float((plan * cost).sum()), converged=converged, iterations=it)


# ---------------------------------------------------------------------------
# k-fold generate-and-score


def kfold_indices(ds: Dataset, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic fold assignment; stratified on the last categorical
    column when one exists, plain shuffle otherwise."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if ds.m < 2 * k:
        raise ValueError("fold too small")
    rng = np.random.default_rng(seed)
    cat_cols = [j for j, d in enumerate(ds.schema.domains) if d.kind == CATEGORICAL]
    folds = [[] for _ in range(k)]
    if cat_cols:
        strat = ds.columns[cat_cols[-1]]
        for val in np.unique(strat):
            idx = np.flatnonzero(strat == val)
            rng.shuffle(idx)
            for pos, i in enumerate(idx):
                folds[pos % k].append(i)
    else:
        idx = rng.permutation(ds.m)
        for pos, i in enumerate(idx):
            folds[pos % k].append(i)
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def forest_generator(cfg: TrainConfig):
    """Fold generator that trains a forest on the fold's training split."""

    def gen(train_ds: Dataset, test_ds: Dataset, seed: int) -> Dataset:
        forest, _ = train(train_ds, cfg)
        return generate(forest, test_ds.m, seed=seed)

    return gen


def uniform_generator():
    """Control: uniform noise over the training split's domain."""

    def gen(train_ds: Dataset, test_ds: Dataset, seed: int) -> Dataset:
        n = test_ds.m
        rng = np.random.default_rng(seed)
        columns = []
        for dom in train_ds.schema.domains:
            if dom.kind == CATEGORICAL:
                columns.append(rng.integers(len(dom.categories), size=n).astype(np.int32))
            elif dom.kind == INTEGER:
                columns.append(rng.integers(int(dom.lo), int(dom.hi) + 1, size=n).astype(float))
            else:
                columns.append(rng.uniform(dom.lo, dom.hi, size=n))
        return Dataset(train_ds.schema, columns)

    return gen


def copy_generator():
    """Control: the held-out real sample itself — the optimal contender whose
    score is the self-transport floor."""

    def gen(train_ds: Dataset, test_ds: Dataset, seed: int) -> Dataset:
        return test_ds

    return gen


def subsample_generator():
    """Control: a random real subsample of the training split."""

    def gen(train_ds: Dataset, test_ds: Dataset, seed: int) -> Dataset:
        rng = np.random.default_rng(seed)
        rows = rng.choice(train_ds.m, size=min(test_ds.m, train_ds.m), replace=False)
        return train_ds.take_rows(np.sort(rows), relearn_numeric=False)

    return gen


@dataclass
class LifelikeResult:
    fold_costs: list[float]
    mean: float
    std: float
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"fold_costs": self.fold_costs, "mean": self.mean, "std": self.std,
             "warnings": self.warnings},
            indent=1,
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["fold", "cost", "warnings"])
            for i, c in enumerate(self.fold_costs):
                w.writerow([i, repr(c), ""])
            w.writerow(["mean", repr(self.mean), "; ".join(self.warnings)])
            w.writerow(["std", repr(self.std), ""])


def kfold_lifelike(
    ds: Dataset,
    k: int,
    generator,
    eps: float = 0.5,
    seed: int = 0,
    metric: str = "l1",
) -> LifelikeResult:
    """For each fold: fit/derive a generator on the other k-1 folds, generate
    as many rows as the held-out fold, and score the transport cost between
    the generated and held-out samples."""
    folds = kfold_indices(ds, k, seed)
    stats = TrainStats.from_dataset(ds)
    costs, warnings = [], []
    for f, test_rows in enumerate(folds):
        train_rows = np.sort(np.concatenate([folds[g] for g in range(k) if g != f]))
        train_ds = ds.take_rows(train_rows)
        test_ds = ds.take_rows(test_rows, relearn_numeric=False)
        gen_ds = generator(train_ds, test_ds, seed * 1000 + f)
        res = sinkhorn_ot(gen_ds, test_ds, eps=eps, stats=stats, metric=metric)
        costs.append(res.cost)
        if not res.converged:
            warnings.append(f"fold {f}: transport did not converge in {res.iterations} iterations")
    arr = np.array(costs)
    return LifelikeResult(costs, float(arr.mean()), float(arr.std()), warnings)


def two_sample_ttest(a, b) -> tuple[float, float]:
    """Welch two-sample t-test (statistic, p-value) on per-fold scores."""
    res = sp_stats.ttest_ind(np.asarray(a), np.asarray(b), equal_var=False)
    return float(res.statistic), float(res.pvalue)
