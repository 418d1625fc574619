"""Missing-data imputation: find the cells of the forest's walk consistent
with the observed features, pick a maximal-density cell, fill the gaps
uniformly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, INTEGER, MISSING_CODE, DataError, Dataset
from .forest import GenerativeForest
from .measure import Support, restriction_uniform_fraction
from .sampler import draw_uniform, map_rows

TIE_REL_TOL = 1e-12


@dataclass
class ConditionalTuple:
    support: Support
    mass: float  # empirical (GF) or approximate sampler mass (EOGT)

    def missing_volume(self, missing: list[int]) -> float:
        vol = 1.0
        for j in missing:
            dom = self.support.schema.domains[j]
            vol *= restriction_uniform_fraction(dom, self.support.restrictions[j])
        return vol


def raw_row(ds: Dataset, i: int) -> list:
    """Raw per-feature values of a row (float / int code), None where missing."""
    out = []
    for j, dom in enumerate(ds.schema.domains):
        v = ds.columns[j][i]
        if dom.kind == CATEGORICAL:
            out.append(None if v == MISSING_CODE else int(v))
        else:
            out.append(None if np.isnan(v) else float(v))
    return out


def conditional_tuples(forest: GenerativeForest, x_partial) -> list[ConditionalTuple]:
    """Cells of the forest's cached walk whose support is consistent with the
    observed features, with their masses: exact empirical masses (GF) or the
    chained branch-probability approximation (EOGT). Cells the sampler
    cannot reach are not on the walk."""
    return [ConditionalTuple(cell.support, cell.mass) for cell in forest.walk_cells(x_partial)]


def _pick_tuple(tuples: list[ConditionalTuple], x_partial, missing: list[int], rng: np.random.Generator) -> ConditionalTuple:
    """Maximal-density tuple, uniform random among near-ties. Zero-volume
    tuples with positive mass dominate every finite density (point masses)."""
    points = [t for t in tuples if t.mass > 0 and t.missing_volume(missing) == 0]
    if points:
        best = max(t.mass for t in points)
        tied = [t for t in points if t.mass >= best * (1 - TIE_REL_TOL)]
    else:
        scored = [(t.mass / t.missing_volume(missing), t) for t in tuples if t.mass > 0]
        if not scored:
            raise DataError(f"no cell consistent with the observed values {x_partial} holds training mass")
        best = max(s for s, _ in scored)
        tied = [t for s, t in scored if s >= best * (1 - TIE_REL_TOL)]
    return tied[int(rng.integers(len(tied)))]


def impute(forest: GenerativeForest, x_partial, rng: np.random.Generator) -> list:
    """Complete one observation: observed features pass through, missing ones
    are drawn uniformly inside a maximal-density consistent tuple."""
    forest.schema.check_row(x_partial)
    missing = [j for j, v in enumerate(x_partial) if v is None]
    if not missing:
        return list(x_partial)
    tuples = conditional_tuples(forest, x_partial)
    win = _pick_tuple(tuples, x_partial, missing, rng)
    filled = draw_uniform(forest.schema, win.support, rng)
    return [filled[j] if x_partial[j] is None else x_partial[j] for j in range(forest.schema.d)]


def impute_dataset(forest: GenerativeForest, ds_masked: Dataset, seed: int = 0, threads: int = 1) -> Dataset:
    """Row-wise imputation with one spawned random stream per row, so results
    do not depend on the thread count."""
    m = ds_masked.m
    streams = np.random.SeedSequence(seed).spawn(m)
    miss_mask = ds_masked.missing_mask()

    def one(i: int):
        if not miss_mask[i].any():
            return None
        return impute(forest, raw_row(ds_masked, i), np.random.default_rng(streams[i]))

    results = map_rows(one, m, threads)
    columns = [c.copy() for c in ds_masked.columns]
    for i, res in enumerate(results):
        if res is None:
            continue
        for j in np.flatnonzero(miss_mask[i]):
            columns[j][i] = res[j]
    return ds_masked.with_columns(columns)


def marginal_impute(
    ds_train: Dataset, ds_masked: Dataset, seed: int = 0, strategy: str = "sample"
) -> Dataset:
    """Baseline: fill each missing cell from its column's empirical marginal —
    a uniform draw over the observed training entries ("sample", default), or
    the column mean / mode."""
    if strategy not in ("sample", "mean", "mode"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    columns = [c.copy() for c in ds_masked.columns]
    for j, dom in enumerate(ds_masked.schema.domains):
        train_col = ds_train.columns[j]
        if dom.kind == CATEGORICAL:
            obs = train_col[train_col != MISSING_CODE]
            holes = np.flatnonzero(columns[j] == MISSING_CODE)
        else:
            obs = train_col[~np.isnan(train_col)]
            holes = np.flatnonzero(np.isnan(columns[j]))
        if len(holes) == 0:
            continue
        if len(obs) == 0:
            raise ValueError(f"column {ds_train.schema.names[j]!r} has no observed training values")
        if strategy == "sample":
            fill = obs[rng.integers(len(obs), size=len(holes))]
        elif strategy == "mean" and dom.kind != CATEGORICAL:
            fill = np.full(len(holes), float(np.mean(obs)))
            if dom.kind == INTEGER:
                fill = np.round(fill)
        else:  # mode (and mean on categoricals degrades to mode)
            vals, cnts = np.unique(obs, return_counts=True)
            fill = np.full(len(holes), vals[int(np.argmax(cnts))])
        columns[j][holes] = fill
    return ds_masked.with_columns(columns)
