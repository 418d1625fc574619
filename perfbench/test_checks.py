"""Each benchmark check passes on the program's output and fails on a
deliberately wrong one, so that no check is vacuous.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import genforest  # noqa: E402
import genforest.evaluator  # noqa: E402
from genforest import Dataset, FeatureDomain, Schema, TrainConfig  # noqa: E402
from genforest.data import REAL  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Mixture2D, column_stats, masked_columns, mcar_mask  # noqa: E402


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(3)
    pts = Mixture2D().draw(300, rng)
    domains = tuple(FeatureDomain(REAL, lo=float(pts[:, j].min()), hi=float(pts[:, j].max()))
                    for j in range(2))
    ds = Dataset(Schema(("x0", "x1"), domains), [pts[:, 0].copy(), pts[:, 1].copy()])
    forest, history = genforest.train(ds, TrainConfig(n_trees=3, n_splits=24))
    return ds, forest, history, checks.forest_geometry(forest)


def test_fit_check(model):
    ds, forest, history, _ = model
    routing = ds.routing_columns()
    checks.check_fit(forest, history, routing)

    flat = copy.deepcopy(history)
    flat[5].poprisk = flat[4].poprisk
    with pytest.raises(CheckError, match="does not decrease"):
        checks.check_fit(forest, flat, routing)

    off = copy.deepcopy(history)
    off[-1].poprisk *= 1 + 1e-6
    with pytest.raises(CheckError, match="recomputation"):
        checks.check_fit(forest, off, routing)

    # one row bound to the wrong leaf of tree 0
    moved = copy.copy(forest)
    moved.leaf_rows = [dict(d) for d in forest.leaf_rows]
    leaves = sorted(moved.leaf_rows[0], key=lambda l: len(moved.leaf_rows[0][l]))
    a, b = leaves[-1], leaves[-2]
    moved.leaf_rows[0][b] = np.append(moved.leaf_rows[0][b], moved.leaf_rows[0][a][:1])
    moved.leaf_rows[0][a] = moved.leaf_rows[0][a][1:]
    with pytest.raises(CheckError):
        checks.check_fit(moved, history, routing)


def test_generate_check(model):
    ds, forest, _, geoms = model
    routing = ds.routing_columns()
    sample = genforest.generate(forest, 600, seed=1)
    checks.check_generate(geoms, sample.columns, routing)

    # every row in the same leaf of tree 0: exact frequencies are broken
    leaf0 = geoms[0].leaves_of(sample.columns)
    keep = leaf0 == np.bincount(leaf0).argmax()
    biased = [np.resize(c[keep], 600) for c in sample.columns]
    with pytest.raises(CheckError, match="chi-square"):
        checks.check_generate(geoms, biased, routing)

    # rows shifted into a cell that holds no training row
    d = ds.schema.domains
    grid = np.linspace(0, 1, 41)
    xs, ys = np.meshgrid(d[0].lo + grid * (d[0].hi - d[0].lo), d[1].lo + grid * (d[1].hi - d[1].lo))
    cand = [xs.ravel(), ys.ravel()]
    occupied = {tuple(c) for c in checks.leaf_tuples(geoms, routing)}
    empty = [i for i, c in enumerate(checks.leaf_tuples(geoms, cand)) if tuple(c) not in occupied]
    assert empty, "the test model should leave some cell empty"
    shifted = [c.copy() for c in sample.columns]
    for j in range(2):
        shifted[j][:10] = cand[j][empty[0]]
    with pytest.raises(CheckError, match="without training rows"):
        checks.check_generate(geoms, shifted, routing)


def test_density_check(model):
    ds, forest, _, geoms = model
    routing = ds.routing_columns()
    pts = [c[:50] for c in genforest.generate(forest, 50, seed=2).columns]
    answers = [forest.density([pts[0][i], pts[1][i]]) for i in range(50)]
    checks.check_density(geoms, ds.schema.domains, pts, answers, routing)
    doubled = [(2 * v, flag) for v, flag in answers]
    with pytest.raises(CheckError, match="density"):
        checks.check_density(geoms, ds.schema.domains, pts, doubled, routing)


def _imputation(model):
    ds, forest, _, _ = model
    rng = np.random.default_rng(5)
    truth = [c[:120].copy() for c in ds.columns]
    mask = mcar_mask(120, 2, 0.3, rng)
    masked = masked_columns(truth, mask, ds.schema.domains)
    filled = genforest.impute_dataset(forest, Dataset(ds.schema, masked), seed=0).columns
    means, stds = column_stats(ds)
    return ds.schema.domains, masked, filled, truth, mask, means, stds


def test_impute_check(model):
    domains, masked, filled, truth, mask, means, stds = _imputation(model)
    checks.check_impute(masked, filled, truth, mask, domains, means, stds)

    changed = [c.copy() for c in filled]
    i = int(np.flatnonzero(~mask[:, 0])[0])
    changed[0][i] += 1e-9
    with pytest.raises(CheckError, match="observed cell changed"):
        checks.check_impute(masked, changed, truth, mask, domains, means, stds)

    outside = [c.copy() for c in filled]
    outside[1][mask[:, 1]] = domains[1].hi + 1.0
    with pytest.raises(CheckError, match="outside the domain"):
        checks.check_impute(masked, outside, truth, mask, domains, means, stds)

    # in the domain but far from the truth: worse than the column mean
    far = [c.copy() for c in filled]
    for j, d in enumerate(domains):
        far[j][mask[:, j]] = np.where(truth[j][mask[:, j]] > means[j], d.lo, d.hi)
    with pytest.raises(CheckError, match="baseline"):
        checks.check_impute(masked, far, truth, mask, domains, means, stds)


def test_ot_check(model):
    ds, forest, _, _ = model
    domains = ds.schema.domains
    means, stds = column_stats(ds)
    held = [c[:100] for c in ds.columns]
    gen = [c[:100] for c in genforest.generate(forest, 100, seed=3).columns]
    rng = np.random.default_rng(0)
    noise = [rng.uniform(d.lo, d.hi, 100) for d in domains]
    cost = checks.l1_cost(gen, held, domains, means, stds)
    exact = checks.exact_ot(cost)
    noise_ot = checks.exact_ot(checks.l1_cost(noise, held, domains, means, stds))
    sink = genforest.evaluator.sinkhorn_ot(Dataset(ds.schema, gen), Dataset(ds.schema, held),
                                           stats=genforest.evaluator.TrainStats(tuple(means), tuple(stds)))
    tol = checks.sinkhorn_tolerance(cost, 1e-6)
    checks.check_ot(exact, noise_ot, sink.cost, tol)

    corner = [np.full(100, d.lo) for d in domains]
    corner_ot = checks.exact_ot(checks.l1_cost(corner, held, domains, means, stds))
    with pytest.raises(CheckError, match="uniform noise"):
        checks.check_ot(corner_ot, noise_ot, sink.cost, tol)
    with pytest.raises(CheckError, match="entropic"):
        checks.check_ot(exact, noise_ot, exact - 10 * tol - 1e-6, tol)


def test_prefix_check(model):
    _, forest, _, _ = model
    two = genforest.generate(forest, 60, seed=4, threads=2).columns
    one = genforest.generate(forest, 30, seed=4, threads=1).columns
    checks.check_prefix(two, one, "generate")
    other = genforest.generate(forest, 30, seed=5, threads=1).columns
    with pytest.raises(CheckError, match="differs"):
        checks.check_prefix(two, other, "generate")


def test_tracer_counts_exact_on_pool_threads(model):
    _, forest, _, _ = model
    counts = []
    for threads in (1, 2):
        tracer = Tracer()
        tracer.install()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to expose lost updates
        try:
            genforest.generate(forest, 200, seed=6, threads=threads)
        finally:
            sys.setswitchinterval(old)
            tracer.uninstall()
        layer = tracer.per_layer()
        counts.append({k: v["value"] for k, v in layer.items() if v["unit"] == "count"})
        assert layer["sampler.sample_one_calls"]["value"] == 200
    assert counts[0] == counts[1]
    assert counts[0]["sampler.star_update_calls"] > 0
    assert genforest.sampler.generate is genforest.generate
    assert not hasattr(genforest.sampler.sample_one, "__traced__")
