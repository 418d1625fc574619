"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the property at the stated tolerance, including the
wall-clock budget where one applies.
"""

import math
import time

import numpy as np
import pytest

from genforest.cli import run
from genforest.data import INTEGER, REAL, apply_mcar, synth_domain
from genforest.evaluator import (
    copy_generator,
    forest_generator,
    kfold_lifelike,
    rmse,
    uniform_generator,
)
from genforest.forest import GenerativeForest, SplitPredicate, Tree
from genforest.imputer import impute_dataset, marginal_impute
from genforest.measure import get_loss
from genforest.sampler import branch_probability, generate
from genforest.trainer import (
    TrainConfig,
    _affected_cells,
    _numeric_candidates,
    _score_numeric,
    train,
)
from oracles import (
    SamplerState,
    descend,
    element_reach_probability,
    enumerate_partition,
    expected_depth,
    full_poprisk,
    g_pi,
    init_sampling,
    path_interleavings,
    path_to,
    risk_delta,
    support_distribution,
)
from tests.conftest import dataset_from_rows, random_dataset


def report(num: int, name: str, ok: bool, details: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if details:
        line += f" ({details})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1-2: exact sampling law of a small forest


def _iterative_interleaving(forest, leaf_ids):
    lengths = [len(path_to(t, l)) for t, l in zip(forest.trees, leaf_ids)]
    return tuple(i for i, n in enumerate(lengths) for _ in range(n)), lengths


def test_01_reach_probability_equals_empirical_frequency(toy_forest, toy2d):
    t0 = time.monotonic()
    forest, _ = toy_forest
    worst = 0.0
    for e in enumerate_partition(forest):
        inter, _ = _iterative_interleaving(forest, e.leaf_ids)
        p = element_reach_probability(forest, e.leaf_ids, inter)
        worst = max(worst, abs(p - e.count / toy2d.m))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "branch-product equals cell frequency", ok,
           f"max dev {worst:.2e}, {elapsed:.3f}s")


def test_02_reach_probability_order_invariant(toy_forest):
    t0 = time.monotonic()
    forest, _ = toy_forest
    worst = 0.0
    for e in enumerate_partition(forest):
        _, lengths = _iterative_interleaving(forest, e.leaf_ids)
        probs = [
            element_reach_probability(forest, e.leaf_ids, inter)
            for inter in path_interleavings(lengths)
        ]
        worst = max(worst, max(probs) - min(probs))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, "reach probability invariant to tree order", ok,
           f"max spread {worst:.2e}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3: boosting-style monotonicity


def test_03_training_strictly_decreases_the_objective():
    t0 = time.monotonic()
    ds = synth_domain("circGauss", seed=0)
    _, history = train(ds, TrainConfig(n_trees=50, n_splits=50, loss="square", pi=0.5, seed=0))
    elapsed = time.monotonic() - t0
    risks = [r.poprisk for r in history]
    monotone = len(risks) == 50 and risks[0] < 0.25 and all(
        b < a for a, b in zip(risks, risks[1:])
    )
    ok = monotone and risks[-1] < 0.9 * 0.25 and elapsed < 30.0
    report(3, "objective strictly decreases over 50 splits", ok,
           f"final {risks[-1]:.4f} < 0.225, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4: many stumps beat one deep tree


def test_04_fifty_stumps_vs_one_deep_tree():
    t0 = time.monotonic()
    ds = synth_domain("circGauss", seed=0)
    stump_cfg = TrainConfig(n_trees=50, n_splits=50, seed=0)
    tree_cfg = TrainConfig(n_trees=1, n_splits=50, seed=0)
    stumps, _ = train(ds, stump_cfg)
    n_elems = len(enumerate_partition(stumps))
    res_s = kfold_lifelike(ds, 5, forest_generator(stump_cfg), seed=0)
    res_t = kfold_lifelike(ds, 5, forest_generator(tree_cfg), seed=0)
    elapsed = time.monotonic() - t0
    ok = n_elems > 51 and res_s.mean <= res_t.mean and elapsed < 300.0
    report(4, "stump ensemble partitions finer and transports cheaper", ok,
           f"|partition| {n_elems}, stumps {res_s.mean:.4f} <= tree {res_t.mean:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5: the incremental objective change is a sum of per-couple curvature gaps


def test_05_split_delta_equals_couple_curvature_gaps():
    loss = get_loss("square")
    worst = 0.0
    for seed, j_splits in ((1, 4), (2, 5), (3, 3)):
        ds = random_dataset(np.random.default_rng(seed), m=30)
        forest_b, _ = train(ds, TrainConfig(n_trees=2, n_splits=j_splits - 1, seed=0))
        forest_a, hist_a = train(ds, TrainConfig(n_trees=2, n_splits=j_splits, seed=0))
        rec = hist_a[-1]
        m = ds.m
        pi = forest_a.pi
        node = forest_a.trees[rec.tree].nodes[rec.leaf]
        before = {e.leaf_ids: e for e in enumerate_partition(forest_b)}
        groups: dict[tuple, list] = {}
        for e in enumerate_partition(forest_a):
            if e.leaf_ids[rec.tree] in (node.left, node.right):
                parent = list(e.leaf_ids)
                parent[rec.tree] = rec.leaf
                groups.setdefault(tuple(parent), []).append(e)
            else:
                # untouched cells are identical before and after
                pe = before[e.leaf_ids]
                assert pe.count == e.count and abs(pe.umass - e.umass) < 1e-15

        def g_term(count, umass):
            return umass * g_pi(loss, (count / m) / umass, pi) if umass > 0 else 0.0

        delta = 0.0
        for parent_key, children in groups.items():
            pe = before[parent_key]
            delta += sum(g_term(c.count, c.umass) for c in children)
            delta -= g_term(pe.count, pe.umass)
        dev = max(
            abs(delta - rec.delta),
            abs(delta - (full_poprisk(forest_a, loss) - full_poprisk(forest_b, loss))),
        )
        worst = max(worst, dev)
    ok = worst <= 1e-10
    report(5, "split delta equals summed curvature gaps", ok, f"max dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 6: with a single tree the approximate sampler is exact


def test_06_single_tree_approximation_is_exact(toy2d):
    forest, _ = train(toy2d, TrainConfig(n_trees=1, n_splits=3, seed=0))
    d_gf = {e.leaf_ids: p for e, p in support_distribution(forest)}
    d_ap = {e.leaf_ids: p for e, p in support_distribution(forest.to_eogt())}
    worst = max(
        abs(d_gf.get(k, 0.0) - d_ap.get(k, 0.0)) for k in set(d_gf) | set(d_ap)
    )
    ok = worst <= 1e-12
    report(6, "single-tree converted model samples identically", ok, f"max dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 7: divergence of the approximate sampler bounded by branch-ratio x depth


def _realized_log_ratio_max(gf, ap) -> float:
    kmax = 0.0

    def walk(sg: SamplerState, se: SamplerState) -> None:
        nonlocal kmax
        t_idx = next(
            (i for i, t in enumerate(gf.trees) if not t.is_leaf(sg.positions[i])), None
        )
        if t_idx is None:
            return
        pg = branch_probability(gf, sg, t_idx)
        pe = branch_probability(ap, se, t_idx)
        node = gf.trees[t_idx].nodes[sg.positions[t_idx]]
        for child, qg, qe in ((node.right, pg, pe), (node.left, 1.0 - pg, 1.0 - pe)):
            if qg == 0.0:
                continue
            assert qe > 0.0
            kmax = max(kmax, abs(math.log(qg / qe)))
            sg2 = SamplerState(sg.support, list(sg.positions), sg.rows)
            se2 = SamplerState(se.support, list(se.positions), None)
            descend(gf, sg2, t_idx, child)
            descend(ap, se2, t_idx, child)
            walk(sg2, se2)

    walk(init_sampling(gf), init_sampling(ap))
    return kmax


def test_07_conversion_divergence_bound():
    details = []
    ok = True
    for seed in (0, 1, 2):
        ds = random_dataset(np.random.default_rng(seed + 10), m=30)
        gf, _ = train(ds, TrainConfig(n_trees=2, n_splits=4, seed=0))
        ap = gf.to_eogt()
        kappa = _realized_log_ratio_max(gf, ap)
        d_gf = {e.leaf_ids: p for e, p in support_distribution(gf)}
        d_ap = {e.leaf_ids: p for e, p in support_distribution(ap)}
        kl = sum(p * math.log(p / d_ap[k]) for k, p in d_gf.items() if p > 0)
        bound = 2.0 * kappa * expected_depth(gf)
        ok = ok and kappa > 0 and 0.0 <= kl < bound
        details.append(f"seed {seed}: KL {kl:.4f} < {bound:.4f}")
    report(7, "approximation divergence under branch-ratio bound", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8: threshold candidates


def test_08a_candidate_thresholds_match_dense_grid():
    loss = get_loss("square")
    vals = sorted([0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 4, 4, 5, 6, 6, 6, 7, 8, 9, 9])
    ds = dataset_from_rows(["x"], [INTEGER], [[v] for v in vals])
    tree = Tree(ds.schema)
    cells = _affected_cells([tree], [], tree.supports[tree.root], np.arange(20), [], ds.schema)
    col = ds.routing_columns()[0]
    dom = ds.schema.domains[0]
    mids = _numeric_candidates(col)
    grid = np.linspace(float(min(vals)), float(max(vals)), 1000)[1:-1]
    s_mid = _score_numeric(cells, 0, dom, mids, col, loss, 0.5, 20)
    s_grid = _score_numeric(cells, 0, dom, grid, col, loss, 0.5, 20)
    dev = abs(s_mid.min() - s_grid.min())
    ok = dev <= 1e-9
    report(8, "value-anchored candidates attain the grid optimum (single tree)", ok,
           f"dev {dev:.2e}")


def test_08b_interior_threshold_beats_candidates_with_two_trees():
    # Known limitation, pinned as a concrete instance: once several trees
    # share the empirical measure, the best threshold for one tree can sit
    # strictly between observed values (hugging another tree's split
    # boundary), where no value-anchored candidate can reach it.
    loss = get_loss("square")
    c = 0.437
    xs_low = [0.03, 0.11, 0.19, 0.27, 0.35]
    pack = [c - 0.004, c - 0.0022, c - 0.0004]
    xs_high = [0.51, 0.58, 0.65, 0.72, 0.79, 0.86, 0.93, 1.0]
    upper = {0.65, 0.86}
    rows = [[x, 0.25] for x in xs_low]
    rows += [[x, 0.75] for x in pack]
    rows += [[x, 0.75 if x in upper else 0.25] for x in xs_high]
    ds = dataset_from_rows(["x", "y"], [REAL, REAL], rows)
    t1, t2 = Tree(ds.schema), Tree(ds.schema)
    _, yr = t2.split(t2.root, SplitPredicate(feature=1, threshold=0.5))
    t2.split(yr, SplitPredicate(feature=0, threshold=c))
    xcol = ds.columns[0]
    forest = GenerativeForest(ds.schema, [t1, t2], dataset=ds)

    def score(t: float) -> float:
        return risk_delta(forest, 0, t1.root, SplitPredicate(feature=0, threshold=t), loss)

    obs = np.unique(xcol)
    cand = np.concatenate([obs[:-1], _numeric_candidates(ds.routing_columns()[0])])
    best_cand = min(score(t) for t in cand)
    grid = np.linspace(ds.schema.domains[0].lo, ds.schema.domains[0].hi, 2000)[1:-1]
    s_grid = np.array([score(t) for t in grid])
    t_best = grid[np.argmin(s_grid)]
    interior = np.min(np.abs(obs - t_best)) > 1e-4
    margin = best_cand - s_grid.min()
    ok = interior and margin > 5e-3
    report(8, "interior threshold beats all candidates (two trees, known limitation)", ok,
           f"grid {s_grid.min():.5f} at t={t_best:.5f}, candidates {best_cand:.5f}, margin {margin:.2e}")


# ---------------------------------------------------------------------------
# 9: model-based imputation beats the marginal baseline


def test_09_imputation_beats_marginal_baseline():
    t0 = time.monotonic()
    ds = synth_domain("gridGauss", seed=0)
    details = []
    wins = 0
    for seed in (0, 1, 2):
        masked, mask = apply_mcar(ds, 0.05, seed=seed)
        forest, _ = train(masked, TrainConfig(n_trees=50, n_splits=200, seed=seed))
        r_gf = rmse(impute_dataset(forest, masked, seed=seed), ds, mask)
        r_mg = rmse(marginal_impute(masked, masked, seed=seed), ds, mask)
        wins += r_gf < r_mg
        details.append(f"seed {seed}: {r_gf:.3f} vs {r_mg:.3f}")
    elapsed = time.monotonic() - t0
    ok = wins == 3 and elapsed < 120.0
    report(9, "forest imputation beats marginal baseline on all seeds", ok,
           "; ".join(details) + f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10: generated samples transport-closer than noise, bounded by real data


def test_10_generated_samples_between_noise_and_real_data():
    t0 = time.monotonic()
    ds = synth_domain("ringGauss", seed=0)
    cfg = TrainConfig(n_trees=100, n_splits=400, seed=0)
    res_gf = kfold_lifelike(ds, 5, forest_generator(cfg), seed=0)
    res_un = kfold_lifelike(ds, 5, uniform_generator(), seed=0)
    res_cp = kfold_lifelike(ds, 5, copy_generator(), seed=0)
    elapsed = time.monotonic() - t0
    beats_noise = all(g < u for g, u in zip(res_gf.fold_costs, res_un.fold_costs))
    ok = beats_noise and res_gf.mean >= res_cp.mean and elapsed < 300.0
    report(10, "transport cost below noise on every fold, above held-out floor", ok,
           f"forest {res_gf.mean:.4f}, noise {res_un.mean:.4f}, floor {res_cp.mean:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11: samples only land in populated cells; one-hot structure is preserved


def test_11_samples_land_in_populated_cells_and_respect_one_hot():
    ds = synth_domain("circGauss", seed=0)
    forest, _ = train(ds, TrainConfig(n_trees=5, n_splits=25, seed=0))
    out = generate(forest, 100_000, seed=0)
    counts = {e.leaf_ids: e.count for e in enumerate_partition(forest)}
    empty_hits = 0
    for i in range(out.m):
        vals = [out.columns[j][i] for j in range(out.d)]
        key = tuple(t.leaf_of(vals) for t in forest.trees)
        if counts.get(key, 0) < 1:
            empty_hits += 1

    # one-hot toy: three indicator columns, every bit pinned by one tree
    rows = [[1 if j == cls else 0 for j in range(3)] for cls in range(3) for _ in range(10)]
    oh = dataset_from_rows(["b0", "b1", "b2"], [INTEGER] * 3, rows)
    tree = Tree(oh.schema)
    frontier = [tree.root]
    for j in range(3):
        frontier = [c for leaf in frontier
                    for c in tree.split(leaf, SplitPredicate(feature=j, threshold=0.5))]
    oh_forest = GenerativeForest(oh.schema, [tree], dataset=oh)
    oh_out = generate(oh_forest, 100_000, seed=0)
    bits = np.stack([oh_out.columns[j] for j in range(3)])
    one_hot_ok = bool(np.all(np.isin(bits, (0, 1))) and np.all(bits.sum(axis=0) == 1))
    ok = empty_hits == 0 and one_hot_ok
    report(11, "samples avoid empty cells and keep exactly one hot bit", ok,
           f"empty-cell hits {empty_hits}, one-hot ok {one_hot_ok}")


# ---------------------------------------------------------------------------
# 12: bitwise reproducibility through the command line


def test_12_cli_outputs_bit_identical(tmp_path):
    data = tmp_path / "train.csv"
    assert run(["synth", "--name", "circGauss", "--out", str(data)]) == 0
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    targs = ["--data", str(data), "--trees", "10", "--splits", "40", "--seed", "0"]
    assert run(["train", *targs, "--out", str(m1)]) == 0
    assert run(["train", *targs, "--out", str(m2)]) == 0
    models_same = m1.read_bytes() == m2.read_bytes()
    outs = []
    for name, threads in (("g1.csv", "1"), ("g8.csv", "8"), ("g1b.csv", "1")):
        p = tmp_path / name
        assert run(["--threads", threads, "generate", "--model", str(m1),
                    "--train", str(data), "--n", "2000", "--seed", "0",
                    "--out", str(p)]) == 0
        outs.append(p.read_bytes())
    csvs_same = outs[0] == outs[1] == outs[2]
    ok = models_same and csvs_same
    report(12, "models and generated data reproduce byte-for-byte", ok,
           f"models identical {models_same}, outputs identical {csvs_same}")
