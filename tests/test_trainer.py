import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from genforest import trainer
from genforest.data import CATEGORICAL, INTEGER, REAL, FeatureDomain
from genforest.forest import GenerativeForest, SplitPredicate, Tree
from genforest.measure import cell_risk, get_loss, restriction_uniform_fraction
from genforest.trainer import (
    TrainConfig,
    pick_tree_and_leaf,
    train,
    write_history_csv,
)
from oracles import assignment_arrays, full_poprisk, restriction_mask, risk_delta
from tests.conftest import dataset_from_rows


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_trees": 0},
            {"n_splits": -1},
            {"mode": "boost"},
            {"pi": 0.0},
            {"loss": "hinge"},
            {"cat_cutoff": 1},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestTraining:
    def test_poprisk_strictly_decreases(self, toy2d):
        _, history = train(toy2d, TrainConfig(n_trees=2, n_splits=6, seed=0))
        risks = [r.poprisk for r in history]
        assert len(risks) == 6
        assert all(b < a for a, b in zip(risks, risks[1:]))
        assert risks[0] < 0.25  # below the no-split baseline at pi = 1/2
        assert all(r.delta < 0 for r in history)

    def test_incremental_matches_full_recompute(self, toy2d):
        loss = get_loss("square")
        forest, history = train(toy2d, TrainConfig(n_trees=2, n_splits=5, seed=0))
        assert history[-1].poprisk == pytest.approx(full_poprisk(forest, loss), abs=1e-9)

    def test_delta_matches_poprisk_steps(self, toy2d):
        _, history = train(toy2d, TrainConfig(n_trees=2, n_splits=5, seed=0))
        for prev, cur in zip(history, history[1:]):
            assert cur.poprisk - prev.poprisk == pytest.approx(cur.delta, abs=1e-12)

    def test_chosen_threshold_is_best_candidate(self):
        # 1D four-point dataset: the trained first split must attain the
        # minimum incremental risk over every midpoint of consecutive values
        ds = dataset_from_rows(["x"], [REAL], [[1.0], [2.0], [3.0], [4.0]])
        loss = get_loss("square")
        forest, history = train(ds, TrainConfig(n_trees=1, n_splits=1, seed=0))
        tree = Tree(ds.schema)
        stump = GenerativeForest(ds.schema, [tree], dataset=ds)
        cands = [1.5, 2.5, 3.5]
        deltas = [
            risk_delta(stump, 0, tree.root, SplitPredicate(feature=0, threshold=t), loss)
            for t in cands
        ]
        assert history[0].delta == pytest.approx(min(deltas), abs=1e-12)
        assert history[0].threshold == pytest.approx(cands[int(np.argmin(deltas))])

    def test_constant_column_stops_early(self):
        ds = dataset_from_rows(["x"], [REAL], [[0.5]] * 6)
        forest, history = train(ds, TrainConfig(n_trees=1, n_splits=4, seed=0))
        assert history == []
        assert forest.trees[0].n_leaves() == 1

    def test_min_child_rows(self, toy2d, monkeypatch):
        monkeypatch.setattr(trainer, "MIN_CHILD_ROWS", 3)
        forest, _ = train(toy2d, TrainConfig(n_trees=1, n_splits=5, seed=0))
        for per_tree in forest.leaf_rows:
            for rows in per_tree.values():
                assert len(rows) >= 3

    def test_categorical_splits(self, mixed_ds):
        forest, history = train(mixed_ds, TrainConfig(n_trees=1, n_splits=4, seed=0))
        assert any(r.subset is not None or r.threshold is not None for r in history)
        # row lists still tile the dataset
        total = sum(len(rows) for rows in forest.leaf_rows[0].values())
        assert total == mixed_ds.m

    def test_leaf_rows_are_the_rows_of_their_support(self, holes_ds):
        # applied splits route rows by their predicate; every leaf must hold
        # exactly the rows whose routing values lie in its support
        forest, history = train(holes_ds, TrainConfig(n_trees=2, n_splits=24, cat_cutoff=3, seed=0))
        assert any(r.subset is not None for r in history)
        assert any(r.threshold is not None for r in history)
        route = holes_ds.routing_columns()
        for tree, per_tree in zip(forest.trees, forest.leaf_rows):
            for leaf, rows in per_tree.items():
                keep = np.ones(holes_ds.m, dtype=bool)
                for dom, r, col in zip(holes_ds.schema.domains, tree.supports[leaf].restrictions, route):
                    keep &= restriction_mask(dom, r, col)
                assert np.array_equal(rows, np.flatnonzero(keep))

    def test_eogt_mode(self, toy2d):
        forest, history = train(toy2d, TrainConfig(n_trees=2, n_splits=4, mode="eogt", seed=0))
        assert forest.mode == "eogt"
        assert forest.arc_p is not None
        assert all(b.poprisk < a.poprisk for a, b in zip(history, history[1:]))

    def test_determinism(self, toy2d, tmp_path):
        f1, h1 = train(toy2d, TrainConfig(n_trees=2, n_splits=5, seed=0))
        f2, h2 = train(toy2d, TrainConfig(n_trees=2, n_splits=5, seed=0))
        assert h1 == h2
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        f1.save(p1)
        f2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_heaviest_leaf_first(self, toy2d):
        _, history = train(toy2d, TrainConfig(n_trees=2, n_splits=2, seed=0))
        # the first two iterations split the roots of both trees, since a
        # fresh root holds all rows and is always heaviest
        assert (history[0].tree, history[1].tree) == (0, 1)
        assert history[0].leaf == 0 and history[1].leaf == 0

    def test_witness_statistics_in_range(self, toy2d):
        _, history = train(toy2d, TrainConfig(n_trees=2, n_splits=6, seed=0))
        for r in history:
            assert 0.0 < r.gamma_hat <= 1.0
            assert 0.0 < r.kappa_hat <= 1.0
            assert 0.0 < r.leaf_mass <= 1.0
            assert 0.0 < r.leaf_bound <= 1.0


class TestHelpers:
    def test_pick_tree_and_leaf(self):
        leaf_rows = [
            {0: np.arange(3), 1: np.arange(5)},
            {0: np.arange(4)},
        ]
        assert pick_tree_and_leaf(leaf_rows) == (0, 1)
        assert pick_tree_and_leaf(leaf_rows, skip={(0, 1)}) == (1, 0)
        assert pick_tree_and_leaf([{}]) is None

    def test_write_history_csv(self, toy2d, tmp_path):
        _, history = train(toy2d, TrainConfig(n_trees=1, n_splits=3, seed=0))
        p = tmp_path / "history.csv"
        write_history_csv(history, p)
        lines = p.read_text().strip().split("\n")
        assert len(lines) == len(history) + 1
        assert lines[0].startswith("iteration,tree,leaf,feature")


class TestScoringInternals:
    @staticmethod
    def _mixed_forest(n_trees, n_splits):
        rng = np.random.default_rng(3)
        rows = [[int(rng.integers(0, 40)), float(rng.normal())] for _ in range(300)]
        ds = dataset_from_rows(["a", "b"], [INTEGER, REAL], rows)
        forest, _ = train(ds, TrainConfig(n_trees=n_trees, n_splits=n_splits, seed=0))
        return ds, forest

    def test_candidate_blocks_tile_without_single_columns(self):
        for n_cells, k in [(1, 1), (1, 2), (3, 7), (5000, 3), (5000, 9), (20000, 5), (100, 1000)]:
            blocks = list(trainer._candidate_blocks(n_cells, k))
            assert blocks[0][0] == 0 and blocks[-1][1] == k
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all(c1 - c0 >= 2 for c0, c1 in blocks) or k == 1

    @pytest.mark.parametrize("loss_name", ["square", "log"])
    def test_candidate_blocks_do_not_change_deltas(self, monkeypatch, loss_name):
        # every candidate's delta must be bit for bit the same whether it is
        # scored in one block or in many two-column blocks
        ds, forest = self._mixed_forest(n_trees=3, n_splits=12)
        assign = assignment_arrays(forest.leaf_rows, ds.m)
        route = ds.routing_columns()
        loss = get_loss(loss_name)
        for t_idx, per_tree in enumerate(forest.leaf_rows):
            for leaf, rows in per_tree.items():
                sup = forest.trees[t_idx].supports[leaf]
                other = [t for t in range(len(forest.trees)) if t != t_idx]
                cells = trainer._affected_cells(forest.trees, other, sup, rows, assign, ds.schema)
                for j, dom in enumerate(ds.schema.domains):
                    cand = trainer._numeric_candidates(route[j][rows])
                    if len(cand) < 3:
                        continue
                    monkeypatch.setattr(trainer, "_SCORE_BLOCK", 1 << 30)
                    whole = trainer._score_numeric(cells, j, dom, cand, route[j], loss, 0.5, ds.m)
                    monkeypatch.setattr(trainer, "_SCORE_BLOCK", 2)
                    blocked = trainer._score_numeric(cells, j, dom, cand, route[j], loss, 0.5, ds.m)
                    assert np.array_equal(whole, blocked)

    def test_affected_cells_in_lexicographic_leaf_order(self):
        # 42 stumps: the mixed-radix key over 41 other trees of 3 nodes each
        # passes 2**62 and is renumbered on the way
        ds, forest = self._mixed_forest(n_trees=42, n_splits=42)
        assert all(len(t.nodes) == 3 for t in forest.trees)
        assign = assignment_arrays(forest.leaf_rows, ds.m)
        for t_idx in (0, 41):
            for leaf, rows in forest.leaf_rows[t_idx].items():
                sup = forest.trees[t_idx].supports[leaf]
                other = [t for t in range(42) if t != t_idx]
                cells = trainer._affected_cells(forest.trees, other, sup, rows, assign, ds.schema)
                labels = np.stack([assign[t][rows] for t in other], axis=1)
                uniq, inverse = np.unique(labels, axis=0, return_inverse=True)
                assert len(cells) == len(uniq)
                cell_rows = np.split(cells.rows, np.cumsum(cells.sizes)[:-1])
                for i in range(len(cells)):
                    assert np.array_equal(cell_rows[i], rows[inverse.ravel() == i])

    @pytest.mark.parametrize("with_other_trees", [True, False])
    def test_affected_cell_restrictions_intersect_the_leaf_supports(self, holes_ds, with_other_trees):
        # each cell's bounds, modality mask and uniform fractions against the
        # intersection of the leaf's support with the supports of the cell's
        # leaves in the other trees, one Support.intersect at a time. Under
        # this config at least two trees split each feature, so a cell that
        # misses one other tree's bounds shows on some feature
        cfg = TrainConfig(n_trees=3, n_splits=30, loss="log", pi=0.8, cat_cutoff=4, seed=0)
        forest, history = train(holes_ds, cfg)
        assert all(len({r.tree for r in history if r.feature == j}) >= 2 for j in range(3))
        assign = assignment_arrays(forest.leaf_rows, holes_ds.m)
        domains = holes_ds.schema.domains
        for t_idx, per_tree in enumerate(forest.leaf_rows):
            other = [t for t in range(3) if t != t_idx] if with_other_trees else []
            for leaf, rows in per_tree.items():
                sup = forest.trees[t_idx].supports[leaf]
                cells = trainer._affected_cells(forest.trees, other, sup, rows, assign, holes_ds.schema)
                assert cells.sizes.sum() == len(rows)
                for i, cell in enumerate(np.split(cells.rows, np.cumsum(cells.sizes)[:-1])):
                    [leaves] = {tuple(assign[t][r] for t in other) for r in cell}
                    want = sup
                    for t, node in zip(other, leaves):
                        want = want.intersect(forest.trees[t].supports[node])
                    for j, (dom, r) in enumerate(zip(domains, want.restrictions)):
                        kind, *bounds = cells.restr[j]
                        if dom.kind == CATEGORICAL:
                            assert kind == "cat"
                            assert set(np.flatnonzero(bounds[0][i]).tolist()) == r.codes
                        elif dom.kind == INTEGER:
                            assert (kind, bounds[0][i], bounds[1][i]) == ("int", r.a, r.b)
                        else:
                            assert (kind, bounds[0][i], bounds[1][i]) == ("num", r.lo, r.hi)
                        assert cells.fracs[i, j] == restriction_uniform_fraction(dom, r)


# ---------------------------------------------------------------------------
# dense reference scorers: every (cell, candidate) pair through cell_risk, and
# one cell_risk pass per subset; the trainer's scorers must match them bit
# for bit


def dense_score_numeric(cells, j, dom, cand, col, loss, pi, m):
    n_cells, k = len(cells), len(cand)
    u_rest = np.prod(np.delete(cells.fracs, j, axis=1), axis=1)
    sizes = cells.sizes
    cell_flat = np.repeat(np.arange(n_cells), sizes)
    bins = np.searchsorted(cand, col[cells.rows], side="left")
    hist = np.bincount(cell_flat * (k + 1) + bins, minlength=n_cells * (k + 1))
    n_left = np.cumsum(hist.reshape(n_cells, k + 1), axis=1)[:, :k]
    r_l = n_left / m
    r_r = (sizes[:, None] - n_left) / m
    if dom.kind == INTEGER:
        _, ia, ib = cells.restr[j]
        a, b = ia.astype(float), ib.astype(float)
        width = dom.n_values()
        span = (b - a + 1.0)[:, None]
        c_left = np.clip(np.floor(cand)[None, :] - a[:, None] + 1.0, 0.0, span)
        u_l = u_rest[:, None] * c_left / width
        u_r = u_rest[:, None] * (span - c_left) / width
    else:
        _, lo, hi = cells.restr[j]
        width = dom.hi - dom.lo
        if width > 0:
            cut = np.clip(cand[None, :], lo[:, None], hi[:, None])
            u_l = u_rest[:, None] * (cut - lo[:, None]) / width
            u_r = u_rest[:, None] * (hi[:, None] - cut) / width
        else:
            u_l = u_r = np.zeros((n_cells, k))
    post = cell_risk(loss, r_l, u_l, pi) + cell_risk(loss, r_r, u_r, pi)
    pre = cell_risk(loss, sizes / m, u_rest * cells.fracs[:, j], pi)
    return post.sum(axis=0) - float(np.sum(pre))


def dense_score_categorical(cells, j, dom, subsets, col, loss, pi, m):
    n_cats, n_cells = len(dom.categories), len(cells)
    u_rest = np.prod(np.delete(cells.fracs, j, axis=1), axis=1)
    sizes = cells.sizes
    cell_flat = np.repeat(np.arange(n_cells), sizes)
    counts = np.bincount(
        cell_flat * n_cats + col[cells.rows].astype(np.int64), minlength=n_cells * n_cats
    ).reshape(n_cells, n_cats).astype(float)
    sel = cells.restr[j][1]
    pre = float(np.sum(cell_risk(loss, sizes / m, u_rest * cells.fracs[:, j], pi)))
    deltas = np.empty(len(subsets))
    for s_idx, sub in enumerate(subsets):
        a = np.zeros(n_cats, dtype=bool)
        a[list(sub)] = True
        r_r = counts[:, a].sum(axis=1) / m
        r_l = counts[:, ~a].sum(axis=1) / m
        u_r = u_rest * (sel & a).sum(axis=1) / n_cats
        u_l = u_rest * (sel & ~a).sum(axis=1) / n_cats
        deltas[s_idx] = (
            cell_risk(loss, r_r, u_r, pi).sum() + cell_risk(loss, r_l, u_l, pi).sum() - pre
        )
    return deltas


def dense_categorical_blocks(cells, j, dom, blocks, col, loss, pi, m, min_rows):
    """``_score_categorical``'s contract over the dense scorer: admissibility
    counted subset by subset, then one cell_risk pass per admissible subset."""
    leaf_col = col[cells.rows]
    for block in blocks:
        subsets = [np.flatnonzero(row) for row in block]
        n_r = np.array([np.isin(leaf_col, sub).sum() for sub in subsets])
        ok = (n_r >= min_rows) & (len(leaf_col) - n_r >= min_rows)
        if ok.any():
            kept = [sub for sub, keep in zip(subsets, ok) if keep]
            yield block[ok], dense_score_categorical(cells, j, dom, kept, col, loss, pi, m)


LOSSES = ["square", "log", "matusita"]
BLOCKS = [2, 1 << 30]


def _leaf_cells(forest, ds):
    """Affected cells of every leaf of a trained forest."""
    assign = assignment_arrays(forest.leaf_rows, ds.m)
    for t_idx, per_tree in enumerate(forest.leaf_rows):
        for leaf, rows in per_tree.items():
            sup = forest.trees[t_idx].supports[leaf]
            other = [t for t in range(len(forest.trees)) if t != t_idx]
            yield rows, trainer._affected_cells(forest.trees, other, sup, rows, assign, ds.schema)


def _hand_cells(values, bounds, other_fracs, kind, dom):
    """Cells over one numeric feature (feature 0) given their row values and
    (lo, hi) bounds; feature 1 only contributes its uniform fraction."""
    col = np.concatenate([np.asarray(v, dtype=float) for v in values])
    sizes = np.array([len(v) for v in values])
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if kind == INTEGER:
        restr0 = ("int", lo.astype(np.int64), hi.astype(np.int64))
        frac0 = (hi - lo + 1.0) / dom.n_values()
    else:
        restr0 = ("num", lo, hi)
        width = dom.hi - dom.lo
        frac0 = (hi - lo) / width if width > 0 else np.ones(len(sizes))
    fracs = np.stack([frac0, np.asarray(other_fracs, dtype=float)], axis=1)
    cells = trainer.Cells(np.arange(len(col)), sizes, fracs, [restr0, ("num", lo, hi)])
    return cells, col


# (kind, domain, per-cell values, per-cell bounds, candidates): the candidates
# sit below, at and above every cell's bounds; values sit on closed lower
# bounds and on upper bounds; the second cell's lower bound is open
HAND_CASES = {
    "real": (
        REAL, FeatureDomain(REAL, lo=0.0, hi=6.0),
        [[0.0, 0.0, 1.0, 2.0], [2.5, 5.0], [1.5, 3.0, 4.0], [4.0, 4.5, 6.0]],
        [(0.0, 2.0), (2.0, 5.0), (1.0, 4.0), (4.0, 6.0)],
        [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 4.25, 5.0, 6.0, 7.0],
    ),
    "integer": (
        INTEGER, FeatureDomain(INTEGER, lo=0.0, hi=9.0),
        [[0, 0, 2, 3], [4, 6, 9, 9], [2, 5, 7], [5]],
        [(0, 3), (4, 9), (2, 7), (5, 5)],
        [-0.5, 0.0, 0.5, 2.0, 3.0, 3.5, 4.0, 5.0, 5.5, 7.0, 8.5, 9.0, 9.5],
    ),
    "zero_width": (
        REAL, FeatureDomain(REAL, lo=1.0, hi=1.0),
        [[1.0, 1.0], [1.0], [1.0, 1.0, 1.0]],
        [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
        [0.5, 1.0, 1.5],
    ),
}


class TestScoringAgainstDense:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("loss_name", LOSSES)
    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    def test_numeric_hand_cells(self, monkeypatch, case, loss_name, block):
        kind, dom, values, bounds, cand = HAND_CASES[case]
        cells, col = _hand_cells(values, bounds, [0.5, 0.25, 1.0, 0.75][:len(values)], kind, dom)
        cand = np.array(cand)
        loss = get_loss(loss_name)
        monkeypatch.setattr(trainer, "_SCORE_BLOCK", block)
        for c0 in range(len(cand)):
            # every suffix of the candidates, down to a single one
            got = trainer._score_numeric(cells, 0, dom, cand[c0:], col, loss, 0.5, 20)
            want = dense_score_numeric(cells, 0, dom, cand[c0:], col, loss, 0.5, 20)
            assert np.array_equal(got, want), (c0, got - want)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("loss_name", LOSSES)
    def test_numeric_trained_cells(self, monkeypatch, loss_name, block):
        # REAL and INTEGER features of a three-tree forest, scored at the
        # midpoints and at every cell's bounds
        ds, forest = TestScoringInternals._mixed_forest(n_trees=3, n_splits=24)
        route = ds.routing_columns()
        loss = get_loss(loss_name)
        monkeypatch.setattr(trainer, "_SCORE_BLOCK", block)
        n_scored = 0
        for rows, cells in _leaf_cells(forest, ds):
            for j, dom in enumerate(ds.schema.domains):
                _, lo, hi = cells.restr[j]
                cand = np.unique(np.concatenate(
                    [trainer._numeric_candidates(route[j][rows]), lo, hi, lo - 0.5, hi + 0.5]
                ))
                got = trainer._score_numeric(cells, j, dom, cand, route[j], loss, 0.5, ds.m)
                want = dense_score_numeric(cells, j, dom, cand, route[j], loss, 0.5, ds.m)
                assert np.array_equal(got, want)
                n_scored += len(cells) > 8
        assert n_scored > 0  # some leaves have enough cells to sum pairwise

    @staticmethod
    def _categorical_forest():
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(400):
            z = int(rng.integers(3))
            rows.append([f"k{(2 * z + int(rng.integers(3))) % 7}", float(rng.normal(z)),
                         f"q{int(rng.integers(4))}"])
        ds = dataset_from_rows(["k", "x", "q"], [CATEGORICAL, REAL, CATEGORICAL], rows)
        forest, _ = train(ds, TrainConfig(n_trees=3, n_splits=24, seed=0))
        return ds, forest

    @pytest.mark.parametrize("block", [2, 37, 1 << 30])
    @pytest.mark.parametrize("loss_name", LOSSES)
    def test_categorical_trained_cells(self, monkeypatch, loss_name, block):
        # one subset per block, several blocks of a few subsets, one block;
        # min_rows 0 keeps every candidate, so every subset is compared
        ds, forest = self._categorical_forest()
        route = ds.routing_columns()
        loss = get_loss(loss_name)
        monkeypatch.setattr(trainer, "_SCORE_BLOCK", block)
        n_chunked = 0
        for rows, cells in _leaf_cells(forest, ds):
            for j, dom in enumerate(ds.schema.domains):
                if dom.kind != CATEGORICAL:
                    continue
                n_cats = len(dom.categories)
                blocks = list(trainer._categorical_candidates(range(n_cats), 8, (0, 0, j), n_cats, len(cells)))
                scored = list(trainer._score_categorical(
                    cells, j, dom, iter(blocks), route[j], loss, 0.5, ds.m, 0
                ))
                assert len(scored) == len(blocks)
                assert all(np.array_equal(a, b) for a, b in zip(blocks, (r for r, _ in scored)))
                subsets = [np.flatnonzero(row) for row in np.concatenate(blocks)]
                got = np.concatenate([deltas for _, deltas in scored])
                want = dense_score_categorical(cells, j, dom, subsets, route[j], loss, 0.5, ds.m)
                assert np.array_equal(got, want)
                n_chunked += len(blocks) > 1 and len(cells) > 8
        assert (n_chunked > 0) == (block < 1 << 30)

    @pytest.mark.parametrize("loss_name", LOSSES)
    def test_fits_match_dense_scorers(self, monkeypatch, loss_name):
        ds, _ = self._categorical_forest()
        monkeypatch.setattr(trainer, "MIN_CHILD_ROWS", 3)
        cfg = TrainConfig(n_trees=3, n_splits=20, loss=loss_name, cat_cutoff=5)
        _, history = train(ds, cfg)
        monkeypatch.setattr(trainer, "_score_numeric", dense_score_numeric)
        monkeypatch.setattr(trainer, "_score_categorical", dense_categorical_blocks)
        _, dense_history = train(ds, cfg)
        assert history == dense_history


class TestCategoricalCandidates:
    @pytest.mark.parametrize("block", [2, 37, 1 << 30])
    def test_exhaustive_canonical_order(self, monkeypatch, block):
        # anchored on the smallest code staying left, by size, then
        # lexicographically, whatever the block size
        monkeypatch.setattr(trainer, "_SCORE_BLOCK", block)
        codes = [9, 2, 5, 7, 3]
        blocks = list(trainer._categorical_candidates(frozenset(codes), 5, (0, 0, 0), 10, 3))
        got = [tuple(np.flatnonzero(row)) for row in np.concatenate(blocks)]
        want = [c for r in range(1, 5) for c in combinations([3, 5, 7, 9], r)]
        assert got == want
        assert all(len(b) <= max(1, block // 3) for b in blocks)

    def test_sampled_subsets_sorted_and_distinct(self):
        blocks = list(trainer._categorical_candidates(frozenset(range(12)), 8, (4, 2, 1), 12, 1))
        got = [tuple(np.flatnonzero(row)) for row in np.concatenate(blocks)]
        assert len(got) == trainer.CAT_SAMPLE_SIZE
        assert got == sorted(set(got), key=lambda s: (len(s), s))
        assert all(0 not in sub for sub in got)

    def test_single_code_has_no_candidate(self):
        assert list(trainer._categorical_candidates(frozenset({4}), 22, (0, 0, 0), 6, 1)) == []

    @staticmethod
    def _stump_split(ds, cfg):
        trees = [Tree(ds.schema)]
        assign = [np.zeros(ds.m, dtype=np.int32)]
        return trainer.split_pred(trees, 0, trees[0].root, np.arange(ds.m), ds, cfg,
                                  get_loss(cfg.loss), 0, assign)

    @pytest.mark.parametrize("block", [2, 1 << 30])
    def test_ties_pick_the_first_canonical_minimizer(self, monkeypatch, block):
        # codes a, b hold 10 rows each and c, d one each. With 3 rows per
        # child, {b} (10 rows, 1 code) and {b, c, d} (12 rows, 3 codes) mirror
        # each other: both children swap, so their deltas are equal to the
        # bit, and they beat every other admissible subset
        monkeypatch.setattr(trainer, "_SCORE_BLOCK", block)
        rows = [["a"]] * 10 + [["b"]] * 10 + [["c"], ["d"]]
        ds = dataset_from_rows(["k"], [CATEGORICAL], rows)
        monkeypatch.setattr(trainer, "MIN_CHILD_ROWS", 3)
        pred, delta = self._stump_split(ds, TrainConfig())
        assert pred.subset == frozenset({1})
        cells = trainer._affected_cells([Tree(ds.schema)], [], Tree(ds.schema).supports[0], np.arange(ds.m), [], ds.schema)
        ties = dense_score_categorical(cells, 0, ds.schema.domains[0], [[1], [1, 2, 3]],
                                       ds.routing_columns()[0], get_loss("square"), 0.5, ds.m)
        assert ties[0] == ties[1] == delta

    def test_exhaustive_search_memory_is_bounded_by_a_block(self):
        # 18 codes: 131 071 candidate subsets, scored in blocks of 0/1 rows
        rng = np.random.default_rng(7)
        codes = rng.integers(18, size=3000)
        rows = [[f"c{c:02d}", float(c % 3) + rng.normal()] for c in codes]
        ds = dataset_from_rows(["k", "x"], [CATEGORICAL, REAL], rows)
        cfg = TrainConfig(cat_cutoff=22)
        ds.routing_columns()  # cached on first use: built outside the measured window
        tracemalloc.start()
        try:
            res = self._stump_split(ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res is not None
        assert peak < 32 * 2**20, peak / 2**20
