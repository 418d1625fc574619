import numpy as np
import pytest

from genforest import trainer
from genforest.data import CATEGORICAL, INTEGER, REAL, dataset_from_rows
from genforest.forest import GenerativeForest, SplitPredicate, Tree, assignment_arrays
from genforest.measure import get_loss
from genforest.trainer import (
    TrainConfig,
    full_poprisk,
    pick_tree_and_leaf,
    risk_delta,
    train,
    write_history_csv,
)


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_trees": 0},
            {"n_splits": -1},
            {"mode": "boost"},
            {"pi": 0.0},
            {"loss": "hinge"},
            {"min_child_rows": 0},
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
        stump = GenerativeForest(
            ds.schema, [tree], dataset=ds, leaf_rows=[{tree.root: np.arange(4)}]
        )
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

    def test_min_child_rows(self, toy2d):
        forest, _ = train(toy2d, TrainConfig(n_trees=1, n_splits=5, min_child_rows=3, seed=0))
        for per_tree in forest.leaf_rows:
            for rows in per_tree.values():
                assert len(rows) >= 3

    def test_categorical_splits(self, mixed_ds):
        forest, history = train(mixed_ds, TrainConfig(n_trees=1, n_splits=4, seed=0))
        assert any(r.subset is not None or r.threshold is not None for r in history)
        # row lists still tile the dataset
        total = sum(len(rows) for rows in forest.leaf_rows[0].values())
        assert total == mixed_ds.m

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
                cells = trainer._affected_cells(forest.trees, t_idx, sup, rows, ds, assign)
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
                cells = trainer._affected_cells(forest.trees, t_idx, sup, rows, ds, assign)
                other = [t for t in range(42) if t != t_idx]
                labels = np.stack([assign[t][rows] for t in other], axis=1)
                uniq, inverse = np.unique(labels, axis=0, return_inverse=True)
                assert len(cells) == len(uniq)
                for i, cell_rows in enumerate(cells.rows):
                    assert np.array_equal(cell_rows, rows[inverse.ravel() == i])
