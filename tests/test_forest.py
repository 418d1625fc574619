import json
import re

import numpy as np
import pytest

from genforest import forest as forest_module
from genforest.data import CATEGORICAL, INTEGER, REAL, DataError, apply_mcar, synth_domain
from genforest.forest import GenerativeForest, SplitPredicate, Tree
from genforest.imputer import conditional_tuples, impute_dataset
from genforest.measure import NumericInterval, Support, uniform_mass
from genforest.sampler import generate
from genforest.trainer import TrainConfig, get_loss, train
from tests.conftest import dataset_from_rows, empty_a_subtree
import oracles
from oracles import enumerate_partition, full_poprisk, node_mask, partition_element_of, path_to, stepping_generate


def _manual_forest(toy2d, preds):
    """Build a GF of stumps over toy2d: one tree per (feature, threshold)."""
    trees = []
    for j, t in preds:
        tree = Tree(toy2d.schema)
        tree.split(tree.root, SplitPredicate(feature=j, threshold=t))
        trees.append(tree)
    return GenerativeForest(toy2d.schema, trees, dataset=toy2d)


def _model_outputs(forest):
    """GF and EOGT generation, density at complete training rows, and
    imputation of masked training rows, as bytes and floats."""
    ds, eogt = forest.dataset, forest.to_eogt()
    points = [[col[i].item() for col in ds.routing_columns()] for i in range(0, ds.m, 7)]
    masked, _ = apply_mcar(ds.take_rows(np.arange(40), relearn_numeric=False), 0.3, seed=2)
    return [
        [c.tobytes() for f in (forest, eogt) for c in generate(f, 200, seed=1).columns],
        [f.density(x) for f in (forest, eogt) for x in points],
        [c.tobytes() for c in impute_dataset(forest, masked, seed=3).columns],
    ]


class TestTree:
    def test_split_bookkeeping(self, toy2d):
        tree = Tree(toy2d.schema)
        assert tree.is_leaf(tree.root) and tree.n_leaves() == 1
        li, ri = tree.split(tree.root, SplitPredicate(feature=0, threshold=0.5))
        assert not tree.is_leaf(tree.root)
        assert sorted(tree.leaves()) == sorted([li, ri])
        lsup = tree.supports[li].restrictions[0]
        rsup = tree.supports[ri].restrictions[0]
        assert lsup.hi == 0.5 and rsup.lo == 0.5 and rsup.lo_open

    def test_leaf_of_routing(self, toy2d):
        tree = Tree(toy2d.schema)
        li, ri = tree.split(tree.root, SplitPredicate(feature=0, threshold=0.5))
        assert tree.leaf_of([0.3, 0.9]) == li
        assert tree.leaf_of([0.5, 0.9]) == li  # boundary goes left
        assert tree.leaf_of([0.51, 0.1]) == ri

    def test_path_to(self, toy2d):
        tree = Tree(toy2d.schema)
        li, ri = tree.split(tree.root, SplitPredicate(feature=0, threshold=0.5))
        lli, lri = tree.split(li, SplitPredicate(feature=1, threshold=0.5))
        assert path_to(tree, lri) == [li, lri]
        assert path_to(tree, ri) == [ri]


class TestPartition:
    def test_two_crossed_stumps_four_elements(self, toy2d):
        forest = _manual_forest(toy2d, [(0, 0.5), (1, 0.5)])
        elems = enumerate_partition(forest)
        assert len(elems) == 4
        assert sorted(e.count for e in elems) == [2, 2, 2, 2]

    def test_nested_same_feature_intersection(self, toy2d):
        # stump at 0.5 crossed with stump at 0.25 on the same axis: the
        # (<=0.25, >0.5) combination is empty, leaving 3 elements
        forest = _manual_forest(toy2d, [(0, 0.5), (0, 0.25)])
        elems = enumerate_partition(forest)
        assert len(elems) == 3

    def test_full_gf_walk_masks_only_where_the_support_meets_both_sides(self, toy2d, monkeypatch):
        # two stumps with the same split: below the first one's coin the
        # support lies on one side of the second's, so its coin is forced
        # without masking rows
        forest = _manual_forest(toy2d, [(0, 0.5), (0, 0.5)])
        calls, mask = [], GenerativeForest.node_member_mask

        def counted(self, t_idx, node, rows):
            calls.append((t_idx, node))
            return mask(self, t_idx, node, rows)

        monkeypatch.setattr(GenerativeForest, "node_member_mask", counted)
        cells = forest.walk_cells([None, None])
        assert [cell.mass for cell in cells] == [0.5, 0.5]
        assert calls == [(0, 0)]

    def test_partition_is_exhaustive(self, toy_forest, toy2d):
        forest, _ = toy_forest
        elems = enumerate_partition(forest)
        assert sum(e.count for e in elems) == toy2d.m
        total_u = sum(e.umass for e in elems)
        assert total_u == pytest.approx(1.0, abs=1e-9)
        assert all(
            e.umass == pytest.approx(uniform_mass(forest.schema, e.support), abs=1e-12)
            for e in elems
        )

    def test_partition_element_of_membership(self, toy_forest, toy2d):
        forest, _ = toy_forest
        for i in range(toy2d.m):
            elem = partition_element_of(forest, toy2d.row(i))
            assert elem.support.contains(toy2d.row(i))
            assert i in set(elem.rows.tolist())

    def test_prune_zero_count(self, toy_forest):
        forest, _ = toy_forest
        pruned = enumerate_partition(forest, prune_zero_count=True)
        assert all(e.count > 0 for e in pruned)
        full = enumerate_partition(forest)
        assert len(pruned) <= len(full)


class TestDensity:
    def test_positive_at_training_points(self, toy_forest, toy2d):
        forest, _ = toy_forest
        for i in range(toy2d.m):
            val, point_mass = forest.density(toy2d.row(i))
            assert val > 0
            assert not point_mass

    def test_integrates_to_one(self, toy_forest):
        forest, _ = toy_forest
        vol = forest.domain_volume()
        total = 0.0
        for e in enumerate_partition(forest):
            if e.umass > 0:
                # density is constant on each element
                mid = [
                    (r.lo + r.hi) / 2 for r in e.support.restrictions
                ]
                val, _ = forest.density(mid)
                total += val * e.umass * vol
        assert total == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def _query_points(forest, rng):
        """Complete training rows (holes filled by their routing values),
        uniform points of the domain, and points on every numeric split
        boundary."""
        doms = forest.schema.domains
        cols = forest.dataset.routing_columns()
        pts = [
            [int(c[i]) if d.kind == CATEGORICAL else float(c[i]) for d, c in zip(doms, cols)]
            for i in range(0, forest.dataset.m, 5)
        ]
        for _ in range(200):
            pts.append([
                int(rng.integers(len(d.categories))) if d.kind == CATEGORICAL
                else float(rng.integers(int(d.lo), int(d.hi) + 1)) if d.kind == INTEGER
                else float(rng.uniform(d.lo, d.hi))
                for d in doms
            ])
        for tree in forest.trees:
            for n in tree.nodes:
                if not n.is_leaf and n.pred.threshold is not None:
                    x = list(pts[int(rng.integers(len(pts)))])
                    t = n.pred.threshold
                    x[n.pred.feature] = float(np.floor(t)) if doms[n.pred.feature].kind == INTEGER else t
                    pts.append(x)
        return pts

    def test_equals_the_oracle_in_both_modes(self, walk_forest, monkeypatch):
        eogt = walk_forest.to_eogt()
        points = self._query_points(walk_forest, np.random.default_rng(0))
        gf_masses = []
        for x in points:
            got = walk_forest.density(x)
            assert got == oracles.density(walk_forest, x)
            got_eogt = eogt.density(x)
            assert got_eogt == oracles.density(eogt, x)
            # and the mass and volume of the point's single leaf tuple
            ((_, sup, mass),) = oracles.leaf_tuples(eogt, x)
            volume = uniform_mass(eogt.schema, sup) * eogt.domain_volume()
            assert got_eogt == ((mass, True) if volume == 0.0 else (mass / volume, False))
            gf_masses.append(got[0])
        # both occupied cells and cells without training rows were queried
        assert min(gf_masses) == 0.0 < max(gf_masses)
        assert not eogt.describe()["walk_full"]
        # past cap 3 the EOGT walk builds every step below the root's
        # children anew, and gives the same bytes
        monkeypatch.setattr(forest_module, "WALK_NODE_CAP", 3)
        capped = walk_forest.to_eogt()
        assert [capped.density(x) for x in points] == [eogt.density(x) for x in points]
        assert capped.describe()["walk_full"]

    def test_capped_eogt_query_builds_one_side_per_unstored_node(self, walk_forest, monkeypatch):
        # past the cap a complete point's query builds, at each branching
        # node on its path whose children are not stored, only the side that
        # holds the point
        monkeypatch.setattr(forest_module, "WALK_NODE_CAP", 3)
        eogt = walk_forest.to_eogt()
        eogt.walk_child(eogt.walk_root(), False)
        assert eogt.describe()["walk_full"]
        built = []
        walk_side = GenerativeForest._walk_side

        def counted(self, node, right, rows):
            built.append((node.t_idx, node.node))
            return walk_side(self, node, right, rows)

        monkeypatch.setattr(GenerativeForest, "_walk_side", counted)
        n_unstored = 0
        for x in self._query_points(walk_forest, np.random.default_rng(1)):
            built.clear()
            eogt.density(x)
            got = list(built)
            unstored, node = [], eogt.walk_root()
            while all(r.contains(x[j]) for j, r in node.checks) and node.p is not None:
                tree = eogt.trees[node.t_idx]
                n = tree.nodes[node.node]
                j = n.pred.feature
                if node.children is None:
                    unstored.append((node.t_idx, node.node))
                node = eogt.walk_child(node, tree.supports[n.right].restrictions[j].contains(x[j]))
            assert got == unstored
            n_unstored += len(unstored)
        assert n_unstored > 0

    def test_zero_width_cell_is_a_point_mass(self, toy2d):
        # x <= 0.10 (the domain's lower end) leaves the closed cell [0.10, 0.10]
        forest = _manual_forest(toy2d, [(0, 0.10), (1, 0.5)])
        eogt = forest.to_eogt()
        assert forest.density([0.10, 0.20]) == (1 / 8, True)
        assert forest.density([0.10, 0.80]) == (0.0, True)  # no training row there
        # the EOGT coin never enters a cell of zero uniform mass; below it
        # both corrected masses of the second stump are 0 / 0
        assert eogt.density([0.10, 0.20]) == (0.0, True)
        for x in ([0.10, 0.20], [0.10, 0.80], [0.10, 0.5], [0.5, 0.5], [0.9, 0.9], [0.11, 0.2]):
            assert forest.density(x) == oracles.density(forest, x)
            assert eogt.density(x) == oracles.density(eogt, x)
        got = generate(eogt, 200, seed=0)
        assert [c.tobytes() for c in got.columns] == [c.tobytes() for c in stepping_generate(eogt, 200, 0)]
        assert got.columns[0].min() > 0.10

    def test_zero_mass_cell_away_from_lower_ends_descends_no_tree(self, toy2d, monkeypatch):
        # x = 0.55 lies between two stumps at 0.5 and 0.6, in a GF cell
        # without training rows, and away from every lower domain end
        forest = _manual_forest(toy2d, [(0, 0.5), (0, 0.6)])
        x = [0.55, toy2d.columns[1][0].item()]
        assert oracles.density(forest, x) == (0.0, False)

        def descend(tree, values):
            raise AssertionError("a tree was descended")

        monkeypatch.setattr(Tree, "leaf_of", descend)
        assert forest.density(x) == (0.0, False)

    def test_outside_the_domain_names_the_feature(self, toy_forest):
        forest, _ = toy_forest
        for f in (forest, forest.to_eogt()):
            with pytest.raises(ValueError, match=r"y=2\.0"):
                f.density([0.5, 2.0])

    def test_non_integer_value_of_an_integer_feature(self):
        # splits at 5.5 and 7.5 leave no cell holding i = 5.5, nor any value
        # between two integers
        rows = [[i, r, c] for i in range(11) for r, c in ((0.25, "a"), (0.75, "b"))]
        ds = dataset_from_rows(["i", "r", "c"], [INTEGER, REAL, CATEGORICAL], rows)
        trees = []
        for j, t in ((0, 5.5), (0, 7.5), (1, 0.5)):
            tree = Tree(ds.schema)
            tree.split(tree.root, SplitPredicate(feature=j, threshold=t))
            trees.append(tree)
        forest = GenerativeForest(ds.schema, trees, dataset=ds)
        for f in (forest, forest.to_eogt()):
            assert f.density([5.0, 0.5, 1])[0] > 0 and f.density([6.0, 0.5, 1])[0] > 0
            for x in ([5.5, 0.5, 1], [float("nan"), 0.5, 1]):
                with pytest.raises(ValueError, match=r"i=\S+ lies outside the learned domain"):
                    f.density(x)
            with pytest.raises(ValueError, match="c=2 lies outside the learned domain"):
                f.density([5.0, 0.5, 2])

    def test_missing_value_names_the_feature(self, walk_forest):
        row = [col[0].item() for col in walk_forest.dataset.routing_columns()]
        for f in (walk_forest, walk_forest.to_eogt()):
            assert f.density(row)[0] >= 0.0
            for j, name in enumerate(f.schema.names):
                with pytest.raises(ValueError, match=f"{name} is missing"):
                    f.density(row[:j] + [None] + row[j + 1:])

    def test_rows_of_the_wrong_length(self, toy_forest):
        forest, _ = toy_forest
        for f in (forest, forest.to_eogt()):
            for row in ([0.5], [0.0, 0.0, 5.0]):
                with pytest.raises(ValueError, match=f"row of 2 values, got {len(row)}"):
                    f.density(row)


class TestSerialization:
    def test_roundtrip(self, toy_forest, toy2d, tmp_path):
        forest, _ = toy_forest
        p = tmp_path / "model.json"
        forest.save(p)
        back = GenerativeForest.load(p, dataset=toy2d)
        assert back.T == forest.T
        a = enumerate_partition(forest)
        b = enumerate_partition(back)
        assert [(e.leaf_ids, e.count) for e in a] == [(e.leaf_ids, e.count) for e in b]

    def test_roundtrip_keeps_node_ids(self, tmp_path):
        # the heaviest-leaf rule splits these trees out of depth-first order,
        # so a loader that rebuilds depth-first would renumber their nodes
        ds = synth_domain("ringGauss", seed=0)
        cfg = TrainConfig(n_trees=2, n_splits=20, seed=0)
        forest, _ = train(ds, cfg)
        p = tmp_path / "model.json"
        forest.save(p)
        back = GenerativeForest.load(p, dataset=ds)
        for t, u in zip(forest.trees, back.trees):
            assert [(n.pred, n.left, n.right) for n in t.nodes] == [(n.pred, n.left, n.right) for n in u.nodes]
        a = enumerate_partition(forest, prune_zero_count=True)
        b = enumerate_partition(back, prune_zero_count=True)
        assert [(e.leaf_ids, e.count) for e in a] == [(e.leaf_ids, e.count) for e in b]
        loss = get_loss(cfg.loss)
        assert full_poprisk(back, loss) == full_poprisk(forest, loss)
        eogt = forest.to_eogt()
        eogt.save(p)
        back = GenerativeForest.load(p)
        for i in range(0, ds.m, 97):
            assert back.density(ds.row(i)) == eogt.density(ds.row(i))

    def test_invalid_split_sequence(self, toy_forest, tmp_path):
        forest, _ = toy_forest
        p = tmp_path / "model.json"
        forest.save(p)
        doc = json.loads(p.read_text())
        root = doc["trees"][0]["nodes"][0]
        root["left"], root["right"] = root["right"], root["left"]
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            GenerativeForest.load(p, dataset=forest.dataset)

    @staticmethod
    def _categorical_stump(ds, path) -> dict:
        """Save a one-split GF on ``ds``'s categorical feature 1 to ``path``
        and return the file's document."""
        tree = Tree(ds.schema)
        tree.split(tree.root, SplitPredicate(feature=1, subset=frozenset({1})))
        GenerativeForest(ds.schema, [tree], dataset=ds).save(path)
        assert GenerativeForest.load(path, dataset=ds).trees[0].nodes[0].pred.subset == {1}
        return json.loads(path.read_text())

    @pytest.mark.parametrize("code", [-1, 3, 1.5])
    def test_subset_code_outside_the_categories(self, mixed_ds, tmp_path, code):
        p = tmp_path / "model.json"
        doc = self._categorical_stump(mixed_ds, p)
        doc["trees"][0]["nodes"][0]["subset"].append(code)
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="node 0: cannot replay its split: subset holds a code outside"):
            GenerativeForest.load(p, dataset=mixed_ds)

    def test_categorical_split_needs_a_subset(self, mixed_ds, tmp_path):
        p = tmp_path / "model.json"
        doc = self._categorical_stump(mixed_ds, p)
        node = doc["trees"][0]["nodes"][0]
        node["threshold"] = 0.5
        del node["subset"]
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="node 0: cannot replay its split: a categorical feature splits on a subset"):
            GenerativeForest.load(p, dataset=mixed_ds)

    @pytest.mark.parametrize("mode", ["gf", "eogt"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            # a negative index would alias the last feature
            pytest.param({"feature": -1}, "feature -1 is not an int in 0..1", id="feature=-1"),
            pytest.param({"feature": 2}, "feature 2 is not an int in 0..1", id="feature=2"),
            pytest.param({"feature": 1.0}, "feature 1.0 is not an int in 0..1", id="feature=1.0"),
            pytest.param({"threshold": float("nan")}, "threshold nan is not a finite float", id="threshold=nan"),
            pytest.param({"threshold": float("inf")}, "threshold inf is not a finite float", id="threshold=inf"),
            pytest.param({"threshold": "0.5"}, "threshold '0.5' is not a finite float", id="threshold='0.5'"),
            pytest.param({"subset": [0]}, "exactly one of threshold/subset required", id="both"),
            pytest.param({"threshold": None, "subset": [0]}, "a real feature splits on a threshold", id="subset"),
            pytest.param({"threshold": None, "subset": [[0]]}, "unhashable type", id="subset=[[0]]"),
        ],
    )
    def test_split_feature_and_threshold_must_be_valid(self, toy_forest, tmp_path, mode, edit, message):
        forest, _ = toy_forest
        p = tmp_path / "model.json"
        (forest if mode == "gf" else forest.to_eogt()).save(p)
        doc = json.loads(p.read_text())
        doc["trees"][1]["nodes"][0].update(edit)
        p.write_text(json.dumps(doc))  # NaN and Infinity, which json.load reads back
        with pytest.raises(DataError, match=f"node 0: cannot replay its split: {message}"):
            GenerativeForest.load(p, dataset=forest.dataset)

    def test_saved_gf_file_holds_no_leaf_rows(self, toy_forest, tmp_path):
        forest, _ = toy_forest
        p = tmp_path / "model.json"
        forest.save(p)
        doc = json.loads(p.read_text())
        assert doc["version"] == 2
        assert set(doc) == {"format", "version", "mode", "pi", "schema", "trees", "data_hash"}

    @pytest.mark.parametrize("edit", ["none", "duplicate", "drop", "not_a_leaf", "moved"])
    def test_version_1_file_loads_without_its_leaf_rows(self, walk_forest, tmp_path, edit):
        # a version-1 file also stored each leaf's training rows; loading reads
        # none of them, edited or not, and routes the rows by the splits
        p = tmp_path / "model.json"
        walk_forest.save(p)
        doc = json.loads(p.read_text())
        doc["version"] = 1
        doc["leaf_rows"] = [{str(l): rows.tolist() for l, rows in d.items()} for d in walk_forest.leaf_rows]
        per_tree = doc["leaf_rows"][1]
        a, b = sorted(per_tree, key=lambda l: -len(per_tree[l]))[:2]
        if edit == "duplicate":
            per_tree[b].append(per_tree[a][0])
        elif edit == "drop":
            per_tree[a].pop()
        elif edit == "not_a_leaf":
            per_tree["0"] = per_tree.pop(a)
        elif edit == "moved":
            # two rows trade leaves: the leaf rows still partition the rows
            per_tree[a][0], per_tree[b][0] = per_tree[b][0], per_tree[a][0]
        p.write_text(json.dumps(doc))
        back = GenerativeForest.load(p, dataset=walk_forest.dataset)
        assert [list(d) for d in back.leaf_rows] == [list(d) for d in walk_forest.leaf_rows]
        for got, want in zip(back.leaf_rows, walk_forest.leaf_rows):
            assert all(got[l].dtype == want[l].dtype and np.array_equal(got[l], want[l]) for l in want)
        assert back.to_eogt().arc_p == walk_forest.to_eogt().arc_p
        assert _model_outputs(back) == _model_outputs(walk_forest)

    @pytest.mark.parametrize("version", [0, 3, "2", True, None], ids=repr)
    def test_unsupported_version_is_named(self, toy_forest, tmp_path, version):
        forest, _ = toy_forest
        p = tmp_path / "model.json"
        forest.save(p)
        doc = json.loads(p.read_text())
        doc["version"] = version
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"model version {re.escape(repr(version))} is not supported"):
            GenerativeForest.load(p, dataset=forest.dataset)

    def test_byte_identical_saves(self, toy_forest, tmp_path):
        forest, _ = toy_forest
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        forest.save(p1)
        forest.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_data_hash_mismatch(self, toy_forest, toy2d, tmp_path):
        forest, _ = toy_forest
        p = tmp_path / "model.json"
        forest.save(p)
        cols = [c.copy() for c in toy2d.columns]
        cols[0][0] += 0.01
        with pytest.raises(DataError):
            GenerativeForest.load(p, dataset=toy2d.with_columns(cols))

    def test_eogt_roundtrip_without_dataset(self, toy_forest, tmp_path):
        forest, _ = toy_forest
        eogt = forest.to_eogt()
        p = tmp_path / "eogt.json"
        eogt.save(p)
        back = GenerativeForest.load(p)
        assert back.mode == "eogt"
        assert back.arc_p == eogt.arc_p

    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "genforest-model", "version": 1, "mode": "eogt", "pi": 0.5}))
        with pytest.raises(DataError, match="schema"):
            GenerativeForest.load(p)

    def test_arc_p_must_cover_the_internal_nodes(self, toy_forest, tmp_path):
        p = tmp_path / "eogt.json"
        toy_forest[0].to_eogt().save(p)
        doc = json.loads(p.read_text())
        doc["arc_p"][1].pop("0")
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="arc probabilities"):
            GenerativeForest.load(p)

    def test_to_eogt_names_an_internal_node_without_rows(self, walk_forest, tmp_path):
        # the file loads, but its splits send none of the rows to one
        # internal node
        p = tmp_path / "model.json"
        walk_forest.save(p)
        t_idx, node = empty_a_subtree(p, walk_forest)
        back = GenerativeForest.load(p, dataset=walk_forest.dataset)
        with pytest.raises(DataError, match=f"tree {t_idx}: internal node {node} holds no training rows"):
            back.to_eogt()

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DataError):
            GenerativeForest.load(p)

    def test_node_member_mask_splits_every_node_after_load(self, walk_forest, tmp_path):
        p = tmp_path / "model.json"
        walk_forest.save(p)
        forest = GenerativeForest.load(p, dataset=walk_forest.dataset)
        for t_idx, tree in enumerate(forest.trees):
            for node, n in enumerate(tree.nodes):
                if n.is_leaf:
                    continue
                rows = np.flatnonzero(node_mask(forest, t_idx, node))
                right = forest.node_member_mask(t_idx, node, rows)
                for child, side in ((n.left, ~right), (n.right, right)):
                    assert np.array_equal(rows[side], np.flatnonzero(node_mask(forest, t_idx, child)))


class TestEogt:
    def test_arc_probabilities_valid(self, toy_forest):
        forest, _ = toy_forest
        eogt = forest.to_eogt()
        for probs in eogt.arc_p:
            for p in probs.values():
                assert 0.0 <= p <= 1.0

    def test_arc_probability_values(self, toy2d):
        forest = _manual_forest(toy2d, [(0, 0.5)])
        eogt = forest.to_eogt()
        root = forest.trees[0].root
        assert eogt.arc_p[0][root] == pytest.approx(0.5)  # 4 of 8 rows right

    def test_branch_prob_equals_the_oracle(self, walk_forest, monkeypatch):
        # bit for bit, at every node and support the leaf tuple enumeration
        # reaches (EOGT) and at every state of the per-step sampler's exact law
        # with its compatible rows (GF), among them, in both modes, states
        # whose support misses a side of the split
        eogt = walk_forest.to_eogt()
        eogt_oracle, gf_oracle, seen = oracles.eogt_branch_prob, oracles.step_coin, []

        def eogt_recorded(forest, t_idx, node, support):
            p = eogt_oracle(forest, t_idx, node, support)
            seen.append((forest, t_idx, node, support, None, p))
            return p

        def gf_recorded(forest, state, t_idx):
            p = gf_oracle(forest, state, t_idx)
            seen.append((forest, t_idx, state.positions[t_idx], state.support, state.rows, p))
            return p

        monkeypatch.setattr(oracles, "eogt_branch_prob", eogt_recorded)
        monkeypatch.setattr(oracles, "step_coin", gf_recorded)
        oracles.leaf_tuples(eogt)
        oracles.support_distribution(walk_forest)
        missed = {"gf": 0, "eogt": 0}
        for forest, t_idx, node, support, rows, p in seen:
            assert forest.branch_prob(t_idx, node, support, rows) == p
            tree = forest.trees[t_idx]
            n = tree.nodes[node]
            j = n.pred.feature
            sides = [support.restrictions[j].intersect(tree.supports[c].restrictions[j]) for c in (n.left, n.right)]
            missed[forest.mode] += any(r.is_empty() for r in sides)
        assert len(seen) > 100 and min(missed.values()) > 0

    def test_branch_prob_below_a_zero_width_cell(self, toy2d):
        # both uniform-corrected masses are 0 there: the arc probability when
        # the support meets both children, else the side it meets
        eogt = _manual_forest(toy2d, [(0, 0.10), (1, 0.5)]).to_eogt()
        point = Support.full(toy2d.schema).replace(0, NumericInterval(0.10, 0.10))
        stump = eogt.trees[1]
        left, right = (stump.supports[i].restrictions[1] for i in (stump.nodes[0].left, stump.nodes[0].right))
        assert eogt.branch_prob(1, 0, point, None) == eogt.arc_p[1][0] == 0.5
        assert eogt.branch_prob(1, 0, point.replace(1, right), None) == 1.0
        assert eogt.branch_prob(1, 0, point.replace(1, left), None) == 0.0

    @pytest.mark.parametrize("cap", [None, 3])
    def test_constant_and_integer_columns_equal_the_oracles(self, cap, monkeypatch):
        # the constant real column takes the zero-width branch of the uniform
        # fraction at every coin, the integer column the counting branch; with
        # three features split on, a product of the fractions in another
        # order changes last bits
        rng = np.random.default_rng(4)
        rows = [[float(rng.normal()), 1.5, int(rng.integers(0, 10)), float(rng.uniform())] for _ in range(80)]
        ds = dataset_from_rows(["x", "c", "k", "y"], [REAL, REAL, INTEGER, REAL], rows)
        gf, _ = train(ds, TrainConfig(n_trees=3, n_splits=24, seed=0))
        assert {n.pred.feature for t in gf.trees for n in t.nodes if not n.is_leaf} == {0, 2, 3}
        if cap is not None:
            monkeypatch.setattr(forest_module, "WALK_NODE_CAP", cap)
        eogt = gf.to_eogt()
        sample = generate(eogt, 200, seed=1)
        assert [c.tobytes() for c in sample.columns] == [c.tobytes() for c in stepping_generate(eogt, 200, 1)]
        for i in range(ds.m):
            x = ds.row(i)
            assert eogt.density(x) == oracles.density(eogt, x)
            for partial in ([x[0], None, None, x[3]], [None, x[1], x[2], None], [None] * 4):
                got = [(t.support.key(), t.mass) for t in conditional_tuples(eogt, partial)]
                assert got == [(t.support.key(), t.mass) for t in oracles.conditional_tuples(eogt, partial)]
        assert eogt.describe()["walk_full"] == (cap is not None)

    def test_expected_depth_positive(self, toy_forest):
        forest, _ = toy_forest
        d = oracles.expected_depth(forest)
        assert d > 0
        assert oracles.expected_depth(forest.to_eogt()) > 0


class TestValidation:
    def test_bad_pi(self, toy2d):
        with pytest.raises(ValueError):
            GenerativeForest(toy2d.schema, [Tree(toy2d.schema)], pi=1.5, dataset=toy2d)

    def test_gf_needs_dataset(self, toy2d):
        with pytest.raises(ValueError):
            GenerativeForest(toy2d.schema, [Tree(toy2d.schema)])
