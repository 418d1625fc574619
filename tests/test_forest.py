import json

import numpy as np
import pytest

from genforest import forest as forest_module
from genforest.data import CATEGORICAL, INTEGER, DataError, synth_domain
from genforest.forest import GenerativeForest, SplitPredicate, Tree
from genforest.measure import NumericInterval, Support, uniform_mass
from genforest.sampler import generate
from genforest.trainer import TrainConfig, get_loss, train
import oracles
from oracles import enumerate_partition, full_poprisk, node_mask, partition_element_of, path_to, stepping_generate


def _manual_forest(toy2d, preds):
    """Build a GF of stumps over toy2d: one tree per (feature, threshold)."""
    trees, leaf_rows = [], []
    for j, t in preds:
        tree = Tree(toy2d.schema)
        li, ri = tree.split(tree.root, SplitPredicate(feature=j, threshold=t))
        rows = np.arange(toy2d.m)
        left = rows[toy2d.columns[j][rows] <= t]
        right = rows[toy2d.columns[j][rows] > t]
        trees.append(tree)
        leaf_rows.append({li: left, ri: right})
    return GenerativeForest(toy2d.schema, trees, dataset=toy2d, leaf_rows=leaf_rows)


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

    def test_outside_the_domain_names_the_feature(self, toy_forest):
        forest, _ = toy_forest
        for f in (forest, forest.to_eogt()):
            with pytest.raises(ValueError, match=r"y=2\.0"):
                f.density([0.5, 2.0])


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

    @pytest.mark.parametrize("edit", ["duplicate", "drop", "not_a_leaf"])
    def test_leaf_rows_must_partition_the_rows(self, toy_forest, tmp_path, edit):
        forest, _ = toy_forest
        p = tmp_path / "model.json"
        forest.save(p)
        doc = json.loads(p.read_text())
        per_tree = doc["leaf_rows"][1]
        a, b = sorted(per_tree, key=lambda l: -len(per_tree[l]))[:2]
        if edit == "duplicate":
            per_tree[b].append(per_tree[a][0])
        elif edit == "drop":
            per_tree[a].pop()
        else:
            per_tree["0"] = per_tree.pop(a)
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="tree 1"):
            GenerativeForest.load(p, dataset=forest.dataset)

    def test_arc_p_must_cover_the_internal_nodes(self, toy_forest, tmp_path):
        p = tmp_path / "eogt.json"
        toy_forest[0].to_eogt().save(p)
        doc = json.loads(p.read_text())
        doc["arc_p"][1].pop("0")
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="arc probabilities"):
            GenerativeForest.load(p)

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DataError):
            GenerativeForest.load(p)

    def test_node_member_mask_splits_every_node_after_load(self, walk_forest, tmp_path):
        p = tmp_path / "model.json"
        walk_forest.save(p)
        forest = GenerativeForest.load(p, dataset=walk_forest.dataset)
        m = forest.dataset.m
        for t_idx, tree in enumerate(forest.trees):
            assert forest.node_member_mask(t_idx, tree.root, np.arange(m)).all()
            for node, n in enumerate(tree.nodes):
                if n.is_leaf:
                    continue
                rows = np.flatnonzero(node_mask(forest, t_idx, node))
                left = forest.node_member_mask(t_idx, n.left, rows)
                right = forest.node_member_mask(t_idx, n.right, rows)
                assert np.array_equal(left, ~right)
                for child, side in ((n.left, left), (n.right, right)):
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
        # reaches
        eogt = walk_forest.to_eogt()
        rule, pairs = eogt.branch_prob, []

        def recorded(t_idx, node, support, rows):
            p = rule(t_idx, node, support, rows)
            pairs.append((p, oracles.eogt_branch_prob(eogt, t_idx, node, support)))
            return p

        monkeypatch.setattr(eogt, "branch_prob", recorded)
        oracles.leaf_tuples(eogt)
        assert len(pairs) > 100
        assert all(got == want for got, want in pairs)

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

    def test_expected_depth_positive(self, toy_forest):
        forest, _ = toy_forest
        d = oracles.expected_depth(forest)
        assert d > 0
        assert oracles.expected_depth(forest.to_eogt()) > 0


class TestValidation:
    def test_bad_pi(self, toy2d):
        with pytest.raises(ValueError):
            _f = GenerativeForest(
                toy2d.schema, [Tree(toy2d.schema)], pi=1.5,
                dataset=toy2d, leaf_rows=[{0: np.arange(toy2d.m)}],
            )

    def test_gf_needs_dataset(self, toy2d):
        with pytest.raises(ValueError):
            GenerativeForest(toy2d.schema, [Tree(toy2d.schema)])
