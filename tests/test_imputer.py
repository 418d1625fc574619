import numpy as np
import pytest

from genforest import forest as forest_module
from genforest import imputer as imputer_module
from genforest.data import DataError, apply_mcar
from genforest.imputer import (
    conditional_tuples,
    impute,
    impute_dataset,
    marginal_impute,
    raw_row,
)
from genforest.trainer import TrainConfig, train
import oracles
from oracles import enumerate_partition, partition_element_of


class TestRawRow:
    def test_values_and_missing(self, mixed_ds):
        row = raw_row(mixed_ds, 6)
        assert row[0] == pytest.approx(0.7)
        assert row[1] is None
        row0 = raw_row(mixed_ds, 0)
        assert isinstance(row0[1], int)


class TestConditionalTuples:
    def test_masses_sum_to_one_unconditioned(self, toy_forest):
        forest, _ = toy_forest
        tuples = conditional_tuples(forest, [None, None])
        assert sum(t.mass for t in tuples) == pytest.approx(1.0, abs=1e-12)

    def test_supports_contain_observed_value(self, toy_forest):
        forest, _ = toy_forest
        tuples = conditional_tuples(forest, [0.15, None])
        assert tuples
        for t in tuples:
            assert t.support.restrictions[0].contains(0.15)

    def test_unobserved_gf_walk_is_the_pruned_partition(self, toy_forest, toy2d):
        forest, _ = toy_forest
        tuples = conditional_tuples(forest, [None] * forest.schema.d)
        elems = enumerate_partition(forest, prune_zero_count=True)
        assert [(t.support, t.mass) for t in tuples] == [(e.support, e.count / toy2d.m) for e in elems]

    def test_gf_walk_equals_leaf_tuples_on_masked_rows(self, walk_forest, monkeypatch):
        # in both modes, and on an EOGT walk past cap 3, where every step
        # below the root's children is built and not stored: the walk's
        # tuples equal the pruned leaf tuples in value and order, and
        # imputing from them gives the bytes of imputing from the leaf tuples
        ds = walk_forest.dataset
        masked, _ = apply_mcar(ds, 0.4, seed=3)
        rows = masked.take_rows(np.arange(0, ds.m, max(1, ds.m // 150)), relearn_numeric=False)
        for mode, cap in (("gf", None), ("eogt", None), ("eogt", 3)):
            if cap is not None:
                monkeypatch.setattr(forest_module, "WALK_NODE_CAP", cap)
            model = walk_forest if mode == "gf" else walk_forest.to_eogt()
            for i in range(rows.m):
                x = raw_row(rows, i)
                got = [(t.support.key(), t.mass) for t in conditional_tuples(model, x)]
                want = [(t.support.key(), t.mass) for t in oracles.conditional_tuples(model, x)]
                assert got == want
            got = impute_dataset(model, rows, seed=5)
            with monkeypatch.context() as mp:
                mp.setattr(imputer_module, "conditional_tuples", oracles.conditional_tuples)
                want = impute_dataset(model, rows, seed=5)
            assert [c.tobytes() for c in got.columns] == [c.tobytes() for c in want.columns]
            assert model.describe()["walk_full"] == (cap is not None)

    def test_complete_row_eogt_mass_is_its_density(self, toy_forest, toy2d):
        eogt = toy_forest[0].to_eogt()
        for i in range(toy2d.m):
            row = toy2d.row(i)
            (t,) = conditional_tuples(eogt, row)
            elem = partition_element_of(eogt, row)
            assert t.support == elem.support
            assert eogt.density(row) == (t.mass / (elem.umass * eogt.domain_volume()), False)

    def test_eogt_masses_sum_to_one(self, toy_forest):
        forest, _ = toy_forest
        tuples = conditional_tuples(forest.to_eogt(), [None, None])
        assert sum(t.mass for t in tuples) == pytest.approx(1.0, abs=1e-9)


class TestImpute:
    def test_observed_pass_through(self, toy_forest):
        forest, _ = toy_forest
        rng = np.random.default_rng(0)
        out = impute(forest, [0.15, None], rng)
        assert out[0] == 0.15
        assert out[1] is not None
        assert forest.schema.domains[1].lo <= out[1] <= forest.schema.domains[1].hi

    def test_fully_observed_unchanged(self, toy_forest):
        forest, _ = toy_forest
        rng = np.random.default_rng(0)
        assert impute(forest, [0.15, 0.25], rng) == [0.15, 0.25]

    def test_no_consistent_cell_is_a_data_error(self, toy_forest):
        # every cell of the toy forest splits on x, and none holds x = 5
        forest, _ = toy_forest
        assert conditional_tuples(forest, [5.0, None]) == []
        with pytest.raises(DataError, match=r"\[5\.0, None\]"):
            impute(forest, [5.0, None], np.random.default_rng(0))

    def test_dataset_thread_determinism(self, toy2d):
        forest, _ = train(toy2d, TrainConfig(n_trees=2, n_splits=4, seed=0))
        masked, _ = apply_mcar(toy2d, 0.3, seed=1)
        a = impute_dataset(forest, masked, seed=2, threads=1)
        b = impute_dataset(forest, masked, seed=2, threads=4)
        assert a.content_hash() == b.content_hash()
        assert not a.missing_mask().any()

    def test_dataset_preserves_observed(self, toy2d):
        forest, _ = train(toy2d, TrainConfig(n_trees=2, n_splits=4, seed=0))
        masked, mask = apply_mcar(toy2d, 0.3, seed=1)
        out = impute_dataset(forest, masked, seed=2)
        for j in range(toy2d.d):
            keep = ~mask[:, j]
            assert np.array_equal(out.columns[j][keep], toy2d.columns[j][keep])


class TestMarginalImpute:
    @pytest.fixture
    def masked_mixed(self, mixed_ds):
        cols = [c.copy() for c in mixed_ds.columns]
        cols[0][2] = np.nan
        return mixed_ds.with_columns(cols)

    def test_sample_fills_from_observed(self, mixed_ds, masked_mixed):
        out = marginal_impute(mixed_ds, masked_mixed, seed=0)
        assert not out.missing_mask().any()
        observed = mixed_ds.columns[0][~np.isnan(mixed_ds.columns[0])]
        assert out.columns[0][2] in observed

    def test_mean_strategy(self, mixed_ds, masked_mixed):
        out = marginal_impute(mixed_ds, masked_mixed, seed=0, strategy="mean")
        obs = mixed_ds.columns[0][~np.isnan(mixed_ds.columns[0])]
        assert out.columns[0][2] == pytest.approx(np.mean(obs))

    def test_mode_strategy_categorical(self, mixed_ds):
        out = marginal_impute(mixed_ds, mixed_ds, seed=0, strategy="mode")
        # mode of the categorical column is "a" (4 of 9 observed)
        code_a = mixed_ds.schema.domains[1].categories.index("a")
        assert out.columns[1][6] == code_a

    def test_unknown_strategy(self, mixed_ds):
        with pytest.raises(ValueError):
            marginal_impute(mixed_ds, mixed_ds, strategy="knn")
