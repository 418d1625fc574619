import numpy as np
import pytest

from genforest.data import CATEGORICAL, INTEGER, REAL, synth_domain
from genforest.evaluator import (
    TrainStats,
    copy_generator,
    forest_generator,
    kfold_indices,
    kfold_lifelike,
    perr,
    rmse,
    sinkhorn_ot,
    subsample_generator,
    two_sample_ttest,
    uniform_generator,
)
from genforest.trainer import TrainConfig
from tests.conftest import dataset_from_rows


@pytest.fixture
def truth():
    rows = [[0.0, "a"], [1.0, "b"], [2.0, "a"], [3.0, "b"]]
    return dataset_from_rows(["x", "k"], [REAL, CATEGORICAL], rows)


class TestPointMetrics:
    def test_perr_hand_oracle(self, truth):
        cols = [c.copy() for c in truth.columns]
        cols[1][0] = 1 - cols[1][0]  # flip one category
        imputed = truth.with_columns(cols)
        mask = np.zeros((4, 2), dtype=bool)
        mask[0, 1] = mask[1, 1] = True
        assert perr(imputed, truth, mask) == pytest.approx(0.5)
        assert rmse(imputed, truth, mask) is None

    def test_rmse_hand_oracle(self, truth):
        cols = [c.copy() for c in truth.columns]
        cols[0][0] += 3.0
        cols[0][1] += 4.0
        imputed = truth.with_columns(cols)
        mask = np.zeros((4, 2), dtype=bool)
        mask[0, 0] = mask[1, 0] = True
        assert rmse(imputed, truth, mask) == pytest.approx(np.sqrt(25.0 / 2))
        assert perr(imputed, truth, mask) is None


class TestSinkhorn:
    def test_self_transport_near_zero(self, toy2d):
        stats = TrainStats.from_dataset(toy2d)
        res = sinkhorn_ot(toy2d, toy2d, stats=stats)
        other = dataset_from_rows(
            ["x", "y"], [REAL, REAL], [[0.5, 0.5]] * toy2d.m
        )
        assert res.cost < sinkhorn_ot(other, toy2d, stats=stats).cost

    def test_symmetry(self, toy2d):
        stats = TrainStats.from_dataset(toy2d)
        half = toy2d.take_rows(np.arange(4), relearn_numeric=False)
        ab = sinkhorn_ot(half, toy2d, stats=stats)
        ba = sinkhorn_ot(toy2d, half, stats=stats)
        # symmetric up to the marginal convergence tolerance
        assert ab.cost == pytest.approx(ba.cost, abs=1e-5)

    @pytest.mark.parametrize("metric", ["l1", "sql2"])
    def test_metrics_converge(self, toy2d, metric):
        stats = TrainStats.from_dataset(toy2d)
        res = sinkhorn_ot(toy2d, toy2d, stats=stats, metric=metric)
        assert res.converged
        assert res.cost >= -1e-9


class TestKfold:
    def test_disjoint_cover(self):
        ds = synth_domain("circGauss", seed=0)
        folds = kfold_indices(ds, 5, seed=1)
        allidx = np.concatenate(folds)
        assert len(allidx) == ds.m
        assert len(np.unique(allidx)) == ds.m
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_stratified_on_last_categorical(self):
        rows = [[float(i), "a" if i % 3 else "b"] for i in range(30)]
        ds = dataset_from_rows(["x", "k"], [REAL, CATEGORICAL], rows)
        folds = kfold_indices(ds, 5, seed=0)
        strat = ds.columns[1]
        # 10 "b" rows spread over 5 folds: exactly 2 per fold
        code_b = ds.schema.domains[1].categories.index("b")
        b_counts = [int((strat[f] == code_b).sum()) for f in folds]
        assert b_counts == [2] * 5

    def test_validation(self, toy2d):
        with pytest.raises(ValueError):
            kfold_indices(toy2d, 1, seed=0)
        with pytest.raises(ValueError):
            kfold_indices(toy2d, 5, seed=0)


class TestLifelike:
    def test_generators_smoke_and_ordering(self):
        ds = synth_domain("circGauss", seed=0).take_rows(np.arange(200))
        cfg = TrainConfig(n_trees=5, n_splits=20, seed=0)
        gf = kfold_lifelike(ds, 3, forest_generator(cfg), seed=0)
        unif = kfold_lifelike(ds, 3, uniform_generator(), seed=0)
        copy = kfold_lifelike(ds, 3, copy_generator(), seed=0)
        sub = kfold_lifelike(ds, 3, subsample_generator(), seed=0)
        assert len(gf.fold_costs) == 3
        assert gf.mean < unif.mean
        assert copy.mean <= min(gf.mean, sub.mean)

    def test_uniform_generator_gives_every_integer_value_equal_mass(self):
        train_ds = dataset_from_rows(["k"], [INTEGER], [[0], [3], [1]])
        n = 200_000
        out = uniform_generator()(train_ds, train_ds.with_columns([np.zeros(n)]), seed=0)
        values, counts = np.unique(out.columns[0], return_counts=True)
        assert out.columns[0].dtype == np.float64
        assert values.tolist() == [0.0, 1.0, 2.0, 3.0]
        # each count is about n / 4 = 50 000 with a standard deviation of 194
        assert np.all(np.abs(counts - n / 4) < 1500), counts

    def test_result_serialization(self, tmp_path):
        ds = synth_domain("circGauss", seed=0).take_rows(np.arange(120))
        res = kfold_lifelike(ds, 3, uniform_generator(), seed=0)
        assert '"mean"' in res.to_json()
        p = tmp_path / "r.csv"
        res.to_csv(p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "fold,cost,warnings"
        assert len(lines) == 3 + 3  # header + folds + mean + std


def test_two_sample_ttest_direction():
    t, p = two_sample_ttest([1.0, 1.1, 0.9, 1.0], [2.0, 2.1, 1.9, 2.0])
    assert t < 0
    assert p < 0.01
