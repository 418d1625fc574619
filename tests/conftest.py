import json

import numpy as np
import pytest

from genforest.data import CATEGORICAL, INTEGER, MISSING_CODE, REAL, Dataset, FeatureDomain, Schema, synth_domain
from genforest.trainer import TrainConfig, train


def dataset_from_rows(names, kinds, rows) -> Dataset:
    """A Dataset from python row values (None = missing), with each domain
    learned from the values present."""
    columns = []
    domains = []
    for j in range(len(names)):
        vals = [r[j] for r in rows]
        present = [v for v in vals if v is not None]
        if kinds[j] == CATEGORICAL:
            cats = tuple(sorted({str(v) for v in present}))
            code = {c: k for k, c in enumerate(cats)}
            columns.append(np.array([MISSING_CODE if v is None else code[str(v)] for v in vals], dtype=np.int32))
            domains.append(FeatureDomain(CATEGORICAL, categories=cats))
        else:
            columns.append(np.array([np.nan if v is None else float(v) for v in vals], dtype=np.float64))
            domains.append(FeatureDomain(kinds[j], lo=float(min(present)), hi=float(max(present))))
    return Dataset(Schema(tuple(names), tuple(domains)), columns)


@pytest.fixture
def toy2d() -> Dataset:
    """Eight hand-placed 2D rows with structure on both axes."""
    rows = [
        [0.10, 0.20], [0.15, 0.25], [0.20, 0.80], [0.30, 0.85],
        [0.70, 0.15], [0.80, 0.25], [0.85, 0.75], [0.90, 0.90],
    ]
    return dataset_from_rows(["x", "y"], [REAL, REAL], rows)


@pytest.fixture
def mixed_ds() -> Dataset:
    """Small mixed numeric/categorical dataset, including a missing cell."""
    rows = [
        [0.1, "a"], [0.2, "a"], [0.3, "b"], [0.4, "b"], [0.5, "c"],
        [0.6, "a"], [0.7, None], [0.8, "c"], [0.9, "b"], [1.0, "a"],
    ]
    return dataset_from_rows(["v", "k"], [REAL, CATEGORICAL], rows)


@pytest.fixture
def holes_ds() -> Dataset:
    """240 mixed real / integer / categorical rows driven by a latent class,
    with about 5 % of the cells missing."""
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(240):
        z = int(rng.integers(3))
        row = [
            float(rng.normal(2.0 * z, 0.6)),
            int(np.clip(round(rng.normal(5 * z + 3, 2.0)), 0, 14)),
            f"c{(z + int(rng.random() < 0.2)) % 4}",
        ]
        rows.append([None if rng.random() < 0.05 else v for v in row])
    return dataset_from_rows(["r", "i", "c"], [REAL, INTEGER, CATEGORICAL], rows)


@pytest.fixture(params=["ring2d", "mixed_holes"])
def walk_forest(request, holes_ds):
    """A 2-D forest and a mixed forest trained on a table with holes."""
    if request.param == "ring2d":
        return train(synth_domain("ringGauss", seed=0), TrainConfig(n_trees=4, n_splits=40, seed=0))[0]
    return train(holes_ds, TrainConfig(n_trees=3, n_splits=30, cat_cutoff=4, seed=0))[0]


@pytest.fixture
def toy_forest(toy2d):
    forest, history = train(toy2d, TrainConfig(n_trees=2, n_splits=3, seed=0))
    return forest, history


def random_dataset(rng: np.random.Generator, m: int = 30) -> Dataset:
    xs = rng.uniform(0.0, 1.0, size=m)
    ys = rng.normal(0.0, 1.0, size=m)
    return dataset_from_rows(
        ["x", "y"], [REAL, REAL], [[float(a), float(b)] for a, b in zip(xs, ys)]
    )


def empty_a_subtree(path, forest) -> tuple[int, int]:
    """Rewrite the GF model file at ``path``, saved from ``forest``, so that
    one leaf splits on a real feature at a threshold above all of its rows'
    values and its right child, which gets none of them, splits again: that
    right child is an internal node without rows. Returns (tree, node)."""
    doc = json.loads(path.read_text())
    route = forest.dataset.routing_columns()
    for t_idx, tree in enumerate(forest.trees):
        for leaf in tree.leaves():
            rows = forest.leaf_rows[t_idx][leaf]
            for j, dom in enumerate(forest.schema.domains):
                hi = tree.supports[leaf].restrictions[j].hi if dom.kind == REAL else None
                if hi is None or not len(rows) or route[j][rows].max() >= hi:
                    continue
                t = (route[j][rows].max() + hi) / 2
                nodes = doc["trees"][t_idx]["nodes"]
                left, right = len(nodes), len(nodes) + 1
                nodes[leaf] = {"leaf": False, "feature": j, "left": left, "right": right, "threshold": t}
                nodes += [
                    {"leaf": True},
                    {"leaf": False, "feature": j, "left": right + 1, "right": right + 2, "threshold": (t + hi) / 2},
                    {"leaf": True},
                    {"leaf": True},
                ]
                path.write_text(json.dumps(doc))
                return t_idx, right
    raise ValueError("no leaf has room above its rows on a real feature")
