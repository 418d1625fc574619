import sys

import numpy as np
import pytest

from genforest.data import CATEGORICAL, FeatureDomain, Schema, apply_mcar, synth_domain
from genforest.forest import GenerativeForest
from genforest.imputer import impute_dataset
from genforest.measure import CatSubset, NumericInterval, Support
from genforest.sampler import (
    draw_uniform,
    generate,
    init_sampling,
    path_interleavings,
    sample_one,
    support_distribution,
    update_support,
)
from genforest.trainer import TrainConfig, train
from oracles import partition_element_of


def stepping_generate(forest, n, seed):
    """Reference: one star update per tree step over the surviving rows,
    with the per-row streams of ``generate``."""
    out = []
    for stream in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(stream)
        state = init_sampling(forest)
        update_support(forest, state, rng)
        out.append(draw_uniform(forest.schema, state.support, rng))
    return generate_columns(forest, out)


def generate_columns(forest, rows):
    return [np.array([r[j] for r in rows], dtype=c.dtype)
            for j, c in enumerate(forest.dataset.columns)]


def walk_nodes(forest):
    """Every node of the fully expanded walk tree."""
    out, stack = [], [forest.walk_root()]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.p is not None:
            stack.extend(forest.walk_children(node))
    return out


class TestSupportDistribution:
    @pytest.mark.parametrize("order", ["iterative", "random"])
    def test_sums_to_one(self, toy_forest, order):
        forest, _ = toy_forest
        dist = support_distribution(forest, order=order)
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for _, p in dist)

    def test_gf_matches_empirical_counts(self, toy_forest, toy2d):
        # a generative forest samples each partition element with its
        # empirical frequency, in either tree order
        forest, _ = toy_forest
        for order in ("iterative", "random"):
            for elem, p in support_distribution(forest, order=order):
                assert p == pytest.approx(elem.count / toy2d.m, abs=1e-12)

    def test_eogt_distribution_normalized(self, toy_forest):
        forest, _ = toy_forest
        dist = support_distribution(forest.to_eogt(), order="iterative")
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-9)


class TestGenerate:
    def test_determinism_and_seed_sensitivity(self, toy_forest):
        forest, _ = toy_forest
        a = generate(forest, 64, seed=5)
        b = generate(forest, 64, seed=5)
        c = generate(forest, 64, seed=6)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_thread_count_invariance(self, toy_forest):
        forest, _ = toy_forest
        a = generate(forest, 64, seed=5, threads=1)
        b = generate(forest, 64, seed=5, threads=4)
        assert a.content_hash() == b.content_hash()

    def test_samples_lie_in_nonempty_elements(self, toy_forest):
        forest, _ = toy_forest
        out = generate(forest, 200, seed=0)
        for i in range(out.m):
            elem = partition_element_of(forest, out.row(i))
            assert elem.count >= 1

    def test_schema_preserved(self, toy_forest, toy2d):
        forest, _ = toy_forest
        out = generate(forest, 10, seed=0)
        assert out.schema.names == toy2d.schema.names
        assert out.m == 10


class TestWalk:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_generate_equals_stepping_path(self, walk_forest, seed):
        got = generate(walk_forest, 150, seed=seed)
        want = stepping_generate(walk_forest, 150, seed)
        assert [c.tobytes() for c in got.columns] == [c.tobytes() for c in want]

    def test_size_bound_after_full_expansion(self, walk_forest):
        nodes = walk_nodes(walk_forest)
        m = walk_forest.dataset.m
        branching = [n for n in nodes if n.p is not None]
        cells = [n for n in nodes if n.p is None]
        assert len(branching) <= m - 1
        assert len(cells) == len(branching) + 1
        assert sum(c.count for c in cells) == m
        assert all(0 < n.p < 1 and n.rows is None and n.support is None for n in branching)
        assert all(c.support is not None and c.rows is None for c in cells)

    def test_built_lazily(self, toy2d):
        forest, _ = train(toy2d, TrainConfig(n_trees=2, n_splits=3, seed=0))
        assert forest._walk_root is None
        generate(forest, 1, seed=0)
        assert forest._walk_root is not None

    def test_threads_on_a_fresh_walk(self, monkeypatch):
        # many workers expanding fresh walks, switching threads often: every
        # node is expanded exactly once and the bytes match one thread
        ds = synth_domain("circGauss", seed=1)
        cfg = TrainConfig(n_trees=4, n_splits=40, seed=0)
        masked, _ = apply_mcar(ds, 0.3, seed=2)
        expanded = []  # the nodes themselves, so that no id is reused
        expand = GenerativeForest._walk_expand

        def counted(self, node):
            expanded.append(node)
            expand(self, node)

        monkeypatch.setattr(GenerativeForest, "_walk_expand", counted)
        outputs = []
        for threads in (1, 4, 4, 4):
            forest, _ = train(ds, cfg)
            expanded.clear()
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                gen = generate(forest, 300, seed=3, threads=threads)
                imp = impute_dataset(forest, masked, seed=4, threads=threads)
            finally:
                sys.setswitchinterval(old)
            assert expanded and len({id(n) for n in expanded}) == len(expanded)
            outputs.append([c.tobytes() for c in gen.columns + imp.columns])
        assert all(out == outputs[0] for out in outputs[1:])


class TestPrimitives:
    def test_draw_uniform_within_support(self, toy2d):
        rng = np.random.default_rng(0)
        sup = Support.full(toy2d.schema).replace(0, NumericInterval(0.2, 0.3, lo_open=True))
        for _ in range(50):
            v = draw_uniform(toy2d.schema, sup, rng)
            assert sup.contains(v)

    def test_draw_uniform_category_matches_rng_choice(self):
        # a categorical draw gives the value rng.choice gives on the sorted
        # codes and leaves the stream where rng.choice leaves it
        dom = FeatureDomain(CATEGORICAL, categories=tuple(f"k{i}" for i in range(40)))
        schema = Schema(("c",), (dom,))
        pick = np.random.default_rng(123)
        code_sets = [frozenset({7})] + [
            frozenset(pick.choice(40, size=int(pick.integers(1, 41)), replace=False).tolist())
            for _ in range(60)
        ]
        for codes in code_sets:
            sup = Support(schema, (CatSubset(codes),))
            for seed in range(50):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert draw_uniform(schema, sup, rng) == [int(ref.choice(sorted(codes)))]
                assert rng.random() == ref.random()

    def test_sample_one_in_domain(self, toy_forest):
        forest, _ = toy_forest
        rng = np.random.default_rng(1)
        full = Support.full(forest.schema)
        for order in ("iterative", "random"):
            v = sample_one(forest, rng, order=order)
            assert full.contains(v)

    def test_path_interleavings(self):
        inter = list(path_interleavings([2, 1]))
        # multinomial(3; 2, 1) = 3 distinct interleavings
        assert len(inter) == 3
        for seq in inter:
            assert sorted(seq) == [0, 0, 1]
        assert len(set(map(tuple, inter))) == 3

    def test_path_interleavings_empty_paths(self):
        assert list(path_interleavings([0, 0])) == [()]
