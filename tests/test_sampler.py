import os
import sys
import threading

import numpy as np
import pytest

from genforest import forest as forest_module
from genforest import sampler as sampler_module
from genforest.data import CATEGORICAL, FeatureDomain, Schema, apply_mcar, synth_domain
from genforest.forest import GenerativeForest
from genforest.imputer import impute_dataset
from genforest.measure import CatSubset, NumericInterval, Support
from genforest.sampler import draw_uniform, generate, sample_one
from genforest.trainer import TrainConfig, train
from oracles import (
    SamplerState,
    descend,
    init_sampling,
    partition_element_of,
    path_interleavings,
    step_coin,
    stepping_generate,
    support_distribution,
)


def walk_nodes(forest, expand=True):
    """Every node of the walk tree: fully expanded, or as stored so far."""
    out, stack = [], [forest.walk_root()]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.p is not None:
            stack.extend((forest.walk_child(node, False), forest.walk_child(node, True)) if expand
                         else node.children or ())
    return out


def stepped_edge(forest, state, mass, checks):
    """Follow the forced steps of the stepping path from ``state`` (changed
    in place) to its next branching state or its cell, adding each split
    feature's restriction to ``checks``. Returns the fields the walk node at
    the end of this edge must hold: (t_idx, node, p, mass, skip, checks)."""
    skip = 0
    for t_idx, tree in enumerate(forest.trees):
        while not tree.is_leaf(state.positions[t_idx]):
            node = state.positions[t_idx]
            p = step_coin(forest, state, t_idx)
            if 0.0 < p < 1.0:
                return t_idx, node, p, mass, skip, tuple(checks.items())
            n = tree.nodes[node]
            descend(forest, state, t_idx, n.right if p else n.left)
            checks[n.pred.feature] = state.support.restrictions[n.pred.feature]
            skip += 1
    return forest.T, -1, None, mass, skip, tuple(checks.items())


def assert_stored_edges_step(forest):
    """Every stored walk node holds the position, coin, mass, forced steps
    and per-edge checks that the stepping path gives along its edge, and a
    stored cell holds the stepping path's support."""
    m = forest.dataset.m if forest.mode == "gf" else None
    state = init_sampling(forest)
    stack = [(forest.walk_root(), state, stepped_edge(forest, state, 1.0, {}))]
    while stack:
        node, state, want = stack.pop()
        assert (node.t_idx, node.node, node.p, node.mass, node.skip, node.checks) == want
        if node.p is None:
            assert node.support == state.support
        for right, child in enumerate(node.children or ()):
            n = forest.trees[node.t_idx].nodes[node.node]
            sub = SamplerState(state.support, list(state.positions), state.rows)
            descend(forest, sub, node.t_idx, n.right if right else n.left)
            mass = len(sub.rows) / m if m else node.mass * (node.p if right else 1.0 - node.p)
            j = n.pred.feature
            stack.append((child, sub, stepped_edge(forest, sub, mass, {j: sub.support.restrictions[j]})))


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

    def test_pool_is_bounded_by_rows_and_cpus(self, toy_forest, toy2d, monkeypatch):
        # a recording executor that runs every row on the calling thread, so
        # that no large pool is ever started
        forest, _ = toy_forest
        masked, _ = apply_mcar(toy2d.take_rows(np.arange(3), relearn_numeric=False), 0.5, seed=1)
        want = [generate(forest, 3, seed=5).content_hash(), impute_dataset(forest, masked, seed=2).content_hash()]
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sampler_module, "ThreadPoolExecutor", RecordingExecutor)
        for cpus, pool in ((8, 3), (2, 2), (None, None)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sizes.clear()
            got = [generate(forest, 3, seed=5, threads=10**6).content_hash(),
                   impute_dataset(forest, masked, seed=2, threads=10**6).content_hash()]
            assert got == want and sizes == ([] if pool is None else [pool, pool])
        for f in (lambda t: generate(forest, 3, threads=t), lambda t: impute_dataset(forest, masked, threads=t)):
            for threads in (0, -2):
                with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                    f(threads)

    def test_negative_row_count(self, toy_forest):
        forest, _ = toy_forest
        for f in (forest, forest.to_eogt()):
            with pytest.raises(ValueError, match="n must be a non-negative row count, got -1"):
                generate(f, -1)
        assert generate(forest, 0).m == 0

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

    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_eogt_generate_equals_stepping_path(self, walk_forest, seed, cap, monkeypatch):
        # with cap 3 the walk stores its root and the root's children, and
        # every later step is built and not stored
        if cap is not None:
            monkeypatch.setattr(forest_module, "WALK_NODE_CAP", cap)
        eogt = walk_forest.to_eogt()
        got = generate(eogt, 150, seed=seed)
        want = stepping_generate(eogt, 150, seed)
        assert [c.tobytes() for c in got.columns] == [c.tobytes() for c in want]
        assert eogt.describe()["walk_full"] == (cap is not None)

    @pytest.mark.parametrize("cap", [None, 50])
    def test_eogt_walk_stores_at_most_the_cap(self, walk_forest, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(forest_module, "WALK_NODE_CAP", cap)
        eogt = walk_forest.to_eogt()
        generate(eogt, 2000, seed=0)
        info = eogt.describe()
        stored = walk_nodes(eogt, expand=False)
        assert info["walk_branching_nodes"] == sum(n.p is not None for n in stored)
        assert info["walk_cells"] == sum(n.p is None for n in stored)
        assert len(stored) <= forest_module.WALK_NODE_CAP
        assert info["walk_full"] == (len(stored) + 2 > forest_module.WALK_NODE_CAP)
        assert all(0 < n.p < 1 for n in stored if n.p is not None)
        assert_stored_edges_step(eogt)

    def test_reader_during_the_filling_expansion_gets_the_stored_child(self, walk_forest, monkeypatch):
        # a thread that meets a node while another thread's expansion of it
        # fills the walk gets the stored child, and never a run built from
        # the support that the expansion drops
        monkeypatch.setattr(forest_module, "WALK_NODE_CAP", 3)
        eogt = walk_forest.to_eogt()
        root = eogt.walk_root()
        seen = []
        store = GenerativeForest._walk_store

        def store_then_read(self, *nodes):
            store(self, *nodes)
            if self._walk_full:
                reader = threading.Thread(target=lambda: seen.append(self.walk_child(root, True)))
                reader.start()
                reader.join(5)

        monkeypatch.setattr(GenerativeForest, "_walk_store", store_then_read)
        eogt.walk_child(root, False)
        assert len(seen) == 1 and seen[0] is root.children[1]

    def test_size_bound_after_full_expansion(self, walk_forest):
        nodes = walk_nodes(walk_forest)
        m = walk_forest.dataset.m
        branching = [n for n in nodes if n.p is not None]
        cells = [n for n in nodes if n.p is None]
        assert len(branching) <= m - 1
        assert len(cells) == len(branching) + 1
        counts = [round(c.mass * m) for c in cells]
        assert [c.mass for c in cells] == [k / m for k in counts] and sum(counts) == m
        assert all(0 < n.p < 1 and n.rows is None and n.support is None for n in branching)
        assert all(c.support is not None and c.rows is None for c in cells)
        assert_stored_edges_step(walk_forest)

    def test_built_lazily(self, toy2d):
        forest, _ = train(toy2d, TrainConfig(n_trees=2, n_splits=3, seed=0))
        eogt = forest.to_eogt()
        for model in (forest, eogt):
            assert model._walk_root is None
            info = model.describe()
            assert info["walk_branching_nodes"] == info["walk_cells"] == 0
            generate(model, 1, seed=0)
            assert model._walk_root is not None
            info = model.describe()
            assert info["walk_branching_nodes"] + info["walk_cells"] >= 1
        assert eogt.describe()["leaves"] == forest.leaf_count_summary()

    def test_threads_on_a_fresh_walk(self, monkeypatch):
        # many workers expanding fresh walks of both modes, switching threads
        # often, the EOGT walk past its cap: every node is expanded exactly
        # once and the bytes match one thread
        ds = synth_domain("circGauss", seed=1)
        cfg = TrainConfig(n_trees=4, n_splits=40, seed=0)
        masked, _ = apply_mcar(ds, 0.3, seed=2)
        masked_head = masked.take_rows(np.arange(300), relearn_numeric=False)
        expanded = []  # the nodes themselves, so that no id is reused
        expand = GenerativeForest._walk_expand

        def counted(self, node):
            expanded.append((self.mode, node))
            expand(self, node)

        monkeypatch.setattr(GenerativeForest, "_walk_expand", counted)
        monkeypatch.setattr(forest_module, "WALK_NODE_CAP", 200)
        # four pool threads on any host: the pool is never larger than the CPUs
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        outputs = []
        for threads in (1, 4, 4, 4):
            forest, _ = train(ds, cfg)
            expanded.clear()
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                gen = generate(forest, 300, seed=3, threads=threads)
                imp = impute_dataset(forest, masked, seed=4, threads=threads)
                eogt_model = forest.to_eogt()
                eogt = generate(eogt_model, 300, seed=5, threads=threads)
                eogt_imp = impute_dataset(eogt_model, masked_head, seed=6, threads=threads)
            finally:
                sys.setswitchinterval(old)
            assert expanded and len({id(n) for _, n in expanded}) == len(expanded)
            assert {mode for mode, _ in expanded} == {"gf", "eogt"}
            info = eogt_model.describe()
            assert info["walk_full"] and info["walk_branching_nodes"] + info["walk_cells"] <= 200
            outputs.append([c.tobytes() for c in gen.columns + imp.columns + eogt.columns + eogt_imp.columns])
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
        for _ in range(20):
            assert full.contains(sample_one(forest, rng))

    def test_path_interleavings(self):
        inter = list(path_interleavings([2, 1]))
        # multinomial(3; 2, 1) = 3 distinct interleavings
        assert len(inter) == 3
        for seq in inter:
            assert sorted(seq) == [0, 0, 1]
        assert len(set(map(tuple, inter))) == 3

    def test_path_interleavings_empty_paths(self):
        assert list(path_interleavings([0, 0])) == [()]
