"""Sampling from generative forests: stochastic support updates across the
trees, exact distribution enumeration for small models, and batch generation
with per-observation random streams."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, INTEGER, Dataset, Schema
from .forest import GenerativeForest, PartitionElement, WalkNode
from .measure import Support, uniform_mass


@dataclass
class SamplerState:
    """One in-flight observation: current intersection support, per-tree
    position, and (GF mode) the row indices still compatible."""

    support: Support
    positions: list[int]
    rows: np.ndarray | None

    def finished(self, forest: GenerativeForest) -> bool:
        return all(t.is_leaf(p) for t, p in zip(forest.trees, self.positions))


class WalkCursor:
    """Sampler state in iterative tree order: a node of the forest's walk
    tree (``GenerativeForest.walk_root``)."""

    __slots__ = ("node",)

    def __init__(self, node: WalkNode):
        self.node = node


def init_sampling(forest: GenerativeForest) -> SamplerState:
    rows = np.arange(forest.dataset.m) if forest.mode == "gf" else None
    return SamplerState(
        support=Support.full(forest.schema),
        positions=[t.root for t in forest.trees],
        rows=rows,
    )


def branch_probability(forest: GenerativeForest, state: SamplerState, t_idx: int) -> float:
    """Head probability of the Bernoulli choosing the right branch at the
    current node of tree ``t_idx`` given the current support."""
    return forest.branch_prob(t_idx, state.positions[t_idx], state.support, state.rows)


def star_update(
    forest: GenerativeForest, state: SamplerState | WalkCursor, t_idx: int, rng: np.random.Generator
) -> None:
    """Advance tree ``t_idx`` one level: flip the branch Bernoulli and shrink
    the support accordingly. In place. On a walk cursor the level is the
    branching walk node's coin and the forced steps after it, each of which
    consumes one draw as a step of the stepping path does."""
    if type(state) is WalkCursor:
        node = state.node
        child = forest.walk_child(node, rng.random() < node.p)
        if child.skip:
            rng.random(child.skip)
        state.node = child
        return
    tree = forest.trees[t_idx]
    node = tree.nodes[state.positions[t_idx]]
    p = branch_probability(forest, state, t_idx)
    go_right = rng.random() < p
    child = node.right if go_right else node.left
    _descend(forest, state, t_idx, child)


def _descend(forest: GenerativeForest, state: SamplerState, t_idx: int, child: int) -> None:
    tree = forest.trees[t_idx]
    j = tree.nodes[state.positions[t_idx]].pred.feature
    new_r = state.support.restrictions[j].intersect(tree.supports[child].restrictions[j])
    if state.rows is not None:
        state.rows = state.rows[forest.node_member_mask(t_idx, child, state.rows)]
    state.support = state.support.replace(j, new_r)
    state.positions[t_idx] = child


def update_support(forest: GenerativeForest, state: SamplerState, rng: np.random.Generator, order: str = "iterative") -> None:
    """Run star updates to completion. ``iterative`` sweeps the trees in index
    order; ``random`` picks a uniformly random unfinished tree at each step.
    Both are admissible orders and sample the same distribution in GF mode."""
    if order == "iterative":
        for t_idx, tree in enumerate(forest.trees):
            while not tree.is_leaf(state.positions[t_idx]):
                star_update(forest, state, t_idx, rng)
        return
    if order != "random":
        raise ValueError(f"unknown order {order!r}")
    while True:
        open_trees = [i for i, t in enumerate(forest.trees) if not t.is_leaf(state.positions[i])]
        if not open_trees:
            return
        t_idx = open_trees[rng.integers(len(open_trees))]
        star_update(forest, state, t_idx, rng)


def draw_uniform(schema: Schema, support: Support, rng: np.random.Generator) -> list:
    """Uniform raw-value draw from a support (float / int / category code)."""
    out = []
    for dom, r in zip(schema.domains, support.restrictions):
        if dom.kind == CATEGORICAL:
            # the draw and stream state of rng.choice(codes), without its
            # conversion of the list to an array
            codes = sorted(r.codes)
            out.append(int(codes[rng.integers(len(codes))]))
        elif dom.kind == INTEGER:
            out.append(int(rng.integers(r.a, r.b + 1)))
        else:
            out.append(float(r.lo if r.hi == r.lo else rng.uniform(r.lo, r.hi)))
    return out


def sample_one(forest: GenerativeForest, rng: np.random.Generator, order: str = "iterative") -> list:
    if order == "iterative":
        # the walk gives the stepping path's draws and cell, bit for bit
        state = WalkCursor(forest.walk_root())
        if state.node.skip:
            rng.random(state.node.skip)
        while state.node.p is not None:
            star_update(forest, state, state.node.t_idx, rng)
        return draw_uniform(forest.schema, state.node.support, rng)
    state = init_sampling(forest)
    update_support(forest, state, rng, order=order)
    return draw_uniform(forest.schema, state.support, rng)


def generate(
    forest: GenerativeForest,
    n: int,
    seed: int = 0,
    order: str = "iterative",
    threads: int = 1,
) -> Dataset:
    """Draw ``n`` observations. Each observation gets its own spawned random
    stream, so output is bitwise identical for any thread count."""
    streams = np.random.SeedSequence(seed).spawn(n)

    def one(i: int) -> list:
        return sample_one(forest, np.random.default_rng(streams[i]), order=order)

    if threads <= 1:
        raw = [one(i) for i in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            raw = list(ex.map(one, range(n)))

    schema = forest.schema
    columns = []
    for j, dom in enumerate(schema.domains):
        if dom.kind == CATEGORICAL:
            columns.append(np.array([r[j] for r in raw], dtype=np.int32))
        else:
            columns.append(np.array([r[j] for r in raw], dtype=np.float64))
    return Dataset(schema, columns)


# ---------------------------------------------------------------------------
# exact distributions (analysis / test oracles; exponential in model size)


def support_distribution(forest: GenerativeForest, order: str = "iterative") -> list[tuple[PartitionElement, float]]:
    """Exact law of the final support under the given update order, obtained
    by branching the sampler walk instead of flipping coins."""
    out: dict[tuple, tuple[PartitionElement, float]] = {}

    def emit(state: SamplerState, prob: float) -> None:
        leaf_ids = tuple(state.positions)
        key = leaf_ids
        if key in out:
            elem, p0 = out[key]
            out[key] = (elem, p0 + prob)
        else:
            elem = PartitionElement(
                leaf_ids=leaf_ids,
                support=state.support,
                count=len(state.rows) if state.rows is not None else None,
                umass=uniform_mass(forest.schema, state.support),
                rows=state.rows,
            )
            out[key] = (elem, prob)

    def walk(state: SamplerState, prob: float) -> None:
        if order == "iterative":
            t_idx = next(
                (i for i, t in enumerate(forest.trees) if not t.is_leaf(state.positions[i])), None
            )
            choices = [] if t_idx is None else [t_idx]
        else:
            choices = [i for i, t in enumerate(forest.trees) if not t.is_leaf(state.positions[i])]
        if not choices:
            emit(state, prob)
            return
        w = 1.0 / len(choices)
        for t_idx in choices:
            tree = forest.trees[t_idx]
            node = tree.nodes[state.positions[t_idx]]
            p = branch_probability(forest, state, t_idx)
            for child, pc in ((node.right, p), (node.left, 1.0 - p)):
                if pc == 0.0:
                    continue
                sub = SamplerState(state.support, list(state.positions), state.rows)
                _descend(forest, sub, t_idx, child)
                walk(sub, prob * w * pc)

    walk(init_sampling(forest), 1.0)
    return list(out.values())


def element_reach_probability(forest: GenerativeForest, leaf_ids, interleaving) -> float:
    """GF mode: probability of ending at the given leaf tuple when the trees
    advance along their fixed root-to-leaf paths in the order given by
    ``interleaving`` (a sequence of tree indices, one entry per path step)."""
    assert forest.mode == "gf"
    paths = [t.path_to(l) for t, l in zip(forest.trees, leaf_ids)]
    pos = [0] * forest.T
    state = init_sampling(forest)
    prob = 1.0
    for t_idx in interleaving:
        target = paths[t_idx][pos[t_idx]]
        tree = forest.trees[t_idx]
        node = tree.nodes[state.positions[t_idx]]
        p = branch_probability(forest, state, t_idx)
        prob *= p if target == node.right else 1.0 - p
        if prob == 0.0:
            return 0.0
        _descend(forest, state, t_idx, target)
        pos[t_idx] += 1
    assert all(pos[i] == len(paths[i]) for i in range(forest.T)), "interleaving does not exhaust the paths"
    return prob


def path_interleavings(lengths: list[int]):
    """All sequences of tree indices with the given per-tree multiplicities."""
    total = sum(lengths)

    def rec(counts, prefix):
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                prefix.append(i)
                yield from rec(counts, prefix)
                prefix.pop()
                counts[i] += 1

    yield from rec(list(lengths), [])
