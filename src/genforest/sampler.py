"""Sampling from generative forests: star updates along the forest's cached
walk in iterative tree order, and batch generation with per-observation
random streams."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import CATEGORICAL, INTEGER, Dataset, Schema
from .forest import GenerativeForest, WalkNode
from .measure import Support


def branch_probability(forest: GenerativeForest, state, t_idx: int) -> float:
    """Head probability of the Bernoulli choosing the right branch at the
    current node of tree ``t_idx`` of a per-step sampler state (its
    ``support``, per-tree ``positions`` and GF ``rows``)."""
    return forest.branch_prob(t_idx, state.positions[t_idx], state.support, state.rows)


def star_update(forest: GenerativeForest, node: WalkNode, rng: np.random.Generator) -> WalkNode:
    """Flip the coin of a branching walk node and return the child on that
    side. The forced steps on the child's edge each consume one draw, as a
    step of the per-step sampler does."""
    child = forest.walk_child(node, rng.random() < node.p)
    if child.skip:
        rng.random(child.skip)
    return child


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


def sample_one(forest: GenerativeForest, rng: np.random.Generator) -> list:
    """One observation: star updates from the walk's root to a cell, then a
    uniform draw inside the cell."""
    node = forest.walk_root()
    if node.skip:
        rng.random(node.skip)
    while node.p is not None:
        node = star_update(forest, node, rng)
    return draw_uniform(forest.schema, node.support, rng)


def map_rows(one, n: int, threads: int) -> list:
    """``[one(i) for i in range(n)]``, with the rows shared out among at most
    ``threads`` pool threads, and never more threads than rows or CPUs. Each
    row's result must not depend on the thread it runs on."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    workers = min(threads, n, os.cpu_count() or 1)
    if workers <= 1:
        return [one(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(one, range(n)))


def generate(forest: GenerativeForest, n: int, seed: int = 0, threads: int = 1) -> Dataset:
    """Draw ``n`` observations. Each observation gets its own spawned random
    stream, so output is bitwise identical for any thread count."""
    if n < 0:
        raise ValueError(f"n must be a non-negative row count, got {n}")
    streams = np.random.SeedSequence(seed).spawn(n)

    def one(i: int) -> list:
        return sample_one(forest, np.random.default_rng(streams[i]))

    raw = map_rows(one, n, threads)
    columns = [np.array([r[j] for r in raw], dtype=np.int32 if dom.kind == CATEGORICAL else np.float64)
               for j, dom in enumerate(forest.schema.domains)]
    return Dataset(forest.schema, columns)
